"""Problem definition, solution semantics, and the closed-form number oracles.

Red always guards the k-variable equation x1 + ... + xk = x0 and blue always
guards the l-variable equation x1 + ... + xl = x0.  The pairing is fixed and
asymmetric: a blue solution to the red equation counts for nothing.  Swapping
the colors of a coloring therefore changes which equation each class guards,
and there is no symmetric spec.

Every value is an exact int or ``fractions.Fraction``; no float enters any
verification path.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .serialize import exact_fraction, format_rational, parse_rational

ONE = Fraction(1)


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"

    @property
    def opposite(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


class ProblemSpec(namedtuple("ProblemSpec", "k l gamma")):
    """Arities of the two guarded equations plus the domain's left endpoint."""

    __slots__ = ()

    def __new__(cls, k: int, l: int, gamma=ONE) -> "ProblemSpec":
        if not isinstance(k, int) or not isinstance(l, int):
            raise ValueError("arities k and l must be integers")
        if not 2 <= k <= l:
            raise ValueError(f"need 2 <= k <= l, got k={k}, l={l}")
        gamma = exact_fraction(gamma)
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        return tuple.__new__(cls, (k, l, gamma))

    def arity(self, color: Color) -> int:
        return self.k if color is Color.RED else self.l

    def as_json(self) -> dict:
        return {"k": self.k, "l": self.l, "gamma": format_rational(self.gamma)}

    @classmethod
    def from_json(cls, obj) -> "ProblemSpec":
        if not isinstance(obj, dict) or set(obj) != {"k", "l", "gamma"}:
            raise ValueError("spec object must carry exactly k, l, gamma")
        k, l = obj["k"], obj["l"]
        if not isinstance(k, int) or not isinstance(l, int):
            raise ValueError("spec arities must be JSON integers")
        return cls(k, l, parse_rational(obj["gamma"]))


class SolutionWitness:
    """One instance of a guarded equation: a left-hand multiset plus x0.

    ``left`` is canonicalized to sorted (value, multiplicity) pairs with
    positive multiplicities, so equality and hashing are multiset semantics.
    Arithmetic correctness is *not* enforced here; ``check_witness`` and the
    certificate verifier do that, which is what makes tampered witnesses
    representable (and detectable).  Immutable: the fields are set once, by
    ``__init__``.
    """

    __slots__ = ("color", "left", "x0")

    def __init__(self, color: Color, left, x0) -> None:
        pairs = []
        for value, mult in left:
            value = exact_fraction(value)
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {mult!r}")
            pairs.append((value, int(mult)))
        # sort on the values alone, then merge runs of equal values
        pairs.sort(key=itemgetter(0))
        merged = pairs[:1]
        for value, mult in pairs[1:]:
            if value == merged[-1][0]:
                merged[-1] = (value, merged[-1][1] + mult)
            else:
                merged.append((value, mult))
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "left", tuple(merged))
        object.__setattr__(self, "x0", exact_fraction(x0))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.color, self.left, self.x0) == (other.color, other.left, other.x0)

    def __hash__(self) -> int:
        return hash((self.color, self.left, self.x0))

    def __repr__(self) -> str:
        return f"SolutionWitness(color={self.color!r}, left={self.left!r}, x0={self.x0!r})"

    @classmethod
    def from_values(cls, color: Color, values: Iterable, x0) -> "SolutionWitness":
        return cls(color, tuple((exact_fraction(v), 1) for v in values), x0)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.left)

    @property
    def left_sum(self) -> Fraction:
        return sum((v * m for v, m in self.left), Fraction(0))

    def as_json(self) -> dict:
        return {
            "color": self.color.value,
            "left": [[format_rational(v), m] for v, m in self.left],
            "x0": format_rational(self.x0),
        }


def formula_discrete(k: int, l: int) -> int:
    """Known integer value: 3l-1 (k=2, l even), 3l-2 (k=2, l odd >= 3), else kl+k-1."""
    if not (isinstance(k, int) and isinstance(l, int) and 2 <= k <= l):
        raise ValueError(f"need integers 2 <= k <= l, got k={k!r}, l={l!r}")
    if k == 2:
        return 3 * l - 1 if l % 2 == 0 else 3 * l - 2
    return k * l + k - 1


def formula_continuous(k: int, l: int, gamma=ONE) -> Fraction:
    """Real-domain value gamma*(kl + k - 1), one formula for every k >= 2."""
    if not (isinstance(k, int) and isinstance(l, int) and 2 <= k <= l):
        raise ValueError(f"need integers 2 <= k <= l, got k={k!r}, l={l!r}")
    gamma = exact_fraction(gamma)
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return gamma * (k * l + k - 1)


def formula_degenerate_k1(l: int) -> int:
    """k=1 forces every number blue (x1 = x0 is always a red solution), so the
    answer is just l, where the all-blue class first meets its own equation."""
    if not isinstance(l, int) or l < 1:
        raise ValueError(f"need an integer l >= 1, got {l!r}")
    return l


def check_witness(spec: ProblemSpec, witness: SolutionWitness) -> bool:
    """True iff the witness is an actual equation instance inside the domain.

    Checks the exact sum, the arity of its color, and that every value
    (x0 included) is >= gamma.  Never raises; bad witnesses are just False.
    """
    if witness.total_multiplicity != spec.arity(witness.color):
        return False
    if witness.left_sum != witness.x0:
        return False
    if witness.x0 < spec.gamma:
        return False
    return all(v >= spec.gamma for v, _ in witness.left)


class Verdict(NamedTuple):
    """Outcome of checking a coloring: Valid iff no monochromatic witness."""

    witness: Optional[SolutionWitness] = None

    @property
    def is_valid(self) -> bool:
        return self.witness is None

    def as_json(self) -> dict:
        if self.witness is None:
            return {"status": "Valid"}
        return {"status": "WitnessFound", "witness": self.witness.as_json()}
