"""Exact interval-set algebra over the rationals.

Endpoints carry closure flags because both kinds of domain occur: valid
colorings live on the half-open [gamma, S) while every upper-bound claim is
made over the closed [gamma, S].  Endpoint comparisons use (value, epsilon)
keys, epsilon +1 for an open lower endpoint and -1 for an open upper endpoint,
which makes "just after x" / "exactly x" / "just before x" totally ordered and
turns merging and intersection into plain key comparisons.

The sum of two intervals is closed at an endpoint only when both contributing
endpoints are closed; that rule is forced by set arithmetic, not a convention.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

from .equations import Color, ProblemSpec, SolutionWitness, Verdict
from .serialize import exact_fraction, format_rational, parse_rational


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", exact_fraction(self.lo))
        object.__setattr__(self, "hi", exact_fraction(self.hi))
        if not (isinstance(self.lo_closed, bool) and isinstance(self.hi_closed, bool)):
            raise ValueError("closure flags must be booleans")
        if self._lo_key() > self._hi_key():
            raise ValueError(f"empty interval: {self}")

    @classmethod
    def point(cls, value) -> "Interval":
        return cls(value, value, True, True)

    def _lo_key(self) -> tuple[Fraction, int]:
        return (self.lo, 0 if self.lo_closed else 1)

    def _hi_key(self) -> tuple[Fraction, int]:
        return (self.hi, 0 if self.hi_closed else -1)

    def contains(self, x) -> bool:
        x = exact_fraction(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    __contains__ = contains

    def add(self, other: "Interval") -> "Interval":
        return Interval(
            self.lo + other.lo,
            self.hi + other.hi,
            self.lo_closed and other.lo_closed,
            self.hi_closed and other.hi_closed,
        )

    def subtracted_from(self, t) -> "Interval":
        """The reflected interval {t - x : x in self}."""
        t = exact_fraction(t)
        return Interval(t - self.hi, t - self.lo, self.hi_closed, self.lo_closed)

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lower = max(self, other, key=Interval._lo_key)
        upper = min(self, other, key=Interval._hi_key)
        if lower._lo_key() > upper._hi_key():
            return None
        return Interval(lower.lo, upper.hi, lower.lo_closed, upper.hi_closed)

    def scale(self, factor) -> "Interval":
        factor = exact_fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Interval(self.lo * factor, self.hi * factor, self.lo_closed, self.hi_closed)

    def representative(self) -> Fraction:
        """A member, preferring closed endpoints so decompositions stay simple."""
        if self.lo_closed:
            return self.lo
        if self.hi_closed:
            return self.hi
        return (self.lo + self.hi) / 2

    def _mergeable_with(self, other: "Interval") -> bool:
        """Union with a later-starting interval is itself an interval."""
        return other.lo < self.hi or (
            other.lo == self.hi and (self.hi_closed or other.lo_closed)
        )

    def __repr__(self) -> str:
        return (
            ("[" if self.lo_closed else "(")
            + f"{format_rational(self.lo)},{format_rational(self.hi)}"
            + ("]" if self.hi_closed else ")")
        )


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union: sorted, pairwise disjoint, gaps genuine."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a._lo_key() > b._lo_key() or a._mergeable_with(b):
                raise ValueError("interval set not canonical; use normalize()")
        object.__setattr__(self, "_los", tuple(iv.lo for iv in self.intervals))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = exact_fraction(x)
        idx = bisect.bisect_right(self._los, x)  # type: ignore[attr-defined]
        return idx > 0 and self.intervals[idx - 1].contains(x)

    __contains__ = contains

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for a in self.intervals:
            for b in other.intervals:
                both = a.intersect(b)
                if both is not None:
                    pieces.append(both)
        return normalize(pieces)

    def scale(self, factor) -> "IntervalSet":
        return IntervalSet(tuple(iv.scale(factor) for iv in self.intervals))

    def __repr__(self) -> str:
        return "{" + " u ".join(map(repr, self.intervals)) + "}" if self.intervals else "{}"


def normalize(raw: Iterable[Interval]) -> IntervalSet:
    """Canonical form with the same membership predicate; idempotent."""
    items = sorted(raw, key=Interval._lo_key)
    merged: list[Interval] = []
    for iv in items:
        if merged and merged[-1]._mergeable_with(iv):
            last = merged[-1]
            upper = max(last, iv, key=Interval._hi_key)
            merged[-1] = Interval(last.lo, upper.hi, last.lo_closed, upper.hi_closed)
        else:
            merged.append(iv)
    return IntervalSet(tuple(merged))


def minkowski_sum(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """{x + y : x in a, y in b}, exact on endpoints and closure flags."""
    return normalize([ia.add(ib) for ia in a.intervals for ib in b.intervals])


def m_fold_sumset(a: IntervalSet, m: int) -> IntervalSet:
    """Range of x1 + ... + xm over the set: iterated pairwise sums, merged
    after every round so the iterate stays small."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"need m >= 1, got {m!r}")
    acc = a
    for _ in range(m - 1):
        acc = minkowski_sum(acc, a)
    return acc


def decompose_sum(a: IntervalSet, m: int, t) -> tuple[Fraction, ...]:
    """m members of the set summing exactly to t.

    Picks the first m-multiset of intervals (in index order) whose summed
    range contains t, then fixes values left to right: each value is the
    representative of the member interval intersected with what the remaining
    intervals can still absorb.  Deterministic, so witnesses are reproducible.
    """
    t = exact_fraction(t)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"need m >= 1, got {m!r}")
    chosen: Optional[Sequence[Interval]] = None
    for combo in combinations_with_replacement(a.intervals, m):
        total = combo[0]
        for iv in combo[1:]:
            total = total.add(iv)
        if total.contains(t):
            chosen = list(combo)
            break
    if chosen is None:
        raise ValueError(f"{format_rational(t)} is not in the {m}-fold sumset")
    values: list[Fraction] = []
    target = t
    while len(chosen) > 1:
        iv = chosen.pop(0)
        rest = chosen[0]
        for more in chosen[1:]:
            rest = rest.add(more)
        feasible = iv.intersect(rest.subtracted_from(target))
        assert feasible is not None, "sum range contained t, so a slot must be feasible"
        v = feasible.representative()
        values.append(v)
        target -= v
    assert chosen[0].contains(target)
    values.append(target)
    return tuple(values)


@dataclass(frozen=True)
class ContinuousColoring:
    """A true 2-partition of an interval domain into red and blue classes."""

    domain: Interval
    red: IntervalSet
    blue: IntervalSet

    def __post_init__(self) -> None:
        # Each class is canonical, so sorting both is one merge of two runs.
        # In that order two pieces meet iff some piece meets its successor,
        # and the pieces cover the domain iff each one abuts the next and the
        # ends match.  An overlap is reported ahead of a gap.
        pieces = sorted(self.red.intervals + self.blue.intervals, key=Interval._lo_key)
        covered = bool(pieces) and (
            pieces[0]._lo_key() == self.domain._lo_key()
            and pieces[-1]._hi_key() == self.domain._hi_key()
        )
        for a, b in zip(pieces, pieces[1:]):
            if b._lo_key() <= a._hi_key():
                raise ValueError("red and blue classes overlap")
            covered = covered and a._mergeable_with(b)
        if not covered:
            raise ValueError("red and blue classes do not partition the domain")

    def class_of(self, color: Color) -> IntervalSet:
        return self.red if color is Color.RED else self.blue


def verify_coloring(coloring: ContinuousColoring, spec: ProblemSpec) -> Verdict:
    """Valid iff neither class's m-fold sumset meets the class itself.

    A nonempty overlap yields a concrete witness through decompose_sum.  The
    partition invariant is enforced by the ContinuousColoring constructor, so
    only the domain precondition is checked here.
    """
    if coloring.domain.lo < spec.gamma:
        raise ValueError("coloring domain starts below gamma")
    for color in (Color.RED, Color.BLUE):
        cls = coloring.class_of(color)
        if cls.is_empty:
            continue
        sums = m_fold_sumset(cls, spec.arity(color))
        bad = sums.intersect(cls)
        if not bad.is_empty:
            x0 = bad.intervals[0].representative()
            values = decompose_sum(cls, spec.arity(color), x0)
            return Verdict(SolutionWitness.from_values(color, values, x0))
    return Verdict()


def lower_bound_coloring(spec: ProblemSpec) -> ContinuousColoring:
    """The extremal two-block coloring of [gamma, gamma*S), S = kl + k - 1:
    red on [gamma, gamma*k) and [gamma*kl, gamma*S), blue between them.

    Red sums of k small reds land in the blue block; any red sum using the
    high block overshoots the domain; blue sums of l mid values land at or
    beyond gamma*kl where red has taken over.
    """
    g, k, l = spec.gamma, spec.k, spec.l
    s = g * (k * l + k - 1)
    red = normalize([Interval(g, g * k), Interval(g * k * l, s)])
    blue = normalize([Interval(g * k, g * k * l)])
    return ContinuousColoring(Interval(g, s), red, blue)


def scale_coloring(coloring: ContinuousColoring, factor) -> ContinuousColoring:
    """Multiply every endpoint by a positive factor; closure flags ride along.
    The guarded equations are homogeneous, so validity is preserved."""
    return ContinuousColoring(
        coloring.domain.scale(factor),
        coloring.red.scale(factor),
        coloring.blue.scale(factor),
    )


def boundary_witnesses(spec: ProblemSpec) -> tuple[SolutionWitness, SolutionWitness]:
    """Why the two-block coloring cannot absorb the right endpoint S.

    Returns (red_witness, blue_witness) with x0 = gamma*S: the red one is
    monochromatic as soon as S is colored red, the blue one as soon as S is
    colored blue, so the closed domain [gamma, gamma*S] defeats every
    extension.  Scales homogeneously with gamma.
    """
    g, k, l = spec.gamma, spec.k, spec.l
    s = g * (k * l + k - 1)
    red = SolutionWitness(Color.RED, ((g, k - 1), (g * k * l, 1)), s)
    blue = SolutionWitness(Color.BLUE, ((g * k, l - 1), (g * (2 * k - 1), 1)), s)
    return red, blue


_CLOSURE_CODES = {
    (True, False): "[)",
    (True, True): "[]",
    (False, False): "()",
    (False, True): "(]",
}
_CODES_CLOSURE = {v: k for k, v in _CLOSURE_CODES.items()}


def _interval_as_json(iv: Interval) -> list:
    return [
        format_rational(iv.lo),
        format_rational(iv.hi),
        _CLOSURE_CODES[(iv.lo_closed, iv.hi_closed)],
    ]


def _interval_from_json(item) -> Interval:
    if not (isinstance(item, list) and len(item) == 3):
        raise ValueError(f"malformed interval entry {item!r}")
    lo, hi, code = item
    try:
        lo_closed, hi_closed = _CODES_CLOSURE[code]
    except (KeyError, TypeError):  # TypeError: an unhashable list or dict
        raise ValueError(f"unknown closure code {code!r}") from None
    return Interval(parse_rational(lo), parse_rational(hi), lo_closed, hi_closed)


def coloring_as_json(coloring: ContinuousColoring) -> dict:
    if not coloring.domain.lo_closed:
        raise ValueError("coloring files require a closed left endpoint")
    return {
        "gamma": format_rational(coloring.domain.lo),
        "end": format_rational(coloring.domain.hi),
        "end_inclusive": coloring.domain.hi_closed,
        "red": [_interval_as_json(iv) for iv in coloring.red.intervals],
        "blue": [_interval_as_json(iv) for iv in coloring.blue.intervals],
    }


def coloring_from_json(obj) -> ContinuousColoring:
    if not isinstance(obj, dict) or set(obj) != {"gamma", "end", "end_inclusive", "red", "blue"}:
        raise ValueError("coloring object must carry gamma, end, end_inclusive, red, blue")
    if not isinstance(obj["end_inclusive"], bool):
        raise ValueError("end_inclusive must be a boolean")
    if not (isinstance(obj["red"], list) and isinstance(obj["blue"], list)):
        raise ValueError("red and blue must be lists of intervals")
    domain = Interval(
        parse_rational(obj["gamma"]), parse_rational(obj["end"]), True, obj["end_inclusive"]
    )
    red = normalize([_interval_from_json(item) for item in obj["red"]])
    blue = normalize([_interval_from_json(item) for item in obj["blue"]])
    return ContinuousColoring(domain, red, blue)
