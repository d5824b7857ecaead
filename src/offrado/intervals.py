"""Exact interval-set algebra over the rationals.

Endpoints carry closure flags because both kinds of domain occur: valid
colorings live on the half-open [gamma, S) while every upper-bound claim is
made over the closed [gamma, S].  Endpoint comparisons use (value, epsilon)
keys, epsilon +1 for an open lower endpoint and -1 for an open upper endpoint,
which makes "just after x" / "exactly x" / "just before x" totally ordered and
turns merging and intersection into plain key comparisons.

The sum of two intervals is closed at an endpoint only when both contributing
endpoints are closed; that rule is forced by set arithmetic, not a convention.

The hot loops run on plain ints: m_fold_sumset, decompose_sum and
verify_coloring scale the set once over one common denominator and work on
int key pairs, the same (value, epsilon) keys with epsilon folded into the low
bit (see _int_keys).  verify_coloring meets a class's sumset keys with the
class's own keys and never builds the sumset's Intervals.  Fractions appear
only at the boundary: in the Intervals and values returned, and in a
witness's x0.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Iterable, Optional

from .equations import Color, ProblemSpec, SolutionWitness, Verdict, formula_continuous
from .serialize import exact_fraction, format_rational, parse_rational


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    __slots__ = ()

    def __new__(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = False) -> "Interval":
        lo, hi = exact_fraction(lo), exact_fraction(hi)
        if not (isinstance(lo_closed, bool) and isinstance(hi_closed, bool)):
            raise ValueError("closure flags must be booleans")
        self = tuple.__new__(cls, (lo, hi, lo_closed, hi_closed))
        if self._lo_key() > self._hi_key():
            raise ValueError(f"empty interval: {self}")
        return self

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


_lo = itemgetter(0)  # an Interval's lo, as a bisect key


class IntervalSet(namedtuple("IntervalSet", "intervals")):
    """Canonical finite union: sorted, pairwise disjoint, gaps genuine."""

    __slots__ = ()

    def __new__(cls, intervals: Iterable[Interval] = ()) -> "IntervalSet":
        intervals = tuple(intervals)
        for a, b in zip(intervals, intervals[1:]):
            if a._lo_key() > b._lo_key() or a._mergeable_with(b):
                raise ValueError("interval set not canonical; use normalize()")
        return tuple.__new__(cls, (intervals,))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = exact_fraction(x)
        idx = bisect.bisect_right(self.intervals, x, key=_lo)
        return idx > 0 and self.intervals[idx - 1].contains(x)

    __contains__ = contains

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """One sweep over both sets.  Each piece met is dropped once its upper
        end is passed; pieces of the result are separated by a gap of one set
        or the other, so they come out canonical."""
        pieces = []
        i = j = 0
        while i < len(self.intervals) and j < len(other.intervals):
            a, b = self.intervals[i], other.intervals[j]
            both = a.intersect(b)
            if both is not None:
                pieces.append(both)
            if a._hi_key() < b._hi_key():
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(pieces))

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


def _scale_of(a: IntervalSet, *extra: Fraction) -> int:
    """The lcm of the denominators of a's endpoints and of ``extra``."""
    ends = [x for iv in a.intervals for x in (iv.lo, iv.hi)]
    return math.lcm(*(x.denominator for x in ends + list(extra)))


def _int_keys(a: IntervalSet, scale: int) -> list[tuple[int, int]]:
    """Each interval of ``a`` as its int key pair (L, H) over ``scale``.

    With lo and hi scaled to ints, L = 2*lo + 1 if the lower end is open else
    2*lo, and H = 2*hi + 1 if the upper end is closed else 2*hi.  Comparing L's
    (or H's) orders the ends as the (value, epsilon) keys do; a scaled x is a
    member iff L <= 2x < H; and a later-starting interval merges with this one
    iff its L <= this H.
    """
    return [
        (2 * (iv.lo.numerator * (scale // iv.lo.denominator)) + (not iv.lo_closed),
         2 * (iv.hi.numerator * (scale // iv.hi.denominator)) + iv.hi_closed)
        for iv in a.intervals
    ]


def _add_keys(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """The key pair of the sum of two intervals: the scaled ends add, a lower
    end is open if either is, an upper end is closed only if both are."""
    return p[0] + q[0] - (p[0] & q[0] & 1), p[1] + q[1] - ((p[1] | q[1]) & 1)


def _m_fold_keys(keys: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """The key pairs of the m-fold sumset of the set whose canonical key pairs
    are ``keys``: m - 1 rounds of pairwise sums, merged after every round so
    the iterate stays small."""
    acc = keys
    for _ in range(m - 1):
        merged: list[tuple[int, int]] = []
        for lo, hi in sorted([_add_keys(p, q) for p in acc for q in keys]):
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        acc = merged
    return acc


def _twice_representative(lo: int, hi: int) -> int:
    """Twice the scaled representative of the interval with key pair (lo, hi),
    as Interval.representative picks it: the lower end if closed, else the
    upper end if closed, else the midpoint, whose double is the sum of the
    scaled ends."""
    return lo if not lo & 1 else hi - 1 if hi & 1 else (lo >> 1) + (hi >> 1)


def m_fold_sumset(a: IntervalSet, m: int) -> IntervalSet:
    """Range of x1 + ... + xm over the set.  The rounds run on int key pairs
    over the lcm of a's denominators (_m_fold_keys); Intervals are built once,
    at the end."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"need m >= 1, got {m!r}")
    scale = _scale_of(a)
    return IntervalSet(tuple(
        Interval(Fraction(lo >> 1, scale), Fraction(hi >> 1, scale), not lo & 1, bool(hi & 1))
        for lo, hi in _m_fold_keys(_int_keys(a, scale), m)
    ))


def _first_sum_member(a: IntervalSet, m: int) -> Optional[Fraction]:
    """The representative of the first piece of m_fold_sumset(a, m)
    intersected with a, or None if they are disjoint.

    The fold's key pairs meet a's in one sweep, as IntervalSet.intersect
    does: two pieces overlap iff the larger L is below the smaller H, and the
    piece whose H is smaller is passed.  Only the returned value is a Fraction.
    """
    scale = _scale_of(a)
    keys = _int_keys(a, scale)
    sums = _m_fold_keys(keys, m)
    i = j = 0
    while i < len(sums) and j < len(keys):
        (s_lo, s_hi), (a_lo, a_hi) = sums[i], keys[j]
        lo, hi = max(s_lo, a_lo), min(s_hi, a_hi)
        if lo < hi:
            return Fraction(_twice_representative(lo, hi), 2 * scale)
        if s_hi < a_hi:
            i += 1
        else:
            j += 1
    return None


def decompose_sum(a: IntervalSet, m: int, t) -> tuple[Fraction, ...]:
    """m members of the set summing exactly to t.

    Picks the first m-multiset of intervals (in index order) whose summed
    range contains t, then fixes values left to right: each value is the
    representative of the member interval intersected with what the remaining
    intervals can still absorb.  Deterministic, so witnesses are reproducible.
    Runs on int key pairs over the lcm of the denominators times 2^(m-1), at
    which every midpoint taken is an int; only the returned values are
    Fractions.
    """
    t = exact_fraction(t)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"need m >= 1, got {m!r}")
    scale = _scale_of(a, t) << (m - 1)
    keys = _int_keys(a, scale)
    twice_t = 2 * t.numerator * (scale // t.denominator)
    for combo in combinations_with_replacement(keys, m):
        total = combo[0]
        for key in combo[1:]:
            total = _add_keys(total, key)
        if total[0] <= twice_t < total[1]:
            break
    else:
        raise ValueError(f"{format_rational(t)} is not in the {m}-fold sumset")
    rests = list(combo[1:])  # rests[i]: the key pair of the sum of combo[i+1:]
    for i in range(m - 3, -1, -1):
        rests[i] = _add_keys(rests[i], rests[i + 1])
    values: list[int] = []
    for (lo, hi), (rest_lo, rest_hi) in zip(combo, rests):
        # the member interval meets {t - x : x in rest}, whose key pair is
        # (2t + 1 - rest_hi, 2t + 1 - rest_lo)
        lo, hi = max(lo, twice_t + 1 - rest_hi), min(hi, twice_t + 1 - rest_lo)
        assert lo < hi, "sum range contained t, so a slot must be feasible"
        v = _twice_representative(lo, hi) >> 1
        values.append(v)
        twice_t -= 2 * v
    lo, hi = combo[-1]
    assert lo <= twice_t < hi
    values.append(twice_t >> 1)
    return tuple(Fraction(v, scale) for v in values)


class ContinuousColoring(namedtuple("ContinuousColoring", "domain red blue")):
    """A true 2-partition of an interval domain into red and blue classes."""

    __slots__ = ()

    def __new__(cls, domain: Interval, red: IntervalSet, blue: IntervalSet) -> "ContinuousColoring":
        # Each class is canonical, so sorting both is one merge of two runs.
        # In that order two pieces meet iff some piece meets its successor,
        # and the pieces cover the domain iff each one abuts the next and the
        # ends match.  An overlap is reported ahead of a gap.
        pieces = sorted(red.intervals + blue.intervals, key=Interval._lo_key)
        covered = bool(pieces) and (
            pieces[0]._lo_key() == domain._lo_key()
            and pieces[-1]._hi_key() == domain._hi_key()
        )
        for a, b in zip(pieces, pieces[1:]):
            if b._lo_key() <= a._hi_key():
                raise ValueError("red and blue classes overlap")
            covered = covered and a._mergeable_with(b)
        if not covered:
            raise ValueError("red and blue classes do not partition the domain")
        return tuple.__new__(cls, (domain, red, blue))

    def class_of(self, color: Color) -> IntervalSet:
        return self.red if color is Color.RED else self.blue


def verify_coloring(coloring: ContinuousColoring, spec: ProblemSpec) -> Verdict:
    """Valid iff neither class's m-fold sumset meets the class itself.

    The sumset and the class meet on int keys (_first_sum_member); a nonempty
    overlap yields a concrete witness through decompose_sum.  The partition
    invariant is enforced by the ContinuousColoring constructor, so only the
    domain precondition is checked here.
    """
    if coloring.domain.lo < spec.gamma:
        raise ValueError("coloring domain starts below gamma")
    for color in (Color.RED, Color.BLUE):
        cls = coloring.class_of(color)
        if cls.is_empty:
            continue
        x0 = _first_sum_member(cls, spec.arity(color))
        if x0 is not None:
            values = decompose_sum(cls, spec.arity(color), x0)
            return Verdict(SolutionWitness.from_values(color, values, x0))
    return Verdict()


def lower_bound_coloring(spec: ProblemSpec) -> ContinuousColoring:
    """The extremal two-block coloring of [gamma, S), S = ``formula_continuous``:
    red on [gamma, gamma*k) and [gamma*kl, S), blue between them.

    Red sums of k small reds land in the blue block; any red sum using the
    high block overshoots the domain; blue sums of l mid values land at or
    beyond gamma*kl where red has taken over.
    """
    g, k, l = spec.gamma, spec.k, spec.l
    s = formula_continuous(k, l, g)
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
    s = formula_continuous(k, l, g)
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
