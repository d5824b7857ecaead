"""Exact interval-set algebra over the rationals.

Endpoints carry closure flags because both kinds of domain occur: valid
colorings live on the half-open [gamma, S) while every upper-bound claim is
made over the closed [gamma, S].  Each end is ordered by a (value, flag) key
that names a cut of the line: (v, False) just below v, (v, True) just above
it.  An interval runs from its lower cut (lo, not lo_closed) to its upper cut
(hi, hi_closed), so each rule is one key comparison: x is a member iff
lo_key <= (x, False) < hi_key; an interval is empty iff lo_key >= hi_key; a
later-starting interval touches one iff its lo_key <= that one's hi_key; and
pieces tile a domain iff each starts at the cut where the one before it ends.

The sum of two intervals is closed at an endpoint only when both contributing
endpoints are closed; that rule is forced by set arithmetic, not a convention.

The hot loops run on plain ints: m_fold_sumset, decompose_sum and
verify_coloring scale the set once over one common denominator and fold each
key into the int 2 * value + flag (_int_keys).  Folded ints compare as the
key tuples do, so one merge (_merge) and one sweep (_meet) serve both.
verify_coloring meets a class's sumset keys with the class's own keys and
never builds the sumset's Intervals.  Fractions appear only at the boundary:
in the Intervals and values returned, and in a witness's x0.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .equations import Color, ProblemSpec, SolutionWitness, Verdict, formula_continuous
from .serialize import exact_fraction, format_rational, parse_rational


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    __slots__ = ()

    def __new__(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = False) -> "Interval":
        lo, hi = exact_fraction(lo), exact_fraction(hi)
        if not (isinstance(lo_closed, bool) and isinstance(hi_closed, bool)):
            raise ValueError("closure flags must be booleans")
        self = tuple.__new__(cls, (lo, hi, lo_closed, hi_closed))
        if self._lo_key() >= self._hi_key():
            raise ValueError(f"empty interval: {self}")
        return self

    @classmethod
    def point(cls, value) -> "Interval":
        return cls(value, value, True, True)

    def _lo_key(self) -> tuple[Fraction, bool]:
        """The lower cut: just below lo if the end is closed, else just above."""
        return (self.lo, not self.lo_closed)

    def _hi_key(self) -> tuple[Fraction, bool]:
        """The upper cut: just above hi if the end is closed, else just below."""
        return (self.hi, self.hi_closed)

    def contains(self, x) -> bool:
        return self._lo_key() <= (exact_fraction(x), False) < self._hi_key()

    __contains__ = contains

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        both = next(_meet([_keys(self)], [_keys(other)]), None)
        return None if both is None else _from_keys(*both)

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

    def __repr__(self) -> str:
        lo_bracket, hi_bracket = _CLOSURE_CODES[(self.lo_closed, self.hi_closed)]
        return f"{lo_bracket}{format_rational(self.lo)},{format_rational(self.hi)}{hi_bracket}"


def _keys(iv: Interval) -> tuple[tuple[Fraction, bool], tuple[Fraction, bool]]:
    return iv._lo_key(), iv._hi_key()


def _from_keys(lo_key: tuple, hi_key: tuple) -> Interval:
    """The Interval between two cuts, each a (value, flag) key.  Every caller
    passes the cuts of a nonempty piece, with Fraction values, merged or met
    from checked Intervals or from their folded keys, so Interval's checks
    are not run again."""
    return tuple.__new__(Interval, (lo_key[0], hi_key[0], not lo_key[1], bool(hi_key[1])))


def _merge(pairs: Iterable[tuple]) -> list[tuple]:
    """Sorted key pairs (L, H), as tuples or folded ints, merged into canonical
    ones: a pair whose L is at most the H before it touches that piece."""
    merged: list[tuple] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _meet(ps: list[tuple], qs: list[tuple]) -> Iterator[tuple]:
    """The overlaps of two canonical lists of key pairs, in order, in one
    sweep: two pieces overlap iff the larger L is below the smaller H, and the
    piece whose H is smaller is passed.  The overlaps are separated by a gap
    of one list or the other, so they come out canonical."""
    i = j = 0
    while i < len(ps) and j < len(qs):
        (p_lo, p_hi), (q_lo, q_hi) = ps[i], qs[j]
        lo, hi = max(p_lo, q_lo), min(p_hi, q_hi)
        if lo < hi:
            yield lo, hi
        if p_hi < q_hi:
            i += 1
        else:
            j += 1


_lo = itemgetter(0)  # an Interval's lo, as a bisect key


class IntervalSet(namedtuple("IntervalSet", "intervals")):
    """Canonical finite union: sorted, pairwise disjoint, gaps genuine."""

    __slots__ = ()

    def __new__(cls, intervals: Iterable[Interval] = ()) -> "IntervalSet":
        intervals = tuple(intervals)
        for a, b in zip(intervals, intervals[1:]):
            if a._hi_key() >= b._lo_key():
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
        """One sweep over both sets (_meet)."""
        meets = _meet(list(map(_keys, self.intervals)), list(map(_keys, other.intervals)))
        return IntervalSet(tuple(_from_keys(lo, hi) for lo, hi in meets))

    def scale(self, factor) -> "IntervalSet":
        return IntervalSet(tuple(iv.scale(factor) for iv in self.intervals))

    def __repr__(self) -> str:
        return "{" + " u ".join(map(repr, self.intervals)) + "}" if self.intervals else "{}"


def normalize(raw: Iterable[Interval]) -> IntervalSet:
    """Canonical form with the same membership predicate; idempotent."""
    return IntervalSet(tuple(_from_keys(lo, hi) for lo, hi in _merge(sorted(map(_keys, raw)))))


def _scale_of(a: IntervalSet, *extra: Fraction) -> int:
    """The lcm of the denominators of a's endpoints and of ``extra``."""
    ends = [x for iv in a.intervals for x in (iv.lo, iv.hi)]
    return math.lcm(*(x.denominator for x in ends + list(extra)))


def _fold(key: tuple[Fraction, bool], scale: int) -> int:
    """A (value, flag) key as one int over ``scale``: 2 * value * scale + flag."""
    value, flag = key
    return 2 * (value.numerator * (scale // value.denominator)) + flag


def _unfold(end: int, scale: int) -> tuple[Fraction, int]:
    """The (value, flag) key that _fold folded into ``end``."""
    return Fraction(end >> 1, scale), end & 1


def _int_keys(a: IntervalSet, scale: int) -> list[tuple[int, int]]:
    """Each interval of ``a`` as its int key pair (L, H) over ``scale``: its
    two (value, flag) keys folded.  The ints order the ends as the keys do,
    and a scaled x is a member iff L <= 2x < H."""
    return [(_fold(iv._lo_key(), scale), _fold(iv._hi_key(), scale)) for iv in a.intervals]


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
        acc = _merge(sorted([_add_keys(p, q) for p in acc for q in keys]))
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
        _from_keys(_unfold(lo, scale), _unfold(hi, scale))
        for lo, hi in _m_fold_keys(_int_keys(a, scale), m)
    ))


def _first_sum_member(a: IntervalSet, m: int) -> Optional[Fraction]:
    """The representative of the first piece of m_fold_sumset(a, m)
    intersected with a, or None if they are disjoint: the fold's key pairs
    meet a's in one sweep (_meet).  Only the returned value is a Fraction."""
    scale = _scale_of(a)
    keys = _int_keys(a, scale)
    first = next(_meet(_m_fold_keys(keys, m), keys), None)
    return None if first is None else Fraction(_twice_representative(*first), 2 * scale)


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
    twice_t = _fold((t, False), scale)
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
        # The pieces tile the domain iff each starts at the cut where the one
        # before it (first, the domain's start) ends, and the domain ends where
        # the last piece does.  A piece starting below that cut overlaps the
        # one before it; an overlap is reported ahead of a gap.
        pieces = sorted(red.intervals + blue.intervals, key=Interval._lo_key)
        ends = [domain._lo_key()] + [iv._hi_key() for iv in pieces]
        starts = [iv._lo_key() for iv in pieces] + [domain._hi_key()]
        if any(start < end for start, end in zip(starts[1:-1], ends[1:-1])):
            raise ValueError("red and blue classes overlap")
        if starts != ends:
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
