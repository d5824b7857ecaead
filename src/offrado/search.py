"""Exact discrete Rado numbers over {1..n} by propagation-driven search.

The search is ``propagation.dpll`` on a ``SumsetSystem``: lowest uncolored
integer first, red before blue, so extremal colorings and node counts are
reproducible.  Unit forcing is read from the m-fold sumsets of each color
class, so no searched n lists its clauses.  A ``DiscreteColoring`` holds the
kernel's own (red, blue) bitmasks, bit i for the integer i, so models,
re-checks and propagation pass masks without converting.  Two checks share no
inference code with the search: ``is_valid_discrete`` decides a coloring with
its own shift-OR sumsets, ``_sums_hit``, and only names the witness of a hit
with ``propagation.least_parts``; a bit-sliced sweep over all 2^n colorings,
on plain ints, serves as the independent oracle (and as the
``--no-propagation`` mode).
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from functools import reduce
from operator import and_, or_
from typing import Iterator, NamedTuple, Optional

from .equations import (
    Color,
    ProblemSpec,
    SolutionWitness,
    Verdict,
    formula_discrete,
)
from .propagation import Satisfiable, SumsetSystem, dpll, least_parts, solution_clauses

BRUTE_FORCE_LIMIT = 26  # 2^n sweep; past this the oracle mode refuses rather than hangs
# Candidates per sweep int, a power of two: wider ints cost more per AND,
# narrower ones mean more chunks and more high-bit groups per chunk.
_SWEEP_CHUNK = 1 << 16


def _points(n: int) -> int:
    """The bitmask of {1..n}: bit i stands for the integer i."""
    return (1 << (n + 1)) - 2


def _point(value, n: int) -> Optional[int]:
    """The integer of {1..n} that ``value`` equals, an int or an equal
    non-int such as 2.0, else None.  One ``int()`` per value: no set of the
    range is built, and no ``range`` is scanned, as it is for a non-int."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == value and 1 <= i <= n else None


def _members(mask: int) -> list[int]:
    """The set bits of a non-negative ``mask``, ascending, read from one
    ``bin`` string: linear in its length, where a shift per bit is not."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


class DiscreteColoring(namedtuple("DiscreteColoring", "n red blue")):
    """Assignment on {1..n} as the kernel's bitmasks: bit i of ``red`` (of
    ``blue``) means the integer i is red (blue).  A point in neither mask is
    uncolored, as while searching."""

    __slots__ = ()

    def __new__(cls, n: int, red: int, blue: int) -> "DiscreteColoring":
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if red & blue:
            raise ValueError("red and blue sets overlap")
        if (red | blue) & ~_points(n):
            raise ValueError("sets must lie in {1..n}")
        return tuple.__new__(cls, (n, red, blue))

    @classmethod
    def from_sets(cls, n: int, red, blue) -> "DiscreteColoring":
        red, blue = set(red), set(blue)
        bits = {x: _point(x, n) for x in red | blue}
        if None in bits.values():
            raise ValueError("sets must lie in {1..n}")
        return cls(n, sum(1 << bits[x] for x in red), sum(1 << bits[x] for x in blue))

    @property
    def is_total(self) -> bool:
        return self.red | self.blue == _points(self.n)

    def values_of(self, color: Color) -> tuple[int, ...]:
        return tuple(_members(self.red if color is Color.RED else self.blue))

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "red": list(self.values_of(Color.RED)),
            "blue": list(self.values_of(Color.BLUE)),
        }

    @classmethod
    def from_json(cls, obj) -> "DiscreteColoring":
        if not isinstance(obj, dict) or obj.keys() != {"n", "red", "blue"}:
            raise ValueError("coloring object must carry exactly n, red, blue")
        n, red, blue = obj["n"], obj["red"], obj["blue"]
        # a JSON true or 5.0 would pass isinstance(x, int) or the range check
        if not (isinstance(red, list) and isinstance(blue, list)) or any(
            type(x) is not int for x in (n, *red, *blue)
        ):
            raise ValueError("coloring n and members must be JSON integers")
        return cls.from_sets(n, red, blue)


class SearchStats(NamedTuple):
    nodes_explored: int
    propagations: int
    elapsed_seconds: float

    def as_json(self) -> dict:
        return self._asdict()


class SearchReport(NamedTuple):
    spec: ProblemSpec
    value: Optional[int]
    extremal: Optional[DiscreteColoring]
    stats: SearchStats
    formula_value: int
    max_n: int
    scan: Optional[tuple[tuple[int, bool], ...]] = None

    @property
    def formula_mismatch(self) -> bool:
        return self.value is not None and self.value != self.formula_value

    def as_json(self) -> dict:
        out = {
            "spec": self.spec.as_json(),
            "value": self.value,
            "extremal": self.extremal.as_json() if self.extremal else None,
            "stats": self.stats.as_json(),
            "formula_value": self.formula_value,
            "formula_mismatch": self.formula_mismatch,
            "max_n": self.max_n,
        }
        if self.scan is not None:
            out["scan"] = [{"n": n, "colorable": ok} for n, ok in self.scan]
        return out


def enumerate_solutions(m: int, n: int, color: Color = Color.RED) -> Iterator[SolutionWitness]:
    """Every multiset {x1 <= ... <= xm} in {1..n} with x0 = sum <= n, once each,
    in lexicographic multiset order."""
    if not (isinstance(m, int) and m >= 1 and isinstance(n, int) and n >= 1):
        raise ValueError(f"need m >= 1 and n >= 1, got m={m!r}, n={n!r}")
    for clause in solution_clauses(color, m, 1, n):
        yield clause.witness()


def _system(k: int, l: int, n: int) -> SumsetSystem:
    return SumsetSystem(k, l, 1, n)


def _sums_hit(own: int, m: int, n: int) -> bool:
    """Whether some m members of the mask ``own`` (repeats allowed) sum to a
    member.  Bit s of ``sums`` is set when j members sum to s; each round
    shift-ORs it by every member and cuts it at n.  Written apart from
    ``propagation``'s layers, so the re-check shares no code with the kernel."""
    members = _members(own)
    cut = (1 << (n + 1)) - 1
    sums = 1
    for _ in range(m):
        sums = reduce(or_, (sums << x for x in members), 0) & cut
        if not sums:
            return False
    return bool(sums & own)


def is_valid_discrete(coloring: DiscreteColoring, spec: ProblemSpec) -> Verdict:
    """WitnessFound on the first all-red k-solution or all-blue l-solution,
    in enumeration order (red stream first); Valid otherwise.

    The verdict is ``_sums_hit``'s, m-fold sums of each color mask on plain
    ints.  Only the name of the witness, for the first color with a hit,
    comes from ``least_parts``: the least solution inside that color's mask,
    the first in enumeration order.
    """
    if not coloring.is_total:
        raise ValueError("coloring must be total")
    for color, own in ((Color.RED, coloring.red), (Color.BLUE, coloring.blue)):
        m = spec.arity(color)
        if _sums_hit(own, m, coloring.n):
            parts = least_parts(own, m)
            if parts is None:
                raise RuntimeError("sumsets and least_parts disagree")
            return Verdict(SolutionWitness.from_values(color, parts, sum(parts)))
    return Verdict()


def _bit_slices(width_log: int) -> list[int]:
    """Slice j of a chunk of 2^width_log candidates: bit t set iff bit j of t is."""
    slices = []
    for j in range(width_log):
        run = 1 << j
        pattern, size = ((1 << run) - 1) << run, 2 * run
        while size < 1 << width_log:
            pattern |= pattern << size
            size *= 2
        slices.append(pattern)
    return slices


def brute_force_colorable(n: int, spec: ProblemSpec) -> Optional[DiscreteColoring]:
    """Oracle: sweep all 2^n total colorings, one chunk of candidates per int.

    Bit i-1 of a candidate means integer i is red.  A chunk is the
    ``_SWEEP_CHUNK`` candidates (all 2^n if fewer) that share their high bits,
    the prefix; bit t of a chunk int stands for the candidate with low bits t.
    A red clause whose high bits are all red in the chunk removes the
    candidates whose low bits of its mask are all red (the AND of those
    ``_bit_slices``); a blue clause with no high bit red keeps only the
    candidates with some low bit of its mask red (the OR).  Clauses with the
    same high bits are combined once per call.  Exact integer bit arithmetic
    throughout; returns the lexicographically least valid coloring (by red
    bitmask), the lowest survivor of the first chunk that has one, or None.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is capped at n={BRUTE_FORCE_LIMIT}; use propagation")
    low = min(n, _SWEEP_CHUNK.bit_length() - 1)
    slices = _bit_slices(low)
    chunk = (1 << (1 << low)) - 1
    low_bits = (1 << low) - 1

    def low_slices(clause):
        # one slice per set bit of the clause's low bits, lowest bit first
        bits, out = clause.mask >> 1 & low_bits, []
        while bits:
            out.append(slices[(bits & -bits).bit_length() - 1])
            bits &= bits - 1
        return out

    cleared: dict[int, int] = {}  # high bits -> candidates a red clause makes monochromatic
    for clause in solution_clauses(Color.RED, spec.k, 1, n):
        high = clause.mask >> (low + 1)
        cleared[high] = cleared.get(high, 0) | reduce(and_, low_slices(clause), chunk)
    kept: dict[int, int] = {}  # high bits -> candidates every blue clause leaves some red
    for clause in solution_clauses(Color.BLUE, spec.l, 1, n):
        high = clause.mask >> (low + 1)
        kept[high] = kept.get(high, chunk) & reduce(or_, low_slices(clause), 0)
    for prefix in range(1 << (n - low)):
        survivors = chunk
        for high, bad in cleared.items():
            if high & prefix == high:
                survivors &= ~bad
        for high, good in kept.items():
            if not high & prefix:
                survivors &= good
        if survivors:
            red = ((prefix << low) + (survivors & -survivors).bit_length() - 1) << 1
            return DiscreteColoring(n, red, _points(n) & ~red)
    return None


def search_valid(
    n: int,
    spec: ProblemSpec,
    propagation: bool = True,
    effort: Optional[Counter] = None,
) -> Optional[DiscreteColoring]:
    """A valid total coloring of {1..n}, or None.

    Runs ``propagation.dpll`` from 1 = red, then from 1 = blue, and returns
    the first model; ``dpll`` adds its node and forcing counts into
    ``effort``, and its refutations, flat node lists, are dropped.  With
    propagation disabled this delegates to the brute-force sweep, which
    shares no inference code and serves as the independent oracle, and
    counts its 2^n candidates as nodes.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if effort is None:
        effort = Counter()
    if not propagation:
        effort["nodes"] += 1 << n
        return brute_force_colorable(n, spec)

    system = _system(spec.k, spec.l, n)
    try:
        for color in (Color.RED, Color.BLUE):
            dpll(system, 1, color, n, effort)
    except Satisfiable as model:
        return DiscreteColoring(n, *model.args)
    return None


def compute_rado(
    spec: ProblemSpec,
    max_n: Optional[int] = None,
    propagation: bool = True,
    scan: bool = False,
) -> SearchReport:
    """Least n <= cap whose colorings all contain a monochromatic solution.

    Colorability is downward closed: a valid coloring of {1..n+1}, restricted
    to {1..n}, is still valid, because every solution inside {1..n} lies
    inside {1..n+1}.  So the colorable n are 1..v-1 and the value is v: a
    colorable v-1 and an uncolorable v decide it, whatever any other n does.

    The search starts at the formula value f (at the cap, if that is lower).
    When the formula holds, f is uncolorable and f-1 colorable: two searches.
    Otherwise it gallops away from f, to f-1, f-3, f-7, ... while the n stay
    uncolorable, or to f+1, f+3, f+7, ... while they stay colorable, within
    [1, cap]; then it bisects between the largest colorable n and the least
    uncolorable n seen.  By downward closure every n below a colorable one is
    colorable and every n above an uncolorable one is not, so each step drops
    only n whose answer is already known, and the result is the scan's.  If
    the cap is colorable the value is unproved (None).

    The extremal witness is the model ``search_valid`` returns at v-1, which
    depends on that n alone, so it is the scan's too; it is re-checked
    independently of the search.  The formula value is compared, never
    trusted: a mismatch is reported as data.  With ``scan`` the search walks
    n = 1, 2, ... to the cap instead and records every n.
    """
    formula = formula_discrete(spec.k, spec.l)
    cap = max_n if max_n is not None else formula + 5
    if cap < 1:
        raise ValueError("cap must be at least 1")
    effort: Counter = Counter()
    started = time.perf_counter()
    records: list[tuple[int, bool]] = []
    # colorable at lo (0: no points), uncolorable at hi (cap + 1: none seen);
    # below is the coloring found at lo
    lo, hi, below = 0, cap + 1, None
    if scan:
        for n in range(1, cap + 1):
            found = search_valid(n, spec, propagation=propagation, effort=effort)
            records.append((n, found is not None))
            if found is None:
                hi = min(hi, n)
            elif n < hi:
                lo, below = n, found
    else:
        n, step, up, galloping = min(formula, cap), 1, None, True
        while hi - lo > 1:
            found = search_valid(n, spec, propagation=propagation, effort=effort)
            if found is None:
                hi = n
            else:
                lo, below = n, found
            if up is None:  # the first answer sets the gallop's direction
                up = found is not None
            galloping = galloping and (found is not None) is up
            if galloping:
                n = min(n + step, cap) if up else max(n - step, 1)
                step *= 2
            else:
                n = (lo + hi) // 2
    stats = SearchStats(effort["nodes"], effort["forcings"], time.perf_counter() - started)
    value = hi if hi <= cap else None
    extremal = below if value is not None else None

    if value is not None and value > 1:
        if extremal is None or not is_valid_discrete(extremal, spec).is_valid:
            raise RuntimeError("extremal coloring failed its independent re-check")
    return SearchReport(
        spec=spec,
        value=value,
        extremal=extremal,
        stats=stats,
        formula_value=formula,
        max_n=cap,
        scan=tuple(records) if scan else None,
    )
