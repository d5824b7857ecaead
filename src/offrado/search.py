"""Exact discrete Rado numbers over {1..n} by propagation-driven search.

The search is ``propagation.dpll`` on a ``SumsetSystem``: lowest uncolored
integer first, red before blue, so extremal colorings and node counts are
reproducible.  Unit forcing is read from the m-fold sumsets of each color
class, so no n of the scan lists its clauses.  A ``DiscreteColoring`` holds the
kernel's own (red, blue) bitmasks, bit i for the integer i, so models,
re-checks and propagation pass masks without converting.  Two checks share no
inference code with the search: ``is_valid_discrete`` re-checks a coloring
with plain set sums, and a bit-sliced sweep over all 2^n colorings, on plain
ints, serves as the independent oracle (and as the ``--no-propagation`` mode).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterator, Optional, Union

from .equations import (
    Color,
    ProblemSpec,
    SolutionWitness,
    Verdict,
    formula_discrete,
)
from .propagation import Satisfiable, SumsetSystem, dpll, propagate_masks, solution_clauses

BRUTE_FORCE_LIMIT = 26  # 2^n sweep; past this the oracle mode refuses rather than hangs
# Candidates per sweep int, a power of two: wider ints cost more per AND,
# narrower ones mean more chunks and more high-bit groups per chunk.
_SWEEP_CHUNK = 1 << 16


def _points(n: int) -> int:
    """The bitmask of {1..n}: bit i stands for the integer i."""
    return (1 << (n + 1)) - 2


@dataclass(frozen=True)
class DiscreteColoring:
    """Assignment on {1..n} as the kernel's bitmasks: bit i of ``red`` (of
    ``blue``) means the integer i is red (blue).  A point in neither mask is
    uncolored, as while searching."""

    n: int
    red: int
    blue: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"need n >= 0, got {self.n}")
        if self.red & self.blue:
            raise ValueError("red and blue sets overlap")
        if (self.red | self.blue) & ~_points(self.n):
            raise ValueError("sets must lie in {1..n}")

    @classmethod
    def empty(cls, n: int) -> "DiscreteColoring":
        return cls(n, 0, 0)

    @classmethod
    def from_sets(cls, n: int, red, blue) -> "DiscreteColoring":
        red, blue = set(red), set(blue)
        if red & blue:
            raise ValueError("red and blue sets overlap")
        if not red | blue <= set(range(1, n + 1)):
            raise ValueError("sets must lie in {1..n}")
        # the range check admits equal non-ints such as 2.0; int() gives their bit
        return cls(n, sum(1 << int(i) for i in red), sum(1 << int(i) for i in blue))

    @property
    def is_total(self) -> bool:
        return self.red | self.blue == _points(self.n)

    def color_of(self, i: int) -> Optional[Color]:
        if self.red >> i & 1:
            return Color.RED
        return Color.BLUE if self.blue >> i & 1 else None

    def values_of(self, color: Color) -> tuple[int, ...]:
        mask = self.red if color is Color.RED else self.blue
        return tuple(i for i in range(1, self.n + 1) if mask >> i & 1)

    def assign(self, i: int, color: Color) -> "DiscreteColoring":
        if not 1 <= i <= self.n:
            raise ValueError(f"{i} outside 1..{self.n}")
        bit = 1 << i
        if color is Color.RED:
            return DiscreteColoring(self.n, self.red | bit, self.blue & ~bit)
        return DiscreteColoring(self.n, self.red & ~bit, self.blue | bit)

    def swapped(self) -> "DiscreteColoring":
        return DiscreteColoring(self.n, self.blue, self.red)

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "red": list(self.values_of(Color.RED)),
            "blue": list(self.values_of(Color.BLUE)),
        }

    @classmethod
    def from_json(cls, obj) -> "DiscreteColoring":
        if not isinstance(obj, dict) or not {"n", "red", "blue"} <= set(obj):
            raise ValueError("coloring object must carry n, red, blue")
        n, red, blue = obj["n"], obj["red"], obj["blue"]
        # a JSON true or 5.0 would pass isinstance(x, int) or the range check
        if not (isinstance(red, list) and isinstance(blue, list)) or any(
            type(x) is not int for x in (n, *red, *blue)
        ):
            raise ValueError("coloring n and members must be JSON integers")
        return cls.from_sets(n, red, blue)


@dataclass(frozen=True)
class Conflict:
    """Propagation dead end: a solution went monochromatic under forced colors."""

    witness: SolutionWitness


@dataclass
class SearchStats:
    nodes_explored: int = 0
    propagations: int = 0
    elapsed_seconds: float = 0.0

    def as_json(self) -> dict:
        return {
            "nodes_explored": self.nodes_explored,
            "propagations": self.propagations,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass(frozen=True)
class SearchReport:
    spec: ProblemSpec
    value: Optional[int]
    extremal: Optional[DiscreteColoring]
    stats: SearchStats
    formula_value: int
    formula_mismatch: bool
    max_n: int
    scan: Optional[tuple[tuple[int, bool], ...]] = None

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


def _has_solution(members: set[int], m: int, n: int) -> bool:
    """Whether some m members of ``members`` (repeats allowed) sum to a member,
    by plain set sums: the re-check shares no code with the kernel."""
    sums = {0}
    for _ in range(m):
        sums = {s + x for s in sums for x in members if s + x <= n}
    return not sums.isdisjoint(members)


def is_valid_discrete(coloring: DiscreteColoring, spec: ProblemSpec) -> Verdict:
    """WitnessFound on the first all-red k-solution or all-blue l-solution,
    in enumeration order (red stream first); Valid otherwise.

    The verdict comes from m-fold sums of each color class as Python sets;
    only the first color with a hit has its solutions walked, lazily, to name
    the first witness.
    """
    if not coloring.is_total:
        raise ValueError("coloring must be total")
    for color, own in ((Color.RED, coloring.red), (Color.BLUE, coloring.blue)):
        m = spec.arity(color)
        if _has_solution(set(coloring.values_of(color)), m, coloring.n):
            for clause in solution_clauses(color, m, 1, coloring.n):
                if clause.mask & ~own == 0:
                    return Verdict(clause.witness())
            raise RuntimeError("set sums and solution enumeration disagree")
    return Verdict()


def propagate(
    coloring: DiscreteColoring, spec: ProblemSpec
) -> Union[DiscreteColoring, Conflict]:
    """Close the assignment under unit forcing.

    Any solution with every entry but one colored by its own equation's color
    forces the last entry to the opposite color; repeated to fixpoint.
    Conflict (a value, not an error) reports a monochromatic solution among
    colored entries, the least of its color.  A point forced both ways is
    colored blue, and the next round of forcing reports the conflict that
    makes.
    """
    system = _system(spec.k, spec.l, coloring.n)
    colored = coloring.red | coloring.blue
    pending = [i for i in range(1, coloring.n + 1) if colored >> i & 1]
    red, blue, _, conflict = propagate_masks(system, coloring.red, coloring.blue, pending)
    if conflict is not None:
        return Conflict(conflict.witness())
    return DiscreteColoring(coloring.n, red, blue)


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

    def low_slices(clause):
        return [slices[j] for j in range(low) if clause.mask >> (j + 1) & 1]

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
    stats: Optional[SearchStats] = None,
) -> Optional[DiscreteColoring]:
    """A valid total coloring of {1..n}, or None.

    Runs ``propagation.dpll`` from 1 = red, then from 1 = blue, and returns
    the first model; its node and forcing counts go to ``stats``.  With
    propagation disabled this delegates to the brute-force sweep, which
    shares no inference code and serves as the independent oracle.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if stats is None:
        stats = SearchStats()
    if not propagation:
        stats.nodes_explored += 1 << n
        return brute_force_colorable(n, spec)

    system = _system(spec.k, spec.l, n)
    effort: Counter = Counter()
    try:
        for color in (Color.RED, Color.BLUE):
            dpll(system, 1, color, 0, 0, [1], n, effort)
    except Satisfiable as model:
        return DiscreteColoring(n, *model.args)
    finally:
        stats.nodes_explored += effort["nodes"]
        stats.propagations += effort["forcings"]
    return None


def compute_rado(
    spec: ProblemSpec,
    max_n: Optional[int] = None,
    propagation: bool = True,
    scan: bool = False,
) -> SearchReport:
    """Least n whose colorings all contain a monochromatic solution.

    Scans n = 1, 2, ... and takes the first uncolorable n.  Colorability is
    downward closed: a valid coloring of {1..n+1}, restricted to {1..n}, is
    still valid, because every solution inside {1..n} lies inside {1..n+1}.
    So every n past the first uncolorable one is uncolorable too.  The
    preceding n's coloring is kept as the extremal witness and re-checked
    independently of the search.  The formula value is compared, never
    trusted: a mismatch is reported as data.  With ``scan`` the walk
    continues to the cap and records every n.
    """
    formula = formula_discrete(spec.k, spec.l)
    cap = max_n if max_n is not None else formula + 5
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stats = SearchStats()
    started = time.perf_counter()
    records: list[tuple[int, bool]] = []
    value: Optional[int] = None
    extremal = previous = None  # the coloring of value - 1, and of n - 1
    for n in range(1, cap + 1):
        found = search_valid(n, spec, propagation=propagation, stats=stats)
        records.append((n, found is not None))
        if found is None and value is None:
            value, extremal = n, previous
            if not scan:
                break
        previous = found
    stats.elapsed_seconds = time.perf_counter() - started

    if value is not None and value > 1:
        if extremal is None or not is_valid_discrete(extremal, spec).is_valid:
            raise RuntimeError("extremal coloring failed its independent re-check")
    return SearchReport(
        spec=spec,
        value=value,
        extremal=extremal,
        stats=stats,
        formula_value=formula,
        formula_mismatch=value is not None and value != formula,
        max_n=cap,
        scan=tuple(records) if scan else None,
    )
