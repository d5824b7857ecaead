"""The integer clause generator, the bitmask unit-propagation kernel and the
one DPLL loop above it, shared by the discrete search and the grid prover.

Variables are numerator ids: id p stands for the value p/d.  The integers
{1..n} are d = 1 with ids 1..n; the 1/d grid of [1, e] is ids d..e*d.  Over
one denominator x1 + ... + xm = x0 reads p1 + ... + pm = p0, so a single
generator on plain ints serves both.  A clause keeps one solution's left-hand
ids and x0 id, plus the bitmask of its distinct ids.  The kernel hands back
the clauses themselves for its forcings and conflicts; a clause's exact
``SolutionWitness`` is built on demand, only for a conflict or forcing step a
caller emits or a hit it reports, so the hot loops never touch a Fraction.

A clause of color c states "not every entry is colored c": once all entries
but one are c and that one is free, the free entry is forced to the opposite
color; once every entry is c the clause is a monochromatic solution and the
state is in conflict.  Assignments are a pair of bitmasks (red, blue), so the
three clause states are single mask operations, and backtracking is free
because masks are passed by value.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .equations import Color, SolutionWitness


class Clause(NamedTuple):
    color: Color
    left: tuple[int, ...]
    x0: int
    mask: int

    def witness(self, denominator: int = 1) -> SolutionWitness:
        """The exact solution, reading id p as the value p/denominator."""
        return SolutionWitness.from_values(
            self.color,
            [Fraction(p, denominator) for p in self.left],
            Fraction(self.x0, denominator),
        )


def _prefixes(m: int, top: int, left: tuple, mask: int, p: int, total: int):
    """The first m-1 entries of each solution extending ``left``, in lexicographic
    order, with their mask, least next id and sum.  Module-level, because as a
    nested closure this recursion is a reference cycle per call."""
    remaining = m - len(left)
    if remaining == 1:
        yield left, mask, p, total
        return
    while total + p * remaining <= top:
        yield from _prefixes(m, top, left + (p,), mask | 1 << p, p, total + p)
        p += 1


def solution_clauses(color: Color, m: int, lo: int, top: int) -> Iterator[Clause]:
    """Every solution p1 <= ... <= pm with p1 >= lo and x0 = p1 + ... + pm <= top,
    once each, lazily, in lexicographic order of (p1, ..., pm).

    Because the order is lexicographic, the clauses with x0 <= t come out in
    the same relative order for every top >= t.
    """
    for left, mask, p, total in _prefixes(m, top, (), 0, lo, 0):
        while total + p <= top:
            yield Clause(color, left + (p,), total + p, mask | 1 << p | 1 << (total + p))
            p += 1


def rado_clauses(k: int, l: int, lo: int, top: int) -> list[Clause]:
    """The red k-clauses, then the blue l-clauses, on ids lo..top."""
    return [*solution_clauses(Color.RED, k, lo, top), *solution_clauses(Color.BLUE, l, lo, top)]


class ClauseSystem:
    """Immutable per-variable occurrence index: ``by_var[v]`` holds the clauses
    whose mask has bit v, in clause order, for ids 0..nvars-1."""

    def __init__(self, nvars: int, clauses: list[Clause]):
        by_var: list[list[Clause]] = [[] for _ in range(nvars)]
        for clause in clauses:
            for v in {*clause.left, clause.x0}:
                by_var[v].append(clause)
        self.by_var = tuple(map(tuple, by_var))


def propagate_masks(
    system: ClauseSystem, red: int, blue: int, pending: list[int]
) -> tuple[int, int, list[tuple[int, Clause]], Optional[Clause]]:
    """Run unit forcing to fixpoint from the given assignment.

    ``pending`` seeds the worklist with variables whose assignment is news to
    the clause store.  Returns (red, blue, forcings, conflict): ``forcings``
    lists (variable, clause) in the order applied, each variable taking the
    opposite of its clause's color; ``conflict`` is a monochromatic clause, or
    None.  Forcings already applied stay applied on conflict, which callers
    treat as a dead state anyway.
    """
    forcings: list[tuple[int, Clause]] = []
    queue = list(pending)
    by_var = system.by_var
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for clause in by_var[v]:
            own, other = (red, blue) if clause.color is Color.RED else (blue, red)
            em = clause.mask
            if em & other:
                continue  # some entry has the opposite color: satisfied forever
            free = em & ~own
            if free == 0:
                return red, blue, forcings, clause
            if free & (free - 1) == 0:  # exactly one entry undecided
                if clause.color is Color.RED:
                    blue |= free
                else:
                    red |= free
                forcings.append((free.bit_length() - 1, clause))
                queue.append(free.bit_length() - 1)
    return red, blue, forcings, None


class Refutation(NamedTuple):
    """A closed DPLL branch: ``var`` took ``color`` and ``forcings`` followed,
    as (id, clause) pairs; it ends in the monochromatic clause ``conflict`` or
    in ``children``, the red and the blue split of the lowest free id.  Ids are
    not values yet: callers build the witnesses on their own denominator."""

    var: int
    color: Color
    forcings: list[tuple[int, Clause]]
    conflict: Optional[Clause]
    children: Optional[tuple["Refutation", "Refutation"]]


class Satisfiable(Exception):
    """A branch reached a total conflict-free assignment, so no refutation
    exists; ``args`` are its (red, blue) masks."""


def dpll(
    system: ClauseSystem, var: int, color: Color, red: int, blue: int,
    pending: list[int], domain: int, depth: int, effort: Counter,
) -> Optional[Refutation]:
    """Assume ``var`` is ``color``, propagate the ``pending`` ids, then split on
    the lowest free id of the ``domain`` mask, red first, at most ``depth``
    splits deep.  ``effort`` counts "nodes" (one per assumption) and "forcings".

    Returns the refutation tree, or None when ``depth`` splits are not enough.
    Raises Satisfiable at the first total assignment of ``domain``.
    """
    bit = 1 << var
    red, blue = (red | bit, blue) if color is Color.RED else (red, blue | bit)
    red, blue, forcings, conflict = propagate_masks(system, red, blue, pending)
    effort["nodes"] += 1
    effort["forcings"] += len(forcings)
    if conflict is not None:
        return Refutation(var, color, forcings, conflict, None)
    free = domain & ~(red | blue)
    if free == 0:
        raise Satisfiable(red, blue)
    if depth <= 0:
        return None
    split = (free & -free).bit_length() - 1
    first = dpll(system, split, Color.RED, red, blue, [split], domain, depth - 1, effort)
    if first is None:
        return None
    second = dpll(system, split, Color.BLUE, red, blue, [split], domain, depth - 1, effort)
    if second is None:
        return None
    return Refutation(var, color, forcings, None, (first, second))
