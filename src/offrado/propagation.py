"""The integer clause generator, the unit-propagation kernel and the one DPLL
loop above it, shared by the discrete search and the grid prover.

Variables are numerator ids: id p stands for the value p/d.  The integers
{1..n} are d = 1 with ids 1..n; the 1/d grid of [1, e] is ids d..e*d.  Over
one denominator x1 + ... + xm = x0 reads p1 + ... + pm = p0, so a single
generator on plain ints serves both.  A clause keeps one solution's left-hand
ids and x0 id, plus the bitmask of its distinct ids.

A clause of color c states "not every entry is colored c": once all entries
but one are c and that one is free, the free entry is forced to the opposite
color; once every entry is c the clause is a monochromatic solution and the
state is in conflict.  Assignments are a pair of bitmasks (red, blue), and
backtracking is free because masks are passed by value, so ``dpll`` keeps its
open branches on an explicit stack, not the interpreter's.

``propagate_masks`` lists no clause: the clauses of color c are exactly the
solutions, so unit forcing is read from the m-fold sumsets of c's own mask
on a ``SumsetSystem``.  Every command runs on it.  It hands back handles for
its forcings and conflicts, and a handle is decoded only on demand, by
``SumsetHandle.parts``, into the sorted ids of its least solution: the
certificate writer formats those ids as "p/d" strings, so neither the hot
loops nor the emitted steps touch a Fraction.  ``least_parts`` decodes the
least solution inside a mask; the discrete re-check's own sumsets give its
verdict, and it only names the witness with it.  ``ClauseSystem`` indexes a
listed clause set and propagates over it; it is the reference the
kernel-equivalence test compares against, and no command runs it.
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
    """The red k-clauses, then the blue l-clauses, on ids lo..top: the input
    of the reference ``ClauseSystem``; no command lists them."""
    return [*solution_clauses(Color.RED, k, lo, top), *solution_clauses(Color.BLUE, l, lo, top)]


class ClauseSystem:
    """The reference kernel: an immutable per-variable occurrence index,
    ``by_var[v]`` holding the clauses whose mask has bit v, in clause order,
    for ids 0..nvars-1, and unit propagation that visits it.  The
    kernel-equivalence test compares ``propagate_masks`` against it; no
    command runs it."""

    def __init__(self, nvars: int, clauses: list[Clause]):
        by_var: list[list[Clause]] = [[] for _ in range(nvars)]
        for clause in clauses:
            for v in {*clause.left, clause.x0}:
                by_var[v].append(clause)
        self.by_var = tuple(map(tuple, by_var))

    def propagate(
        self, red: int, blue: int, pending: list[int]
    ) -> tuple[int, int, list[tuple[int, Clause]], Optional[Clause]]:
        """Run unit forcing to fixpoint with ``propagate_masks``'s contract,
        visiting the clauses of each ``pending`` and each forced id in turn;
        forcings and the conflict carry clauses where it carries handles."""
        forcings: list[tuple[int, Clause]] = []
        queue = list(pending)
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for clause in self.by_var[v]:
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


def _ids(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _sumset_layers(own: int, m: int, limit: int) -> list[int]:
    """[L_0, ..., L_m]: bit s of L_j is set when s is a sum of j ids of
    ``own``, repeats allowed, so L_0 = {0} and L_j = L_{j-1} + own; every
    layer is cut to the bits of ``limit``."""
    parts = _ids(own)
    layers = [1]
    for _ in range(m):
        prev, acc = layers[-1], 0
        for p in parts:
            acc |= prev << p
        layers.append(acc & limit)
    return layers


def _forced(layers: list[int], own: int, free: int, m: int) -> int:
    """The free ids y that complete a solution whose other entries all lie in
    ``own``: as x0 (y in L_m), or as j of the m parts with the other m - j in
    ``own`` and x0 = j*y + s in ``own`` for some s in L_{m-j}."""
    forced = layers[m] & free
    last = own.bit_length() - 1
    for y in _ids(free & ~forced):
        for j in range(1, m + 1):
            if j * y > last:
                break
            if layers[m - j] << j * y & own:
                forced |= 1 << y
                break
    return forced


def least_parts(own: int, r: int) -> Optional[tuple[int, ...]]:
    """The least sorted r-tuple of ids of ``own`` whose sum is also in
    ``own``, or None, found by walking back down the sumset layers: each part
    is the least id of ``own`` from which the rest can still hit ``own``, so
    it is the first solution inside ``own`` in ``solution_clauses`` order."""
    layers = _sumset_layers(own, r, (1 << own.bit_length()) - 1)
    if not layers[r] & own:
        return None
    ids = _ids(own)
    parts: list[int] = []
    total, at = 0, 0
    for rest in range(r - 1, -1, -1):
        while not layers[rest] << (total + ids[at]) & own:
            at += 1
        parts.append(ids[at])
        total += ids[at]
    return tuple(parts)


class SumsetHandle(NamedTuple):
    """A forcing or a conflict of ``propagate_masks``, decoded only on demand.

    It stands for the least solution of ``color``'s ``arity``-variable
    equation, in ``solution_clauses`` order, inside the mask ``own``, with
    ``var`` added for a forcing (None for a conflict).  ``propagate_masks``
    reads a color's conflict before its forcings, so a forcing's ``own``
    holds no solution by itself: every solution inside ``own | 1 << var``
    contains ``var``.
    """

    color: Color
    arity: int
    own: int
    var: Optional[int]

    def parts(self) -> tuple[int, ...]:
        """The sorted left-hand ids of the solution; x0 is their sum."""
        own = self.own if self.var is None else self.own | 1 << self.var
        return least_parts(own, self.arity)


class SumsetSystem:
    """The geometry of the red k-clauses and blue l-clauses on ids lo..top,
    which ``propagate_masks`` reads from sumsets of the color masks instead
    of from a clause list: ``domain`` is the mask of ids lo..top, ``limit``
    that of ids 0..top."""

    def __init__(self, k: int, l: int, lo: int, top: int):
        self.k, self.l = k, l
        self.domain = (1 << (top + 1)) - (1 << lo)
        self.limit = (1 << (top + 1)) - 1


def propagate_masks(
    system: SumsetSystem, red: int, blue: int, pending: list[int]
) -> tuple[int, int, list[tuple[int, SumsetHandle]], Optional[SumsetHandle]]:
    """Run unit forcing to fixpoint, in rounds, from the given assignment.

    For a color with own mask A and arity m, with L_j the j-fold sumset of A
    cut to top, the state is in conflict iff A meets L_m, and a free y is
    forced to the other color iff y is in L_m or (L_{m-j} << j*y) meets A for
    some 1 <= j <= m.  These are exactly the conflicts and unit clauses of
    ``rado_clauses(k, l, lo, top)``.

    Only a color that holds a ``pending`` id is read in the first round:
    the rest of the assignment is taken to be closed already.  Each round
    applies every forcing of the colors whose masks changed; a point forced
    both ways goes blue, so the next round reads the blue conflict.  Returns
    (red, blue, forcings, conflict): ``forcings`` lists (id, handle) in the
    order applied, each id taking the opposite of its handle's color;
    ``conflict`` is a monochromatic handle, or None.
    """
    forcings: list[tuple[int, SumsetHandle]] = []
    stale_red = stale_blue = False
    for v in pending:
        if red >> v & 1:
            stale_red = True
        else:
            stale_blue = True
    while stale_red or stale_blue:
        free = system.domain & ~(red | blue)
        to_blue = to_red = 0
        if stale_red:
            layers = _sumset_layers(red, system.k, system.limit)
            if layers[system.k] & red:
                return red, blue, forcings, SumsetHandle(Color.RED, system.k, red, None)
            to_blue = _forced(layers, red, free, system.k)
        if stale_blue:
            layers = _sumset_layers(blue, system.l, system.limit)
            if layers[system.l] & blue:
                return red, blue, forcings, SumsetHandle(Color.BLUE, system.l, blue, None)
            to_red = _forced(layers, blue, free, system.l) & ~to_blue
        forcings += [(y, SumsetHandle(Color.RED, system.k, red, y)) for y in _ids(to_blue)]
        forcings += [(y, SumsetHandle(Color.BLUE, system.l, blue, y)) for y in _ids(to_red)]
        red |= to_red
        blue |= to_blue
        stale_red, stale_blue = to_red != 0, to_blue != 0
    return red, blue, forcings, None


class Satisfiable(Exception):
    """A branch reached a total conflict-free assignment, so no refutation
    exists; ``args`` are its (red, blue) masks."""


def dpll(
    system: SumsetSystem, var: int, color: Color, depth: int, effort: Counter
) -> Optional[list[tuple]]:
    """Assume ``var`` is ``color`` on an empty assignment, propagate with
    ``propagate_masks``, then split on the lowest free id of
    ``system.domain``, red first, at most ``depth`` splits deep.  ``effort``
    counts "nodes" (one per assumption) and "forcings".

    Returns the refutation as its nodes in pre-order, red child first, each
    (level, var, color, forcings, conflict) with forcings as (id, handle)
    pairs; a node whose ``conflict`` is None is followed by its two children.
    Returns None when ``depth`` splits are not enough.  Raises Satisfiable at
    the first total assignment of the domain.
    """
    nodes: list[tuple] = []
    stack = [(0, var, color, 0, 0)]
    while stack:
        level, var, color, red, blue = stack.pop()
        bit = 1 << var
        red, blue = (red | bit, blue) if color is Color.RED else (red, blue | bit)
        red, blue, forcings, conflict = propagate_masks(system, red, blue, [var])
        effort["nodes"] += 1
        effort["forcings"] += len(forcings)
        nodes.append((level, var, color, forcings, conflict))
        if conflict is not None:
            continue
        free = system.domain & ~(red | blue)
        if free == 0:
            raise Satisfiable(red, blue)
        if level >= depth:
            return None
        split = (free & -free).bit_length() - 1
        stack.append((level + 1, split, Color.BLUE, red, blue))  # below red: red closes first
        stack.append((level + 1, split, Color.RED, red, blue))
    return nodes
