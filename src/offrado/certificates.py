"""Forcing-chain certificates for upper bounds: the hand-built chains and the
automatic prover, assembled by ``certify_upper``.

A certificate's document is the decoded JSON that ``certify-upper --out``
writes: a dict of ``spec``, ``domain_end`` and ``root``, the pair of branch
nodes, where a node is a dict of ``assume``, ``steps`` and either
``contradiction`` or ``children``.  Every branch is planned on the integer
ids of its own 1/d grid (id p is p/d) and handed, in ``dpll``'s flat
pre-order node form with every witness a ``_Plan`` of (id, count) runs, to
``_branch_node``, the one writer of that form, so no ``Fraction`` is built
for a node or a witness.  The hand-built chains are written as planned.  An
auto-proved refutation is first cut to its dependency cone by ``_trim``, one
backward pass that keeps a forcing only when a contradiction below it
depends on it, and that decodes each kept witness once and no other.  The
builders check nothing themselves.  ``certify_upper`` never returns
unchecked output: it runs the schema pass and the replay of
``offrado.checker`` once, on the document it assembled, and returns the
tuples it read with the document, so what users get is what was checked.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from typing import NamedTuple, Optional

from .checker import CertificateCheck, Tree, certificate_from_json, check_certificate
from .equations import Color, ProblemSpec, formula_continuous
from .propagation import Satisfiable, SumsetHandle, SumsetSystem, dpll
from .serialize import format_ratio, format_rational


class UnprovedError(Exception):
    """The automatic prover found no closing chain for a branch: the 1/d grid
    has a valid coloring with that branch's assumption (``colorable`` is
    True), or the search ran out of depth (False).  Explicitly not a bug."""

    def __init__(
        self, spec: ProblemSpec, branch: str, denominator: int, depth: int, colorable: bool
    ):
        self.spec = spec
        self.branch = branch
        self.denominator = denominator
        self.depth = depth
        self.colorable = colorable
        what = f"no closing chain for the {branch} branch of (k={spec.k}, l={spec.l})"
        if colorable:
            why = f": the 1/{denominator} grid has a valid coloring with 1 = {branch}"
        else:
            why = f" on the 1/{denominator} grid within depth {depth}"
        super().__init__(what + why)


# ---------------------------------------------------------------------------
# The file form


def _document(spec: ProblemSpec, domain_end, root: list[dict]) -> dict:
    return {"spec": spec.as_json(), "domain_end": format_rational(domain_end), "root": root}


def _witness_json(w: _Plan, d: int) -> dict:
    """A planned witness's file form: one [value, count] pair per run and
    x0 their sum, each id p written as p/d in lowest terms."""
    return {
        "color": w.color.value,
        "left": [[format_ratio(p, d), m] for p, m in w.runs],
        "x0": format_ratio(sum(p * m for p, m in w.runs), d),
    }


def _branch_node(nodes: list[tuple], d: int) -> dict:
    """The file form of a refutation on the 1/d grid, and the only writer of
    a node, from nodes in ``dpll``'s pre-order form (level, var, color,
    forcings, conflict), each witness a ``_Plan``: ``open_lists[level]`` is
    the list that the next node at that level goes into, so one loop nests
    them.  A forced point takes the opposite of its witness's color.
    Everything is written from ids, so no ``Fraction`` is built."""
    open_lists: list[list[dict]] = [[]]
    for level, var, color, forcings, conflict in nodes:
        steps = [
            {"point": format_ratio(v, d), "forced": w.color.opposite.value, "witness": _witness_json(w, d)}
            for v, w in forcings
        ]
        node = {"assume": {"point": format_ratio(var, d), "color": color.value}, "steps": steps}
        if conflict is not None:
            node["contradiction"] = _witness_json(conflict, d)
        else:
            node["children"] = children = []
            open_lists[level + 1:] = [children]
        open_lists[level].append(node)
    return open_lists[0][0]


# ---------------------------------------------------------------------------
# Hand-built chains


class _Plan:
    """A planned witness: its color and its left side as (id, count) runs,
    one per id, sorted, and without zero counts; a count is never expanded
    into ids."""

    __slots__ = ("color", "runs")

    def __init__(self, color: Color, runs: list[tuple[int, int]]) -> None:
        self.color, self.runs = color, runs


class _ChainBuilder:
    """Executes a forcing chain planned on the ids of its own grid against
    its own accumulated state.  A witness is planned as (id, count) runs of
    its left side; x0 is their sum, and a forcing's witness has the color
    opposite to the forced one.

    Plans are written for the generic parameter values; for small parameters
    the planned ids can collide (the same id forced twice, or an id that is
    already the other color).  A step whose id already has the target color
    is skipped; a step whose id already carries the witness's color
    short-circuits the branch, because that witness is then fully
    monochromatic.  Nothing here checks a witness: a short-circuit is sound
    because ``certify_upper``'s check of the assembled document confirms it.
    """

    def __init__(self, var: int, color: Color):
        self.var, self.color = var, color
        self.state: dict[int, Color] = {var: color}
        self.forcings: list[tuple[int, _Plan]] = []
        self.conflict: Optional[_Plan] = None

    def force(self, var: int, forced: Color, *runs: tuple) -> None:
        current = self.state.get(var)
        if self.conflict is not None or current is forced:
            return
        witness = self._plan(forced.opposite, runs)
        if current is not None:  # already the witness color: monochromatic now
            self.conflict = witness
            return
        self.forcings.append((var, witness))
        self.state[var] = forced

    def close(self, color: Color, *runs: tuple) -> None:
        if self.conflict is None:
            self.conflict = self._plan(color, runs)

    @staticmethod
    def _plan(color: Color, runs: tuple) -> _Plan:
        """A hand-planned witness: its runs can collide or carry a zero
        count, so they are merged by id here."""
        counts: Counter = Counter()
        for p, m in runs:
            counts[p] += m
        return _Plan(color, sorted((p, m) for p, m in counts.items() if m))

    def node(self, d: int) -> dict:
        """The chain as one leaf on the 1/d grid, written by ``_branch_node``."""
        if self.conflict is None:
            raise RuntimeError("chain did not reach a contradiction")
        return _branch_node([(0, self.var, self.color, self.forcings, self.conflict)], d)


def build_k2_certificate(l: int) -> dict:
    """Both branches for k = 2 on the closed domain [1, 2l+1], as a document.

    The red-start branch walks 2, 2l, 2l+1, 2l-1 and then pins 3/2 and 5/2
    red through solutions that use each of them twice, ending in the red
    solution 1 + 3/2 = 5/2; it is planned on halves, id p for p/2.  The
    blue-start branch stays on integers.
    """
    if not isinstance(l, int) or l < 2:
        raise ValueError(f"need an integer l >= 2, got {l!r}")
    spec = ProblemSpec(2, l)

    red = _ChainBuilder(2, Color.RED)
    red.force(4, Color.BLUE, (2, 2))
    red.force(4 * l, Color.RED, (4, l))
    red.force(4 * l + 2, Color.BLUE, (2, 1), (4 * l, 1))
    red.force(4 * l - 2, Color.BLUE, (2, 1), (4 * l - 2, 1))
    red.force(3, Color.RED, (4, l - 2), (3, 2))
    red.force(5, Color.RED, (4, l - 2), (5, 2))
    red.close(Color.RED, (2, 1), (3, 1))

    blue = _ChainBuilder(1, Color.BLUE)
    blue.force(l, Color.RED, (1, l))
    blue.force(2 * l, Color.BLUE, (l, 2))
    blue.force(2, Color.RED, (2, l))
    blue.force(4, Color.BLUE, (2, 2))
    blue.force(l + 2, Color.BLUE, (2, 1), (l, 1))
    blue.force(3, Color.RED, (1, l - 1), (3, 1))
    blue.force(l + 3, Color.RED, (1, l - 1), (4, 1))
    blue.close(Color.RED, (3, 1), (l, 1))

    return _document(spec, formula_continuous(2, l), [red.node(2), blue.node(1)])


class ResidueParams(NamedTuple):
    """Arithmetic behind the mixed solution that drives the blue-start chain.

    With gap = l - k, residue is the least nonnegative value congruent to
    1 - k modulo gap; mix_count entries of the red equation then take the
    value l (the rest take k) so that the sum, mixed_sum, leaves exactly the
    right room modulo the gap for the closing blue solutions.
    """

    k: int
    l: int
    gap: int
    residue: int
    mix_count: int
    mixed_sum: int


def residue_params(k: int, l: int) -> ResidueParams:
    if not (isinstance(k, int) and isinstance(l, int) and 2 <= k < l):
        raise ValueError(f"need integers 2 <= k < l, got k={k!r}, l={l!r}")
    gap = l - k
    residue = (1 - k) % gap
    quotient, leftover = divmod(1 - k - residue, gap)
    if leftover:
        raise AssertionError("residue choice guarantees divisibility")
    mix_count = k - 1 + quotient
    mixed_sum = k * k + (gap - 1) * (k - 1) - residue
    if not 0 <= mix_count <= k:
        raise AssertionError(f"mix count {mix_count} escaped [0, {k}]")
    if (k - mix_count) * k + mix_count * l != mixed_sum:
        raise AssertionError("mixed solution arithmetic out of tune")
    return ResidueParams(k, l, gap, residue, mix_count, mixed_sum)


def build_blue1_certificate(spec: ProblemSpec) -> dict:
    """The node of the branch assuming the left endpoint blue, for 3 <= k < l.

    Forces l, k, l+1 red and kl blue, then forces the mixed sum blue.  When
    the residue vanishes the chain is already contradictory; otherwise 2 goes
    red, 2k and 2k+l-1 go blue, and 1 + ... + 1 + 2k = 2k+l-1 closes all blue.
    """
    k, l = spec.k, spec.l
    if not 3 <= k < l:
        raise ValueError(f"need 3 <= k < l, got k={k}, l={l}")
    if spec.gamma != 1:
        raise ValueError("certificates are built on the unit domain")
    params = residue_params(k, l)

    chain = _ChainBuilder(1, Color.BLUE)
    chain.force(l, Color.RED, (1, l))
    chain.force(k * l, Color.BLUE, (l, k))
    chain.force(k, Color.RED, (k, l))
    chain.force(l + 1, Color.RED, (1, l - k + 1), (l + 1, k - 1))
    chain.force(params.mixed_sum, Color.BLUE, (k, k - params.mix_count), (l, params.mix_count))
    if params.residue == 0:
        chain.close(Color.BLUE, (1, l - 1), (params.mixed_sum, 1))
    else:
        chain.force(
            2, Color.RED, (1, l - params.residue - 1), (2, params.residue), (params.mixed_sum, 1)
        )
        chain.force(2 * k, Color.BLUE, (2, k))
        chain.force(2 * k + l - 1, Color.BLUE, (2, k - 1), (l + 1, 1))
        chain.close(Color.BLUE, (1, l - 1), (2 * k, 1))

    return chain.node(1)


# ---------------------------------------------------------------------------
# Automatic prover


def _grid_system(spec: ProblemSpec, denominator: int) -> SumsetSystem:
    """The propagation geometry of the 1/d grid of [1, S], S from
    ``formula_continuous``: ids d..S*d, where id p stands for the value p/d."""
    top = int(formula_continuous(spec.k, spec.l) * denominator)
    return SumsetSystem(spec.k, spec.l, denominator, top)


def _decoded(handle: SumsetHandle) -> tuple[_Plan, set[int]]:
    """A handle's witness, decoded once: its plan, and its entries, the
    distinct ids of its left side and its x0.  The parts come sorted, so
    ``groupby`` leaves one run per id."""
    parts = handle.parts()
    plan = _Plan(handle.color, [(p, len(list(run))) for p, run in groupby(parts)])
    return plan, {*parts, sum(parts)}


def _trim(nodes: list[tuple]) -> list[tuple]:
    """A refutation from ``dpll`` cut to its dependency cone, in the same
    pre-order node form, with each kept witness a ``_Plan``.

    One backward pass: a node's ``need`` starts as its contradiction's
    entries, or as the union of what its two children passed up.  Its
    forcings are walked from last to first, and one is kept only if its id
    is in ``need``; a kept one's witness is decoded, and its entries less
    the forced id join ``need``.  The node's own assumption leaves ``need``
    and the rest goes to its parent.  The replay then sees a subset of the
    colored points, and every entry it checks was colored by a kept step or
    an assumption above it, so the trimmed refutation replays wherever the
    whole one does.  A forcing that is dropped is never decoded.
    """
    trimmed: list[tuple] = []
    passed: list[set[int]] = []  # the needs of the subtrees walked, first child's on top
    for level, var, color, forcings, conflict in reversed(nodes):
        if conflict is None:
            plan, need = None, passed.pop() | passed.pop()
        else:
            plan, need = _decoded(conflict)
        kept = []
        for v, handle in reversed(forcings):
            if v in need:
                witness, entries = _decoded(handle)
                need |= entries
                need.discard(v)
                kept.append((v, witness))
        kept.reverse()
        need.discard(var)
        passed.append(need)
        trimmed.append((level, var, color, kept, plan))
    trimmed.reverse()
    return trimmed


def auto_prove(
    spec: ProblemSpec, grid_denominator: int, color: Color, max_branch_depth: int = 64
) -> Optional[dict]:
    """Search for a closing branch tree below "the left endpoint 1 is
    ``color``" on the 1/d grid of [1, kl+k-1].

    The search is ``propagation.dpll`` over grid ids, with unit forcing
    read from sumsets by ``propagate_masks`` as in the discrete search, at
    most ``max_branch_depth`` splits deep.  Returns the branch's node, in its
    file form and unchecked: the search's flat pre-order nodes, cut by
    ``_trim`` to the forcings that some contradiction below them depends on,
    then nested.  Returns None on depth exhaustion; raises ``Satisfiable`` as
    soon as some branch completes a valid total grid coloring, since then no
    refutation can exist.
    """
    if spec.gamma != 1:
        raise ValueError("the grid prover runs on the unit domain")
    if not isinstance(grid_denominator, int) or grid_denominator < 1:
        raise ValueError(f"need a positive integer denominator, got {grid_denominator!r}")
    if not isinstance(max_branch_depth, int) or max_branch_depth < 0:
        raise ValueError(f"need a non-negative integer depth, got {max_branch_depth!r}")
    d = grid_denominator  # id d stands for the left endpoint d/d = 1
    nodes = dpll(_grid_system(spec, d), d, color, max_branch_depth, Counter())
    return None if nodes is None else _branch_node(_trim(nodes), d)


def certify_upper(
    spec: ProblemSpec, grid_denominator: Optional[int] = None, max_depth: int = 64
) -> tuple[dict, Tree]:
    """Assemble the full branch-on-the-endpoint certificate, check it once,
    and return its document, which ``certify-upper --out`` writes, with the
    ``Tree`` that check read (see ``checker._read_nodes``).

    With ``grid_denominator`` None, the default assembly: k=2 uses the
    hand-built half-step chains; k < l pairs the built blue-start branch with
    an auto-proved red branch on the integer grid; the diagonal k = l >= 3
    auto-proves both branches.  With an integer d every branch is searched on
    the 1/d grid instead.  Raises UnprovedError when a search finds a valid
    grid coloring or exhausts its depth, and RuntimeError when the document
    breaks the schema or fails the replay: that is an internal fault, never
    the ValueError of invalid input.
    """
    if spec.gamma != 1:
        raise ValueError("certificates are built on the unit domain")
    if not isinstance(max_depth, int) or max_depth < 0:
        raise ValueError(f"need a non-negative integer depth, got {max_depth!r}")
    built = grid_denominator is None
    d = 1 if built else grid_denominator

    def auto(color: Color) -> dict:
        try:
            node = auto_prove(spec, d, color, max_depth)
        except Satisfiable:
            raise UnprovedError(spec, color.value, d, max_depth, colorable=True) from None
        if node is None:
            raise UnprovedError(spec, color.value, d, max_depth, colorable=False)
        return node

    if built and spec.k == 2:
        certificate = build_k2_certificate(spec.l)
    else:
        red = auto(Color.RED)
        blue = build_blue1_certificate(spec) if built and spec.k < spec.l else auto(Color.BLUE)
        certificate = _document(spec, formula_continuous(spec.k, spec.l), [red, blue])
    try:
        read_spec, end, tree = certificate_from_json(certificate)
    except ValueError as exc:
        raise RuntimeError(f"certificate failed its own check: {exc}") from exc
    check = check_certificate(read_spec, end, tree)
    if not check.ok:
        raise RuntimeError(f"certificate failed its own check: {check.failure}")
    return certificate, tree


def verify_certificate(doc) -> CertificateCheck:
    """Read a certificate document and replay every branch in exact
    arithmetic; a document that breaks the schema raises ValueError."""
    return check_certificate(*certificate_from_json(doc))
