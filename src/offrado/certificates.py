"""Forcing-chain certificates for upper bounds: the hand-built chains and the
automatic prover, assembled by ``certify_upper``.

A certificate's document is the decoded JSON that ``certify-upper --out``
writes: a dict of ``spec``, ``domain_end`` and ``root``, the pair of branch
nodes, where a node is a dict of ``assume``, ``steps`` and either
``contradiction`` or ``children``.  The builders write that form and no
other, and check nothing themselves.  ``certify_upper`` never returns
unchecked output: it runs the schema pass and the replay of
``offrado.checker`` once, on the document it assembled, and returns the
tuples it read with the document, so what users get is what was checked.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import groupby
from typing import Iterable, NamedTuple, Optional

from .checker import CertificateCheck, certificate_from_json, check_certificate
from .equations import Color, ProblemSpec, SolutionWitness, formula_continuous
from .propagation import Satisfiable, SumsetHandle, SumsetSystem, dpll
from .serialize import exact_fraction, format_ratio, format_rational


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


def _node(
    point: str,
    color: Color,
    steps: Iterable[tuple],
    contradiction: Optional[dict],
    children: Optional[list] = None,
) -> dict:
    """A branch node in its file form, from its assumption, its steps as
    (point, forced color, witness), and how it ends: a contradiction witness,
    or else ``children``, the list its two children go into.  Points are
    rational strings and witnesses are in their file form already."""
    node = {
        "assume": {"point": point, "color": color.value},
        "steps": [{"point": p, "forced": forced.value, "witness": w} for p, forced, w in steps],
    }
    if contradiction is not None:
        node["contradiction"] = contradiction
    else:
        node["children"] = children
    return node


def _document(spec: ProblemSpec, domain_end, root: list[dict]) -> dict:
    return {"spec": spec.as_json(), "domain_end": format_rational(domain_end), "root": root}


# ---------------------------------------------------------------------------
# Hand-built chains


class _ChainBuilder:
    """Executes a planned forcing chain against its own accumulated state.

    Plans are written for the generic parameter values; for small parameters
    the planned points can collide (the same value forced twice, or a point
    that is already the other color).  A step whose point already has the
    target color is skipped; a step whose point already carries the witness's
    color short-circuits the branch, because that witness is then fully
    monochromatic.  Nothing here checks a witness: a short-circuit is sound
    because ``certify_upper``'s check of the assembled document confirms it.
    """

    def __init__(self, point, color: Color):
        self.point = exact_fraction(point)
        self.color = color
        self.state: dict[Fraction, Color] = {self.point: color}
        self.steps: list[tuple] = []  # (point, forced color, witness)
        self.contradiction: Optional[SolutionWitness] = None

    @property
    def closed(self) -> bool:
        return self.contradiction is not None

    def force(self, point, forced: Color, witness: SolutionWitness) -> None:
        if self.closed:
            return
        point = exact_fraction(point)
        current = self.state.get(point)
        if current is forced:
            return
        if current is not None:  # already the witness color: monochromatic now
            self.contradiction = witness
            return
        self.steps.append((point, forced, witness))
        self.state[point] = forced

    def close(self, witness: SolutionWitness) -> None:
        if not self.closed:
            self.contradiction = witness

    def node(self) -> dict:
        if not self.closed:
            raise RuntimeError("chain did not reach a contradiction")
        steps = [(format_rational(p), forced, w.as_json()) for p, forced, w in self.steps]
        return _node(format_rational(self.point), self.color, steps, self.contradiction.as_json())


def _w(color: Color, pairs: Iterable[tuple], x0) -> SolutionWitness:
    kept = tuple((exact_fraction(v), m) for v, m in pairs if m != 0)
    return SolutionWitness(color, kept, exact_fraction(x0))


def build_k2_certificate(l: int) -> dict:
    """Both branches for k = 2 on the closed domain [1, 2l+1], as a document.

    The red-start branch walks 2, 2l, 2l+1, 2l-1 and then pins 3/2 and 5/2
    red through solutions that use each of them twice, ending in the red
    solution 1 + 3/2 = 5/2; the blue-start branch stays on integers.
    """
    if not isinstance(l, int) or l < 2:
        raise ValueError(f"need an integer l >= 2, got {l!r}")
    spec = ProblemSpec(2, l)
    half3, half5 = Fraction(3, 2), Fraction(5, 2)

    red = _ChainBuilder(1, Color.RED)
    red.force(2, Color.BLUE, _w(Color.RED, [(1, 2)], 2))
    red.force(2 * l, Color.RED, _w(Color.BLUE, [(2, l)], 2 * l))
    red.force(2 * l + 1, Color.BLUE, _w(Color.RED, [(1, 1), (2 * l, 1)], 2 * l + 1))
    red.force(2 * l - 1, Color.BLUE, _w(Color.RED, [(1, 1), (2 * l - 1, 1)], 2 * l))
    red.force(half3, Color.RED, _w(Color.BLUE, [(2, l - 2), (half3, 2)], 2 * l - 1))
    red.force(half5, Color.RED, _w(Color.BLUE, [(2, l - 2), (half5, 2)], 2 * l + 1))
    red.close(_w(Color.RED, [(1, 1), (half3, 1)], half5))

    blue = _ChainBuilder(1, Color.BLUE)
    blue.force(l, Color.RED, _w(Color.BLUE, [(1, l)], l))
    blue.force(2 * l, Color.BLUE, _w(Color.RED, [(l, 2)], 2 * l))
    blue.force(2, Color.RED, _w(Color.BLUE, [(2, l)], 2 * l))
    blue.force(4, Color.BLUE, _w(Color.RED, [(2, 2)], 4))
    blue.force(l + 2, Color.BLUE, _w(Color.RED, [(2, 1), (l, 1)], l + 2))
    blue.force(3, Color.RED, _w(Color.BLUE, [(1, l - 1), (3, 1)], l + 2))
    blue.force(l + 3, Color.RED, _w(Color.BLUE, [(1, l - 1), (4, 1)], l + 3))
    blue.close(_w(Color.RED, [(3, 1), (l, 1)], l + 3))

    return _document(spec, formula_continuous(2, l), [red.node(), blue.node()])


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
    chain.force(l, Color.RED, _w(Color.BLUE, [(1, l)], l))
    chain.force(k * l, Color.BLUE, _w(Color.RED, [(l, k)], k * l))
    chain.force(k, Color.RED, _w(Color.BLUE, [(k, l)], k * l))
    chain.force(
        l + 1, Color.RED, _w(Color.BLUE, [(1, l - k + 1), (l + 1, k - 1)], k * l)
    )
    chain.force(
        params.mixed_sum,
        Color.BLUE,
        _w(Color.RED, [(k, k - params.mix_count), (l, params.mix_count)], params.mixed_sum),
    )
    if params.residue == 0:
        chain.close(_w(Color.BLUE, [(1, l - 1), (params.mixed_sum, 1)], k * l))
    else:
        chain.force(
            2,
            Color.RED,
            _w(
                Color.BLUE,
                [(1, l - params.residue - 1), (2, params.residue), (params.mixed_sum, 1)],
                k * l,
            ),
        )
        chain.force(2 * k, Color.BLUE, _w(Color.RED, [(2, k)], 2 * k))
        chain.force(
            2 * k + l - 1, Color.BLUE, _w(Color.RED, [(2, k - 1), (l + 1, 1)], 2 * k + l - 1)
        )
        chain.close(_w(Color.BLUE, [(1, l - 1), (2 * k, 1)], 2 * k + l - 1))

    return chain.node()


# ---------------------------------------------------------------------------
# Automatic prover


def _grid_system(spec: ProblemSpec, denominator: int) -> SumsetSystem:
    """The propagation geometry of the 1/d grid of [1, S], S from
    ``formula_continuous``: ids d..S*d, where id p stands for the value p/d."""
    top = int(formula_continuous(spec.k, spec.l) * denominator)
    return SumsetSystem(spec.k, spec.l, denominator, top)


def _witness_json(handle: SumsetHandle, d: int) -> dict:
    """``SolutionWitness.as_json`` of the handle's solution on the 1/d grid:
    its sorted ids come from ``SumsetHandle.parts``, and each run of equal
    ids is one [value, count] pair."""
    parts = handle.parts()
    return {
        "color": handle.color.value,
        "left": [[format_ratio(p, d), len(list(run))] for p, run in groupby(parts)],
        "x0": format_ratio(sum(parts), d),
    }


def _branch_node(nodes: list[tuple], d: int) -> dict:
    """The file form of a DPLL refutation on the 1/d grid, from its nodes in
    pre-order: ``open_lists[level]`` is the list that the next node at that
    level goes into, so one loop nests them.  It is written from ids alone,
    each witness from the handle's mask, so no ``Fraction`` is built."""
    open_lists: list[list[dict]] = [[]]
    for level, var, color, forcings, conflict in nodes:
        steps = [(format_ratio(v, d), h.color.opposite, _witness_json(h, d)) for v, h in forcings]
        point = format_ratio(var, d)
        if conflict is not None:
            open_lists[level].append(_node(point, color, steps, _witness_json(conflict, d)))
        else:
            children: list[dict] = []
            open_lists[level].append(_node(point, color, steps, None, children))
            open_lists[level + 1:] = [children]
    return open_lists[0][0]


def auto_prove(
    spec: ProblemSpec, grid_denominator: int, color: Color, max_branch_depth: int = 64
) -> Optional[dict]:
    """Search for a closing branch tree below "the left endpoint 1 is
    ``color``" on the 1/d grid of [1, kl+k-1].

    The search is ``propagation.dpll`` over grid ids, with unit forcing
    read from sumsets by ``propagate_masks`` as in the discrete search, at
    most ``max_branch_depth`` splits deep.  Returns the branch's node, in its
    file form and unchecked, nested from the search's flat pre-order nodes,
    or None on depth exhaustion; raises ``Satisfiable`` as soon as some
    branch completes a valid total grid coloring, since then no refutation
    can exist.
    """
    if spec.gamma != 1:
        raise ValueError("the grid prover runs on the unit domain")
    if not isinstance(grid_denominator, int) or grid_denominator < 1:
        raise ValueError(f"need a positive integer denominator, got {grid_denominator!r}")
    if not isinstance(max_branch_depth, int) or max_branch_depth < 0:
        raise ValueError(f"need a non-negative integer depth, got {max_branch_depth!r}")
    d = grid_denominator  # id d stands for the left endpoint d/d = 1
    nodes = dpll(_grid_system(spec, d), d, color, max_branch_depth, Counter())
    return None if nodes is None else _branch_node(nodes, d)


def certify_upper(
    spec: ProblemSpec, grid_denominator: Optional[int] = None, max_depth: int = 64
) -> tuple[dict, list[tuple]]:
    """Assemble the full branch-on-the-endpoint certificate, check it once,
    and return its document, which ``certify-upper --out`` writes, with the
    node tuples that check read (see ``checker._read_nodes``).

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
        read_spec, end, nodes = certificate_from_json(certificate)
    except ValueError as exc:
        raise RuntimeError(f"certificate failed its own check: {exc}") from exc
    check = check_certificate(read_spec, end, nodes)
    if not check.ok:
        raise RuntimeError(f"certificate failed its own check: {check.failure}")
    return certificate, nodes


def verify_certificate(doc) -> CertificateCheck:
    """Read a certificate document and replay every branch in exact
    arithmetic; a document that breaks the schema raises ValueError."""
    return check_certificate(*certificate_from_json(doc))
