"""Machine-checkable forcing-chain certificates for upper bounds.

A certificate branches on the color of the left endpoint and closes every
branch with a monochromatic contradiction.  Each forcing step carries the
exact solution that justifies it.  The soundness rule is: every entry of the
step's witness OTHER than the forced point must already carry the witness's
color; the point itself may occur in the witness several times (a solution is
allowed to use the forced value twice), so the rule is deliberately not
"exactly one entry is unassigned".

Verification replays a certificate from nothing but its serialized content,
in exact arithmetic, and reports the branch path, step index, and violated
condition on failure.  ``certify_upper`` never returns unchecked output; the
branch builders are its parts and check nothing themselves.

A certificate has two forms.  Its document is the decoded JSON that
``certify-upper --out`` writes: a dict of ``spec``, ``domain_end`` and
``root``, the pair of branch nodes, where a node is a dict of ``assume``,
``steps`` and either ``contradiction`` or ``children``.  The builders write
that form and no other.  ``certificate_from_json`` is the one schema pass over
a document: it parses each distinct literal once, into the point's reduced
(numerator, denominator) key, and returns the checker's form, plain tuples.
``check_certificate`` runs the one replay over those tuples, which checks each
witness on integers over the lcm of its own denominators, never over a scale
common to the file, which an untrusted file could inflate, and puts every
colored point on an undo trail, unwound at each split instead of copying the
state.  ``certify_upper`` runs that schema pass and that replay once, on the
document it assembled, and returns the tuples it read with the document, so
what users get is what was checked.  Every walk over a branch tree uses
an explicit stack, so certificate depth is bounded by memory, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .equations import Color, ProblemSpec, SolutionWitness
from .propagation import Satisfiable, SumsetSystem, dpll
from .serialize import exact_fraction, format_rational, parse_rational

Key = tuple[int, int]  # a point's reduced (numerator, denominator)


class CheckFailure(NamedTuple):
    path: tuple[str, ...]
    step_index: Optional[int]
    reason: str


class CertificateCheck(NamedTuple):
    """A certificate verifies iff no step failed."""

    failure: Optional[CheckFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


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


def _fail(path: tuple[str, ...], step: Optional[int], reason: str) -> CertificateCheck:
    return CertificateCheck(CheckFailure(path, step, reason))


def _branch_label(point: Fraction, color: Color) -> str:
    return f"{format_rational(point)}={color.value}"


def _key(point: Fraction) -> Key:
    return point.numerator, point.denominator


def _witness_failure(
    w: tuple, arity: tuple[int, int], bounds: tuple, state: dict, point: Optional[Key] = None
) -> Optional[str]:
    """Why a witness tuple fails, or None; a step's witness names the point
    it forces, a contradiction names none.

    Everything is checked on integers: what ``check_witness`` decides (the
    arity, the sum over the lcm of this witness's own denominators, and
    every value >= gamma), then every value <= the domain end, then that each
    entry but the forced point already has the witness's color.
    """
    gn, gd, en, ed = bounds
    color, left, (xn, xd) = w
    scale = lcm(xd, *[d for (_, d), _ in left])
    total = count = 0
    sound = gn * xd <= xn * gd
    inside = xn * ed <= en * xd
    for (n, d), m in left:
        total += m * n * (scale // d)
        count += m
        sound = sound and gn * d <= n * gd
        inside = inside and n * ed <= en * d
    what = "contradiction" if point is None else "witness"
    if not (sound and count == arity[color is Color.BLUE] and total == xn * (scale // xd)):
        return f"{what} fails arithmetic, arity, or domain-start check"
    if not inside:
        return f"{what} uses a value beyond the domain end"
    support = {(xn, xd), *[p for p, _ in left]}
    if point is not None and point not in support:
        return "forced point does not occur in its witness"
    bad = {p for p in support if p != point and state.get(p) is not color}
    if not bad:
        return None
    # the entry named is the first in ascending order, x0 last
    in_left = [Fraction(*p) for p, _ in left if p in bad]
    entry = format_rational(min(in_left) if in_left else Fraction(*bad.pop()))
    if point is not None:
        return f"entry {entry} is not already colored {color.value}"
    return f"contradiction entry {entry} is not colored {color.value}"


def _replay(spec: ProblemSpec, domain_end: Fraction, nodes: list) -> CertificateCheck:
    """Replay node tuples in their pre-order, every root from no colored
    point.  Every point the replay colors goes on an undo trail, and entering
    a node unwinds the trail to the length it had at its parent's split."""
    bounds = gn, gd, en, ed = (*_key(spec.gamma), *_key(domain_end))
    arity = spec.k, spec.l
    state: dict[Key, Color] = {}
    trail: list[Key] = []
    marks = [0]  # marks[t]: the trail length that a node at depth t starts from
    chain: list[tuple] = []  # the nodes from a root down to the current one

    def fail(step: Optional[int], reason: str) -> CertificateCheck:
        return _fail(tuple(_branch_label(Fraction(*n[1]), n[2]) for n in chain), step, reason)

    for node in nodes:
        depth, key, color, steps, contradiction, kids = node
        while len(trail) > marks[depth]:
            del state[trail.pop()]
        del chain[depth:]
        chain.append(node)
        n, d = key
        if not (gn * d <= n * gd and n * ed <= en * d):
            return fail(None, "assumption point outside the domain")
        if key in state:
            return fail(None, "assumption point already colored")
        state[key] = color
        trail.append(key)

        for index, (point, forced, w) in enumerate(steps):
            if w[0] is not forced.opposite:
                return fail(index, "witness color must oppose the forced color")
            reason = _witness_failure(w, arity, bounds, state, point)
            if reason:
                return fail(index, reason)
            if point in state:
                return fail(index, "forced point already colored")
            state[point] = forced
            trail.append(point)

        if contradiction is not None:
            reason = _witness_failure(contradiction, arity, bounds, state)
            if reason:
                return fail(None, reason)
            continue

        first, second = nodes[kids[0]], nodes[kids[1]]
        if first[1] != second[1]:
            return fail(None, "children must split the same point")
        if first[2] is second[2]:
            return fail(None, "children must assume opposite colors")
        if first[1] in state:
            return fail(None, "split point already colored")
        del marks[depth + 1:]
        marks.append(len(trail))
    return CertificateCheck()


def check_certificate(spec: ProblemSpec, domain_end: Fraction, nodes: list) -> CertificateCheck:
    """Check a whole certificate's node tuples: both roots assume the left
    endpoint, in opposite colors, and every branch replays."""
    first, second = (node for node in nodes if node[0] == 0)
    if {first[1], second[1]} != {_key(spec.gamma)}:
        return _fail((), None, "root must branch on the left endpoint")
    if first[2] is second[2]:
        return _fail((), None, "root branches must assume opposite colors")
    return _replay(spec, domain_end, nodes)


def verify_certificate(doc) -> CertificateCheck:
    """Read a certificate document and replay every branch in exact
    arithmetic; a document that breaks the schema raises ValueError."""
    return check_certificate(*certificate_from_json(doc))


def certificate_stats(nodes: list) -> dict:
    """Branch count and step count of the schema pass's node tuples."""
    return {"branches": len(nodes), "steps": sum(len(node[3]) for node in nodes)}


def points_used(nodes: list) -> list[str]:
    """Every point the node tuples color, ascending, as rational strings."""
    points: set[Key] = set()
    for _, point, _, steps, _, _ in nodes:
        points.add(point)
        points.update(step[0] for step in steps)
    return [format_rational(p) for p in sorted(Fraction(*p) for p in points)]


# ---------------------------------------------------------------------------
# The file form


def _node(
    point: Fraction,
    color: Color,
    steps: Iterable[tuple],
    contradiction: Optional[SolutionWitness],
    children: Optional[list] = None,
) -> dict:
    """A branch node in its file form, from its assumption, its steps as
    (point, forced color, witness), and how it ends: a contradiction witness,
    or else ``children``, the list its two children go into."""
    node = {
        "assume": {"point": format_rational(point), "color": color.value},
        "steps": [
            {"point": format_rational(p), "forced": forced.value, "witness": w.as_json()}
            for p, forced, w in steps
        ],
    }
    if contradiction is not None:
        node["contradiction"] = contradiction.as_json()
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
        return _node(self.point, self.color, self.steps, self.contradiction)


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

    return _document(spec, 2 * l + 1, [red.node(), blue.node()])


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
    """The propagation geometry of the 1/d grid of [1, kl+k-1], ids
    d..(kl+k-1)*d, where id p stands for the value p/d."""
    top = (spec.k * spec.l + spec.k - 1) * denominator
    return SumsetSystem(spec.k, spec.l, denominator, top)


def _branch_node(nodes: list[tuple], d: int) -> dict:
    """The file form of a DPLL refutation on the 1/d grid, with exact
    witnesses, from its nodes in pre-order: ``open_lists[level]`` is the
    list that the next node at that level goes into, so one loop nests them."""
    open_lists: list[list[dict]] = [[]]
    for level, var, color, forcings, conflict in nodes:
        steps = [(Fraction(v, d), h.color.opposite, h.witness(d)) for v, h in forcings]
        point = Fraction(var, d)
        if conflict is not None:
            open_lists[level].append(_node(point, color, steps, conflict.witness(d)))
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
    node tuples that check read (see ``_read_nodes``).

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
        certificate = _document(spec, spec.k * spec.l + spec.k - 1, [red, blue])
    try:
        read_spec, end, nodes = certificate_from_json(certificate)
    except ValueError as exc:
        raise RuntimeError(f"certificate failed its own check: {exc}") from exc
    check = check_certificate(read_spec, end, nodes)
    if not check.ok:
        raise RuntimeError(f"certificate failed its own check: {check.failure}")
    return certificate, nodes


# ---------------------------------------------------------------------------
# The schema pass


_COLORS = {color.value: color for color in Color}
_ASSUME_KEYS, _STEP_KEYS = {"point", "color"}, {"point", "forced", "witness"}
_WITNESS_KEYS = {"color", "left", "x0"}


def _color(value) -> Color:
    try:
        return _COLORS[value]
    except (KeyError, TypeError):  # TypeError: an unhashable list or dict
        raise ValueError(f"unknown color {value!r}") from None


def _read_nodes(spec: ProblemSpec, roots: Sequence) -> list[tuple]:
    """The schema pass over sibling branch nodes in their file form: the
    checker's node tuples, or a ValueError that names the first rule a node
    breaks.

    The tuples come in pre-order, first child first, one per node: (depth,
    point, color, steps, contradiction, child indices).  A point is its key,
    a step is (point, forced color, witness), a witness is (color, ((point,
    multiplicity), ...), x0), and a node ends in a contradiction witness or
    in two children, never both.  A witness's left entries are checked in
    file order, then its x0, its multiplicities and its arity.  Each distinct
    literal is parsed once.
    """
    keys: dict[str, Key] = {}

    def key(text) -> Key:
        try:
            return keys[text]
        except (KeyError, TypeError):
            keys[text] = pair = _key(parse_rational(text))  # ValueError on a non-literal
            return pair

    def witness(obj) -> tuple:
        if not isinstance(obj, dict) or obj.keys() != _WITNESS_KEYS:
            raise ValueError("witness object must carry exactly color, left, x0")
        color = _color(obj["color"])
        left = obj["left"]
        if not isinstance(left, list):
            raise ValueError("witness left side must be a list of [value, multiplicity]")
        pairs = []
        for item in left:
            # a JSON true is an int to isinstance, so the type is compared
            if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int):
                raise ValueError(f"malformed left entry {item!r}")
            pairs.append((key(item[0]), item[1]))
        x0 = key(obj["x0"])
        low = [m for _, m in pairs if m < 1]
        if low:
            raise ValueError(f"multiplicity must be a positive integer, got {low[0]!r}")
        total = sum(m for _, m in pairs)
        if total != (spec.k if color is Color.RED else spec.l):
            raise ValueError(f"witness arity {total} does not match the {color.value} "
                             f"equation of (k={spec.k}, l={spec.l})")
        return color, tuple(pairs), x0

    nodes: list[tuple] = []
    stack = [(root, 0, None) for root in reversed(roots)]
    while stack:
        obj, depth, siblings = stack.pop()
        if not isinstance(obj, dict) or "assume" not in obj or "steps" not in obj:
            raise ValueError("branch node must carry assume and steps")
        assume = obj["assume"]
        if not isinstance(assume, dict) or assume.keys() != _ASSUME_KEYS:
            raise ValueError("assume must carry exactly point and color")
        color = _color(assume["color"])
        point = key(assume["point"])
        if not isinstance(obj["steps"], list):
            raise ValueError("steps must be a list")
        steps = []
        for item in obj["steps"]:
            if not isinstance(item, dict) or item.keys() != _STEP_KEYS:
                raise ValueError("step must carry exactly point, forced, witness")
            forced = _color(item["forced"])
            steps.append((key(item["point"]), forced, witness(item["witness"])))
        has_contradiction = "contradiction" in obj
        if has_contradiction == ("children" in obj):
            raise ValueError("branch node must end in exactly one of contradiction or children")
        if len(obj) != 3:
            raise ValueError("branch node must carry nothing but assume, steps, and its ending")
        if siblings is not None:
            siblings.append(len(nodes))
        if has_contradiction:
            nodes.append((depth, point, color, tuple(steps), witness(obj["contradiction"]), None))
            continue
        children = obj["children"]
        if not (isinstance(children, list) and len(children) == 2):
            raise ValueError("children must be a pair")
        kids: list[int] = []
        nodes.append((depth, point, color, tuple(steps), None, kids))
        stack.extend((child, depth + 1, kids) for child in reversed(children))
    return nodes


def certificate_from_json(obj) -> tuple[ProblemSpec, Fraction, list[tuple]]:
    """The schema pass over a certificate document: its spec, its domain end
    and its node tuples (see ``_read_nodes``), or a ValueError that names the
    first rule the document breaks.

    Rules are checked in this order: the certificate's keys, the spec, the
    root pair, the domain end, then the nodes in pre-order, first child first.
    Nothing is built but the spec.
    """
    if not isinstance(obj, dict) or obj.keys() != {"spec", "domain_end", "root"}:
        raise ValueError("certificate must carry exactly spec, domain_end, root")
    spec = ProblemSpec.from_json(obj["spec"])
    root = obj["root"]
    if not (isinstance(root, list) and len(root) == 2):
        raise ValueError("root must be a pair of branch nodes")
    domain_end = parse_rational(obj["domain_end"])
    return spec, domain_end, _read_nodes(spec, root)
