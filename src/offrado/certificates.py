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
condition on failure.  Builders never return unverified output.

The replay keys each point by its reduced (numerator, denominator) pair and
checks each witness on integers over the lcm of its own denominators, never
over a scale common to the file, which an untrusted file could inflate.  One
explicit stack walks the branch tree; every colored point goes on an undo
trail, unwound at each split instead of copying the state.  Parsing uses an
explicit stack too and reads each distinct literal once, so certificate depth
is bounded by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .equations import Color, ProblemSpec, SolutionWitness
from .propagation import Refutation, Satisfiable, SumsetSystem, dpll
from .serialize import exact_fraction, format_rational, parse_rational


@dataclass(frozen=True)
class ForcingStep:
    point: Fraction
    forced: Color
    witness: SolutionWitness

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", exact_fraction(self.point))


@dataclass(frozen=True)
class BranchNode:
    """An assumption, the chain it forces, and how the branch ends: either a
    contradiction witness or a further split on one point."""

    point: Fraction
    color: Color
    steps: tuple[ForcingStep, ...]
    contradiction: Optional[SolutionWitness] = None
    children: Optional[tuple["BranchNode", "BranchNode"]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", exact_fraction(self.point))
        if (self.contradiction is None) == (self.children is None):
            raise ValueError("a branch ends in exactly one of contradiction or children")


@dataclass(frozen=True)
class ForcingCertificate:
    spec: ProblemSpec
    domain_end: Fraction
    root: tuple[BranchNode, BranchNode]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain_end", exact_fraction(self.domain_end))
        object.__setattr__(self, "root", tuple(self.root))
        if len(self.root) != 2:
            raise ValueError("root must branch both ways on the left endpoint")


@dataclass(frozen=True)
class CheckFailure:
    path: tuple[str, ...]
    step_index: Optional[int]
    reason: str


@dataclass(frozen=True)
class CertificateCheck:
    """A certificate verifies iff no step failed."""

    failure: Optional[CheckFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __bool__(self) -> bool:
        return self.ok


class UnprovedError(Exception):
    """The automatic prover exhausted its grid or depth; explicitly not a bug."""

    def __init__(self, spec: ProblemSpec, branch: str, denominator: int, depth: int):
        self.spec = spec
        self.branch = branch
        self.denominator = denominator
        self.depth = depth
        super().__init__(
            f"no closing chain for the {branch} branch of (k={spec.k}, l={spec.l}) "
            f"on the 1/{denominator} grid within depth {depth}"
        )


def _fail(path: tuple[str, ...], step: Optional[int], reason: str) -> CertificateCheck:
    return CertificateCheck(CheckFailure(path, step, reason))


def _branch_label(point: Fraction, color: Color) -> str:
    return f"{format_rational(point)}={color.value}"


def _key(point: Fraction) -> tuple[int, int]:
    return point.numerator, point.denominator


def _format_key(key: tuple[int, int]) -> str:
    return format_rational(Fraction(*key))


def _witness_keys(
    w: SolutionWitness, arity: int, bounds: tuple[int, int, int, int]
) -> tuple[bool, bool, list[tuple[int, int]]]:
    """Check one witness on integers: (sound, inside the domain end, keys).

    ``sound`` is what ``check_witness`` decides: the arity, the sum over the
    lcm of this witness's own denominators, and every value >= gamma by
    cross-multiplication.  ``keys`` are its distinct points in ``points()``
    order.
    """
    gn, gd, en, ed = bounds
    xn, xd = x0 = _key(w.x0)
    left = [(v.numerator, v.denominator, m) for v, m in w.left]
    scale = lcm(xd, *[d for _, d, _ in left])
    total = count = 0
    sound = gn * xd <= xn * gd
    inside = xn * ed <= en * xd
    keys = []
    for n, d, m in left:
        total += m * n * (scale // d)
        count += m
        sound = sound and gn * d <= n * gd
        inside = inside and n * ed <= en * d
        keys.append((n, d))
    if x0 not in keys:
        keys.append(x0)
    return sound and count == arity and total == xn * (scale // xd), inside, keys


def _replay(
    spec: ProblemSpec,
    domain_end: Fraction,
    roots: Sequence[BranchNode],
    state: dict[tuple[int, int], Color],
) -> CertificateCheck:
    """Replay branch trees depth-first from ``state``, each root from the
    same state, with one explicit stack and an undo trail: every point the
    replay colors is recorded on the trail, and before a node is entered the
    trail is unwound to the length it had at the node's split."""
    bounds = gn, gd, en, ed = (*_key(spec.gamma), *_key(domain_end))
    trail: list[tuple[int, int]] = []
    chain: list[BranchNode] = []  # the nodes from a root down to the current one
    stack = [(node, 0, 0) for node in reversed(roots)]  # (node, depth, trail mark)

    def fail(step: Optional[int], reason: str) -> CertificateCheck:
        return _fail(tuple(_branch_label(n.point, n.color) for n in chain), step, reason)

    while stack:
        node, depth, mark = stack.pop()
        while len(trail) > mark:
            del state[trail.pop()]
        del chain[depth:]
        chain.append(node)
        n, d = key = _key(node.point)
        if not (gn * d <= n * gd and n * ed <= en * d):
            return fail(None, "assumption point outside the domain")
        if key in state:
            return fail(None, "assumption point already colored")
        state[key] = node.color
        trail.append(key)

        for index, step in enumerate(node.steps):
            w = step.witness
            if w.color is not step.forced.opposite:
                return fail(index, "witness color must oppose the forced color")
            sound, inside, keys = _witness_keys(w, spec.arity(w.color), bounds)
            if not sound:
                return fail(index, "witness fails arithmetic, arity, or domain-start check")
            if not inside:
                return fail(index, "witness uses a value beyond the domain end")
            key = _key(step.point)
            if key not in keys:
                return fail(index, "forced point does not occur in its witness")
            for entry in keys:
                if entry != key and state.get(entry) is not w.color:
                    return fail(
                        index, f"entry {_format_key(entry)} is not already colored {w.color.value}"
                    )
            if key in state:
                return fail(index, "forced point already colored")
            state[key] = step.forced
            trail.append(key)

        w = node.contradiction
        if w is not None:
            sound, inside, keys = _witness_keys(w, spec.arity(w.color), bounds)
            if not sound:
                return fail(None, "contradiction fails arithmetic, arity, or domain-start check")
            if not inside:
                return fail(None, "contradiction uses a value beyond the domain end")
            for entry in keys:
                if state.get(entry) is not w.color:
                    return fail(
                        None, f"contradiction entry {_format_key(entry)} is not colored {w.color.value}"
                    )
            continue

        first, second = node.children  # type: ignore[misc]
        if first.point != second.point:
            return fail(None, "children must split the same point")
        if {first.color, second.color} != {Color.RED, Color.BLUE}:
            return fail(None, "children must assume opposite colors")
        if _key(first.point) in state:
            return fail(None, "split point already colored")
        stack.append((second, depth + 1, len(trail)))
        stack.append((first, depth + 1, len(trail)))
    return CertificateCheck()


def verify_branch(
    spec: ProblemSpec,
    domain_end,
    node: BranchNode,
    ambient: Mapping[Fraction, Color] = {},
) -> CertificateCheck:
    """Check a single branch under pre-colored ambient points."""
    state = {_key(exact_fraction(p)): c for p, c in ambient.items()}
    return _replay(spec, exact_fraction(domain_end), (node,), state)


def verify_certificate(certificate: ForcingCertificate) -> CertificateCheck:
    """Replay every branch in exact arithmetic; True iff all of them close.

    Verification depends only on the certificate's own content, so a
    round-tripped file checks identically to the freshly built object.
    """
    spec = certificate.spec
    first, second = certificate.root
    if first.point != spec.gamma or second.point != spec.gamma:
        return _fail((), None, "root must branch on the left endpoint")
    if {first.color, second.color} != {Color.RED, Color.BLUE}:
        return _fail((), None, "root branches must assume opposite colors")
    return _replay(spec, certificate.domain_end, certificate.root, {})


def _nodes(certificate: ForcingCertificate) -> Iterator[BranchNode]:
    stack = list(certificate.root)
    while stack:
        node = stack.pop()
        yield node
        if node.children is not None:
            stack.extend(node.children)


def certificate_stats(certificate: ForcingCertificate) -> dict:
    """Branch count and step count."""
    branches = steps = 0
    for node in _nodes(certificate):
        branches += 1
        steps += len(node.steps)
    return {"branches": branches, "steps": steps}


def points_used(certificate: ForcingCertificate) -> list[str]:
    """Every point the certificate colors, ascending, as rational strings."""
    points: set[Fraction] = set()
    for node in _nodes(certificate):
        points.add(node.point)
        points.update(step.point for step in node.steps)
    return [format_rational(p) for p in sorted(points)]


# ---------------------------------------------------------------------------
# Hand-built chains


class _ChainBuilder:
    """Executes a planned forcing chain against its own accumulated state.

    Plans are written for the generic parameter values; for small parameters
    the planned points can collide (the same value forced twice, or a point
    that is already the other color).  A step whose point already has the
    target color is skipped; a step whose point already carries the witness's
    color short-circuits the branch, because that witness is then fully
    monochromatic.  Either way the emitted chain verifies.
    """

    def __init__(self, point, color: Color):
        self.point = exact_fraction(point)
        self.color = color
        self.state: dict[Fraction, Color] = {self.point: color}
        self.steps: list[ForcingStep] = []
        self.contradiction: Optional[SolutionWitness] = None

    @property
    def closed(self) -> bool:
        return self.contradiction is not None

    def _require_support(self, witness: SolutionWitness, exclude: Optional[Fraction]) -> None:
        for v in witness.points():
            if v != exclude and self.state.get(v) is not witness.color:
                raise RuntimeError(
                    f"ill-formed chain: {format_rational(v)} is not {witness.color.value} yet"
                )

    def force(self, point, forced: Color, witness: SolutionWitness) -> None:
        if self.closed:
            return
        point = exact_fraction(point)
        current = self.state.get(point)
        if current is forced:
            return
        self._require_support(witness, exclude=point)
        if current is not None:  # already the witness color: monochromatic now
            self.contradiction = witness
            return
        self.steps.append(ForcingStep(point, forced, witness))
        self.state[point] = forced

    def close(self, witness: SolutionWitness) -> None:
        if self.closed:
            return
        self._require_support(witness, exclude=None)
        self.contradiction = witness

    def node(self) -> BranchNode:
        if not self.closed:
            raise RuntimeError("chain did not reach a contradiction")
        return BranchNode(self.point, self.color, tuple(self.steps), self.contradiction)


def _w(color: Color, pairs: Iterable[tuple], x0) -> SolutionWitness:
    kept = tuple((exact_fraction(v), m) for v, m in pairs if m != 0)
    return SolutionWitness(color, kept, exact_fraction(x0))


def build_k2_certificate(l: int) -> ForcingCertificate:
    """Both branches for k = 2 on the closed domain [1, 2l+1].

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

    certificate = ForcingCertificate(spec, Fraction(2 * l + 1), (red.node(), blue.node()))
    result = verify_certificate(certificate)
    if not result.ok:
        raise RuntimeError(f"built certificate failed its own check: {result.failure}")
    return certificate


@dataclass(frozen=True)
class ResidueParams:
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


def build_blue1_certificate(spec: ProblemSpec) -> BranchNode:
    """The branch assuming the left endpoint blue, for 3 <= k < l.

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

    node = chain.node()
    result = verify_branch(spec, Fraction(k * l + k - 1), node)
    if not result.ok:
        raise RuntimeError(f"built branch failed its own check: {result.failure}")
    return node


# ---------------------------------------------------------------------------
# Automatic prover


def _grid_system(spec: ProblemSpec, denominator: int) -> SumsetSystem:
    """The propagation geometry of the 1/d grid of [1, kl+k-1], ids
    d..(kl+k-1)*d, where id p stands for the value p/d."""
    top = (spec.k * spec.l + spec.k - 1) * denominator
    return SumsetSystem(spec.k, spec.l, denominator, top)


def _branch_node(tree: Refutation, d: int) -> BranchNode:
    """The certificate node of a DPLL tree on the 1/d grid, with exact witnesses."""
    steps = tuple(
        ForcingStep(Fraction(v, d), handle.color.opposite, handle.witness(d))
        for v, handle in tree.forcings
    )
    point = Fraction(tree.var, d)
    if tree.conflict is not None:
        return BranchNode(point, tree.color, steps, tree.conflict.witness(d))
    first, second = (_branch_node(child, d) for child in tree.children)
    return BranchNode(point, tree.color, steps, children=(first, second))


def auto_prove(
    spec: ProblemSpec,
    grid_denominator: int,
    assumptions: Sequence[tuple],
    max_branch_depth: int = 64,
) -> Optional[BranchNode]:
    """Search for a closing branch tree on the 1/d grid of [1, kl+k-1].

    The search is ``propagation.dpll`` over grid ids, with unit forcing
    read from sumsets by ``propagate_masks`` as in the discrete search, at
    most ``max_branch_depth`` splits deep.  The final assumption becomes the
    returned node; earlier assumptions are ambient pre-colored context.
    Returns None on grid or depth exhaustion, and as soon as some branch
    completes a valid total grid coloring (then no refutation can exist).
    The emitted node is re-verified before being returned.
    """
    if spec.gamma != 1:
        raise ValueError("the grid prover runs on the unit domain")
    if not isinstance(grid_denominator, int) or grid_denominator < 1:
        raise ValueError(f"need a positive integer denominator, got {grid_denominator!r}")
    if not isinstance(max_branch_depth, int) or max_branch_depth < 0:
        raise ValueError(f"need a non-negative integer depth, got {max_branch_depth!r}")
    if not assumptions:
        raise ValueError("at least one assumption is required")

    system = _grid_system(spec, grid_denominator)
    d = grid_denominator
    end = spec.k * spec.l + spec.k - 1
    red = blue = 0
    pending: list[int] = []
    for point, color in assumptions:
        point = exact_fraction(point)
        scaled = point * d
        if scaled.denominator != 1 or not d <= scaled <= end * d:
            raise ValueError(f"{format_rational(point)} is not a grid point")
        idx = int(scaled)
        if (red | blue) >> idx & 1:
            raise ValueError(f"duplicate assumption on {format_rational(point)}")
        if color is Color.RED:
            red |= 1 << idx
        else:
            blue |= 1 << idx
        pending.append(idx)

    # the last assumption is the root; the others are ambient
    root, color = pending[-1], assumptions[-1][1]
    try:
        tree = dpll(system, root, color, red, blue, pending, max_branch_depth, Counter())
    except Satisfiable:
        return None
    if tree is None:
        return None
    node = _branch_node(tree, d)
    ambient = {exact_fraction(p): c for p, c in assumptions[:-1]}
    result = verify_branch(spec, end, node, ambient)
    if not result.ok:
        raise RuntimeError(f"auto-proved branch failed its own check: {result.failure}")
    return node


def certify_upper(
    spec: ProblemSpec, grid_denominator: Optional[int] = None, max_depth: int = 64
) -> ForcingCertificate:
    """Assemble and verify the full branch-on-the-endpoint certificate.

    With ``grid_denominator`` None, the default assembly: k=2 uses the
    hand-built half-step chains; k < l pairs the built blue-start branch with
    an auto-proved red branch on the integer grid; the diagonal k = l >= 3
    auto-proves both branches.  With an integer d every branch is searched on
    the 1/d grid instead.  Raises UnprovedError when a search exhausts, never
    returns unchecked output.
    """
    if spec.gamma != 1:
        raise ValueError("certificates are built on the unit domain")
    if not isinstance(max_depth, int) or max_depth < 0:
        raise ValueError(f"need a non-negative integer depth, got {max_depth!r}")
    built = grid_denominator is None
    d = 1 if built else grid_denominator

    def auto(color: Color) -> BranchNode:
        node = auto_prove(spec, d, [(Fraction(1), color)], max_depth)
        if node is None:
            raise UnprovedError(spec, color.value, d, max_depth)
        return node

    if built and spec.k == 2:
        certificate = build_k2_certificate(spec.l)
    else:
        red = auto(Color.RED)
        blue = build_blue1_certificate(spec) if built and spec.k < spec.l else auto(Color.BLUE)
        certificate = ForcingCertificate(spec, spec.k * spec.l + spec.k - 1, (red, blue))

    result = verify_certificate(certificate)
    if not result.ok:
        raise RuntimeError(f"assembled certificate failed verification: {result.failure}")
    return certificate


# ---------------------------------------------------------------------------
# Serialization


def _node_as_json(node: BranchNode) -> dict:
    out: dict = {
        "assume": {"point": format_rational(node.point), "color": node.color.value},
        "steps": [
            {
                "point": format_rational(step.point),
                "forced": step.forced.value,
                "witness": step.witness.as_json(),
            }
            for step in node.steps
        ],
    }
    if node.contradiction is not None:
        out["contradiction"] = node.contradiction.as_json()
    else:
        out["children"] = [_node_as_json(child) for child in node.children]  # type: ignore[union-attr]
    return out


def _witness_from_json(obj, spec: ProblemSpec, rational) -> SolutionWitness:
    witness = SolutionWitness.from_json(obj, rational)
    if witness.total_multiplicity != spec.arity(witness.color):
        raise ValueError(
            f"witness arity {witness.total_multiplicity} does not match the "
            f"{witness.color.value} equation of (k={spec.k}, l={spec.l})"
        )
    return witness


def _nodes_from_json(objs: list, spec: ProblemSpec, rational) -> tuple[BranchNode, ...]:
    """Parse sibling branch trees with an explicit stack.

    The walk is pre-order, first child first, so the first schema error is
    the one a recursive descent would meet.  Nodes are built afterwards in
    reverse pre-order, where every node's children already exist.
    """
    parsed: list[tuple] = []  # (point, color, steps, contradiction, child indices)
    roots: list[int] = []
    stack = [(obj, roots) for obj in reversed(objs)]
    while stack:
        obj, siblings = stack.pop()
        if not isinstance(obj, dict) or "assume" not in obj or "steps" not in obj:
            raise ValueError("branch node must carry assume and steps")
        assume = obj["assume"]
        if not isinstance(assume, dict) or set(assume) != {"point", "color"}:
            raise ValueError("assume must carry exactly point and color")
        try:
            color = Color(assume["color"])
        except ValueError:
            raise ValueError(f"unknown color {assume['color']!r}") from None
        point = rational(assume["point"])
        if not isinstance(obj["steps"], list):
            raise ValueError("steps must be a list")
        steps = []
        for item in obj["steps"]:
            if not isinstance(item, dict) or set(item) != {"point", "forced", "witness"}:
                raise ValueError("step must carry exactly point, forced, witness")
            try:
                forced = Color(item["forced"])
            except ValueError:
                raise ValueError(f"unknown color {item['forced']!r}") from None
            forced_point = rational(item["point"])
            witness = _witness_from_json(item["witness"], spec, rational)
            steps.append(ForcingStep(forced_point, forced, witness))
        has_contradiction = "contradiction" in obj
        if has_contradiction == ("children" in obj):
            raise ValueError("branch node must end in exactly one of contradiction or children")
        siblings.append(len(parsed))
        if has_contradiction:
            contradiction = _witness_from_json(obj["contradiction"], spec, rational)
            parsed.append((point, color, tuple(steps), contradiction, None))
            continue
        children = obj["children"]
        if not (isinstance(children, list) and len(children) == 2):
            raise ValueError("children must be a pair")
        kids: list[int] = []
        parsed.append((point, color, tuple(steps), None, kids))
        stack.append((children[1], kids))
        stack.append((children[0], kids))

    nodes: list = [None] * len(parsed)
    for index in reversed(range(len(parsed))):
        point, color, steps, contradiction, kids = parsed[index]
        if kids is None:
            nodes[index] = BranchNode(point, color, steps, contradiction)
        else:
            pair = (nodes[kids[0]], nodes[kids[1]])
            nodes[index] = BranchNode(point, color, steps, children=pair)
    return tuple(nodes[i] for i in roots)


def certificate_as_json(certificate: ForcingCertificate) -> dict:
    return {
        "spec": certificate.spec.as_json(),
        "domain_end": format_rational(certificate.domain_end),
        "root": [_node_as_json(node) for node in certificate.root],
    }


def certificate_from_json(obj) -> ForcingCertificate:
    if not isinstance(obj, dict) or set(obj) != {"spec", "domain_end", "root"}:
        raise ValueError("certificate must carry exactly spec, domain_end, root")
    spec = ProblemSpec.from_json(obj["spec"])
    root = obj["root"]
    if not (isinstance(root, list) and len(root) == 2):
        raise ValueError("root must be a pair of branch nodes")
    literals: dict[str, Fraction] = {}

    def rational(text) -> Fraction:
        """``parse_rational``, run once per distinct literal of this file."""
        if type(text) is not str:  # parse_rational raises ValueError on it
            return parse_rational(text)
        value = literals.get(text)
        if value is None:
            value = literals[text] = parse_rational(text)
        return value

    domain_end = rational(obj["domain_end"])
    return ForcingCertificate(spec, domain_end, _nodes_from_json(root, spec, rational))
