"""The certificate checker: the schema pass and the replay that every upper
bound ``certify-upper`` prints or ``verify-certificate`` accepts rests on.

A certificate branches on the color of the left endpoint and closes every
branch with a monochromatic contradiction.  Each forcing step carries the
exact solution that justifies it.  The soundness rule is: every entry of the
step's witness OTHER than the forced point must already carry the witness's
color; the point itself may occur in the witness several times (a solution is
allowed to use the forced value twice), so the rule is deliberately not
"exactly one entry is unassigned".

Verification replays a certificate from nothing but its serialized content,
in exact arithmetic, and reports the branch path, step index, and violated
condition on failure.  ``certificate_from_json`` is the one schema pass over
a document: it parses each distinct literal once and gives each distinct
point, its reduced (numerator, denominator) key, a small int id, so "2/4"
and "1/2" are one point.  It reads each distinct step and each distinct
witness once and returns the checker's form, a ``Tree`` of plain tuples on
point ids, in which equal steps are one object and so are equal witnesses.
``check_certificate`` runs the one replay over it, with the colored points in
a list indexed by id.  It checks each witness object's arithmetic once, on
integers over the lcm of its own denominators, never over a scale common to
the file, which an untrusted file could inflate.  At each use it checks only
what the colored points decide, in one pass over the witness's support that
stops at the first entry not yet in the witness's color.  It puts every
colored point on an undo trail, unwound at each split instead of copying the
state.  Both walk the branch tree with an explicit stack, so certificate
depth is bounded by memory, not by the interpreter's recursion limit.  Of the
package, only ``equations`` and ``serialize`` are imported: no search.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Optional, Sequence

from .equations import Color, ProblemSpec
from .serialize import format_ratio, format_rational, parse_rational

Key = tuple[int, int]  # a point's reduced (numerator, denominator)
# The schema pass's form of a certificate's branch nodes: (the node tuples in
# pre-order, see ``_read_nodes``; the key of each point id; the root indices)
Tree = tuple[list[tuple], list[Key], list[int]]


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


def _fail(path: tuple[str, ...], step: Optional[int], reason: str) -> CertificateCheck:
    return CertificateCheck(CheckFailure(path, step, reason))


def _branch_label(point: Fraction, color: Color) -> str:
    return f"{format_rational(point)}={color.value}"


def _key(point: Fraction) -> Key:
    return point.numerator, point.denominator


def _witness_verdict(w: tuple, bounds: tuple, points: list) -> tuple[Optional[str], tuple]:
    """The half of a witness's check that reads no colored point: why its
    values fail, or None, and its support, the distinct ids of its values.

    Everything is checked on integers: the sum over the lcm of this witness's
    own denominators and every value >= gamma (``check_witness`` less the
    arity, which ``_read_nodes`` checked), then every value <= the domain end.
    """
    gn, gd, en, ed = bounds
    color, left, x0 = w
    xn, xd = points[x0]
    pairs = [(points[p], m) for p, m in left]
    scale = lcm(xd, *[d for (_, d), _ in pairs])
    total = 0
    sound = gn * xd <= xn * gd
    inside = xn * ed <= en * xd
    for (n, d), m in pairs:
        total += m * n * (scale // d)
        sound = sound and gn * d <= n * gd
        inside = inside and n * ed <= en * d
    support = tuple({x0, *[p for p, _ in left]})
    if not (sound and total == xn * (scale // xd)):
        return "fails arithmetic, arity, or domain-start check", support
    if not inside:
        return "uses a value beyond the domain end", support
    return None, support


def _witness_failure(
    w: tuple, verdicts: dict, bounds: tuple, points: list, state: list, point: Optional[int] = None
) -> Optional[str]:
    """Why a witness tuple fails, or None; a step's witness names the point
    it forces, a contradiction names none.

    ``verdicts`` holds ``_witness_verdict`` per witness object, so a witness
    that the schema pass shared between steps is checked for arithmetic once;
    then, at each use, the forced point must occur in the witness and each
    other entry must already have the witness's color.  That pass stops at
    the first entry that has not; only then is the entry to name looked for.
    """
    verdict = verdicts.get(id(w))
    if verdict is None:
        verdict = verdicts[id(w)] = _witness_verdict(w, bounds, points)
    wrong, support = verdict
    if wrong:
        return f"{'contradiction' if point is None else 'witness'} {wrong}"
    if point is not None and point not in support:
        return "forced point does not occur in its witness"
    color = w[0]
    for p in support:
        if state[p] is not color and p != point:
            break
    else:
        return None
    bad = {p for p in support if p != point and state[p] is not color}
    # the entry named is the first in ascending order, x0 last
    in_left = [Fraction(*points[p]) for p, _ in w[1] if p in bad]
    entry = format_rational(min(in_left) if in_left else Fraction(*points[bad.pop()]))
    if point is not None:
        return f"entry {entry} is not already colored {color.value}"
    return f"contradiction entry {entry} is not colored {color.value}"


def _replay(spec: ProblemSpec, domain_end: Fraction, tree: Tree) -> CertificateCheck:
    """Replay a tree's nodes in their pre-order, every root from no colored
    point.  Every point the replay colors goes on an undo trail, and entering
    a node unwinds the trail to the length it had at its parent's split."""
    nodes, points, _ = tree
    bounds = gn, gd, en, ed = (*_key(spec.gamma), *_key(domain_end))
    state: list[Optional[Color]] = [None] * len(points)  # by point id
    # a witness tuple's id -> its _witness_verdict: equal witnesses are one
    # tuple, and hashing one would call Color.__hash__ for every lookup
    verdicts: dict[int, tuple] = {}
    trail: list[int] = []
    marks = [0]  # marks[t]: the trail length that a node at depth t starts from
    chain: list[tuple] = []  # the nodes from a root down to the current one

    def fail(step: Optional[int], reason: str) -> CertificateCheck:
        return _fail(tuple(_branch_label(Fraction(*points[n[1]]), n[2]) for n in chain), step, reason)

    for node in nodes:
        depth, assumed, color, steps, contradiction, kids = node
        mark = marks[depth]
        for p in trail[mark:]:
            state[p] = None
        del trail[mark:]
        del chain[depth:]
        chain.append(node)
        n, d = points[assumed]
        if not (gn * d <= n * gd and n * ed <= en * d):
            return fail(None, "assumption point outside the domain")
        if state[assumed] is not None:
            return fail(None, "assumption point already colored")
        state[assumed] = color
        trail.append(assumed)

        for index, (point, forced, w) in enumerate(steps):
            if w[0] is forced:
                return fail(index, "witness color must oppose the forced color")
            reason = _witness_failure(w, verdicts, bounds, points, state, point)
            if reason:
                return fail(index, reason)
            if state[point] is not None:
                return fail(index, "forced point already colored")
            state[point] = forced
            trail.append(point)

        if contradiction is not None:
            reason = _witness_failure(contradiction, verdicts, bounds, points, state)
            if reason:
                return fail(None, reason)
            continue

        first, second = nodes[kids[0]], nodes[kids[1]]
        if first[1] != second[1]:
            return fail(None, "children must split the same point")
        if first[2] is second[2]:
            return fail(None, "children must assume opposite colors")
        if state[first[1]] is not None:
            return fail(None, "split point already colored")
        del marks[depth + 1:]
        marks.append(len(trail))
    return CertificateCheck()


def check_certificate(spec: ProblemSpec, domain_end: Fraction, tree: Tree) -> CertificateCheck:
    """Check a whole certificate's tree: both roots assume the left
    endpoint, in opposite colors, and every branch replays."""
    nodes, points, roots = tree
    first, second = (nodes[i] for i in roots)
    if {points[first[1]], points[second[1]]} != {_key(spec.gamma)}:
        return _fail((), None, "root must branch on the left endpoint")
    if first[2] is second[2]:
        return _fail((), None, "root branches must assume opposite colors")
    return _replay(spec, domain_end, tree)


def certificate_stats(tree: Tree) -> dict:
    """Branch count and step count of the schema pass's tree."""
    nodes = tree[0]
    return {"branches": len(nodes), "steps": sum(len(node[3]) for node in nodes)}


def points_used(tree: Tree) -> list[str]:
    """Every point the tree's nodes color, ascending, as rational strings.

    The reduced keys are ordered exactly on ints, each numerator scaled to
    the lcm of the distinct denominators: the grid's d for every document
    ``certify_upper`` writes, the only input this is called on."""
    nodes, points, _ = tree
    used: set[int] = set()
    for _, point, _, steps, _, _ in nodes:
        used.add(point)
        used.update(step[0] for step in steps)
    keys = [points[i] for i in used]
    scale = lcm(*{d for _, d in keys})
    return [format_ratio(n, d) for n, d in sorted(keys, key=lambda p: p[0] * (scale // p[1]))]


# ---------------------------------------------------------------------------
# The schema pass


_COLORS = {color.value: color for color in Color}
_ASSUME_KEYS, _WITNESS_KEYS = {"point", "color"}, {"color", "left", "x0"}


def _color(value) -> Color:
    try:
        return _COLORS[value]
    except (KeyError, TypeError):  # TypeError: an unhashable list or dict
        raise ValueError(f"unknown color {value!r}") from None


def _content(obj: dict) -> tuple:
    """The memo key of a witness object: (color, x0, left pairs), or a
    KeyError when it lacks one of them and a TypeError or ValueError when its
    left side is not pairs.  The key is exact in type: a multiplicity that is
    not an int, as a true or a 1.0 equal to 1, is None in it, which no valid
    witness has.  Any other value equal to a valid witness's is a string."""
    return obj["color"], obj["x0"], tuple(
        [(value, m if type(m) is int else None) for value, m in obj["left"]]
    )


def _read_witness(spec: ProblemSpec, point_id: Callable, obj: dict) -> tuple:
    """The tuple (color, ((point, multiplicity), ...), x0) of a witness
    object that carries exactly color, left and x0, or a ValueError that names
    the first rule it breaks: its left entries in file order, then its x0, its
    multiplicities and its arity.  ``point_id`` reads a literal."""
    color = _color(obj["color"])
    left = obj["left"]
    if not isinstance(left, list):
        raise ValueError("witness left side must be a list of [value, multiplicity]")
    pairs = []
    for item in left:
        # a JSON true is an int to isinstance, so the type is compared
        if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int):
            raise ValueError(f"malformed left entry {item!r}")
        pairs.append((point_id(item[0]), item[1]))
    x0 = point_id(obj["x0"])
    low = [m for _, m in pairs if m < 1]
    if low:
        raise ValueError(f"multiplicity must be a positive integer, got {low[0]!r}")
    total = sum(m for _, m in pairs)
    if total != spec.arity(color):
        raise ValueError(f"witness arity {total} does not match the {color.value} "
                         f"equation of (k={spec.k}, l={spec.l})")
    return color, tuple(pairs), x0


def _read_nodes(spec: ProblemSpec, roots: Sequence) -> Tree:
    """The schema pass over sibling branch nodes in their file form: the
    checker's ``Tree``, or a ValueError that names the first rule a node
    breaks.

    The node tuples come in pre-order, first child first, one per node:
    (depth, point, color, steps, contradiction, child indices).  A point is
    its id, the index of its key in the tree's points, a step is (point, forced
    color, witness), a witness is (color, ((point, multiplicity), ...), x0),
    and a node ends in a contradiction witness or in two children, never
    both.  A witness is checked as ``_read_witness`` says.  Each distinct
    literal is parsed once.  Each distinct valid step and each distinct valid
    witness is read once: every copy of it gets the same tuple.
    """
    literals: dict[str, int] = {}
    ids: dict[Key, int] = {}  # a point's key -> its id, in the order first read

    def point_id(text) -> int:
        try:
            return literals[text]
        except (KeyError, TypeError):
            pair = _key(parse_rational(text))  # ValueError on a non-literal
            literals[text] = i = ids.setdefault(pair, len(ids))
            return i

    witnesses: dict[tuple, tuple] = {}  # a valid witness's content -> its one tuple

    def witness(obj, content=None) -> tuple:
        # ``content``: the memo key that a step's lookup already built
        if content is not None:
            w = witnesses.get(content)
        elif not isinstance(obj, dict) or obj.keys() != _WITNESS_KEYS:
            raise ValueError("witness object must carry exactly color, left, x0")
        else:
            try:
                content = _content(obj)
                w = witnesses.get(content)
            except (TypeError, ValueError):  # not pairs, or unhashable: no memo
                return _read_witness(spec, point_id, obj)
        if w is None:
            w = witnesses[content] = _read_witness(spec, point_id, obj)  # cached only if valid
        return w

    # a valid step's (point, forced, witness content) -> its one tuple; the
    # point and forced values of a valid step are strings too
    memo: dict[tuple, tuple] = {}
    nodes: list[tuple] = []
    root_indices: list[int] = []
    stack = [(root, 0, root_indices) for root in reversed(roots)]
    while stack:
        obj, depth, siblings = stack.pop()
        if not isinstance(obj, dict) or "assume" not in obj or "steps" not in obj:
            raise ValueError("branch node must carry assume and steps")
        assume = obj["assume"]
        if not isinstance(assume, dict) or assume.keys() != _ASSUME_KEYS:
            raise ValueError("assume must carry exactly point and color")
        color = _color(assume["color"])
        point = point_id(assume["point"])
        if not isinstance(obj["steps"], list):
            raise ValueError("steps must be a list")
        steps = []
        for item in obj["steps"]:
            # exactly its three keys: three entries, and each of them found
            try:
                if not isinstance(item, dict) or len(item) != 3:
                    raise KeyError
                literal, forced, w = item["point"], item["forced"], item["witness"]
            except KeyError:
                raise ValueError("step must carry exactly point, forced, witness") from None
            content = None
            if isinstance(w, dict) and len(w) == 3:
                try:
                    content = literal, forced, _content(w)
                    step = memo.get(content)
                except (KeyError, TypeError, ValueError):  # no memo key
                    content = step = None
                if step is not None:
                    steps.append(step)
                    continue
            # the rules in their order: the forced color, the point, the witness
            forced = _color(forced)
            step = point_id(literal), forced, witness(w, content and content[2])
            if content is not None:
                memo[content] = step
            steps.append(step)
        has_contradiction = "contradiction" in obj
        if has_contradiction == ("children" in obj):
            raise ValueError("branch node must end in exactly one of contradiction or children")
        if len(obj) != 3:
            raise ValueError("branch node must carry nothing but assume, steps, and its ending")
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
    return nodes, list(ids), root_indices


def certificate_from_json(obj) -> tuple[ProblemSpec, Fraction, Tree]:
    """The schema pass over a certificate document: its spec, its domain end
    and its ``Tree`` (see ``_read_nodes``), or a ValueError that names the
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
