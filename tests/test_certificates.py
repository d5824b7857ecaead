import dataclasses
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from offrado.certificates import (
    BranchNode,
    CertificateCheck,
    CheckFailure,
    ForcingCertificate,
    ForcingStep,
    UnprovedError,
    auto_prove,
    build_blue1_certificate,
    build_k2_certificate,
    certificate_as_json,
    certificate_from_json,
    certify_upper,
    points_used,
    residue_params,
    verify_branch,
    verify_certificate,
    _branch_label,
    _fail,
)
from offrado.equations import Color, ProblemSpec, SolutionWitness, check_witness
from offrado.search import search_valid
from offrado.serialize import canonical_json, format_rational, parse_rational

RED, BLUE = Color.RED, Color.BLUE
DATA = Path(__file__).parent / "data"


def branch_points(node):
    points = [node.point] + [s.point for s in node.steps]
    if node.children:
        for child in node.children:
            points += branch_points(child)
    return points


class TestK2Builder:
    def test_l3_structure(self):
        cert = build_k2_certificate(3)
        assert verify_certificate(cert).ok
        assert cert.domain_end == 7
        assert points_used(cert) == ["1", "3/2", "2", "5/2", "3", "4", "5", "6", "7"]
        red_branch = cert.root[0]
        assert red_branch.color is RED
        assert Fraction(3, 2) in branch_points(red_branch)
        assert Fraction(5, 2) in branch_points(red_branch)

    def test_l2_degenerate_chain_still_verifies(self):
        cert = build_k2_certificate(2)
        assert verify_certificate(cert).ok
        assert cert.domain_end == 5
        # cross-check with the automatic prover on the half grid
        for color in (RED, BLUE):
            node = auto_prove(ProblemSpec(2, 2), 2, [(Fraction(1), color)])
            assert node is not None

    def test_l10(self):
        cert = build_k2_certificate(10)
        assert verify_certificate(cert).ok
        assert cert.domain_end == 21

    def test_rejects_l1(self):
        with pytest.raises(ValueError):
            build_k2_certificate(1)

    def test_half_points_in_every_red_branch(self):
        for l in range(3, 11):
            points = branch_points(build_k2_certificate(l).root[0])
            assert Fraction(3, 2) in points and Fraction(5, 2) in points


class TestTamperResistance:
    """Single-field mutations of a verified certificate must all be caught."""

    def locate(self, cert):
        for b, node in enumerate(cert.root):
            for i, step in enumerate(node.steps):
                yield b, i, step

    def mutate_step(self, cert, b, i, new_step):
        node = cert.root[b]
        steps = list(node.steps)
        steps[i] = new_step
        new_node = dataclasses.replace(node, steps=tuple(steps))
        root = list(cert.root)
        root[b] = new_node
        return dataclasses.replace(cert, root=tuple(root))

    def test_every_point_mutation_fails(self):
        cert = build_k2_certificate(3)
        for b, i, step in self.locate(cert):
            bad = dataclasses.replace(step, point=step.point + Fraction(1, 3))
            assert not verify_certificate(self.mutate_step(cert, b, i, bad)).ok

    def test_every_color_flip_fails(self):
        cert = build_k2_certificate(3)
        for b, i, step in self.locate(cert):
            bad = dataclasses.replace(step, forced=step.forced.opposite)
            assert not verify_certificate(self.mutate_step(cert, b, i, bad)).ok

    def test_every_witness_color_flip_fails(self):
        cert = build_k2_certificate(3)
        for b, i, step in self.locate(cert):
            w = step.witness
            bad_w = SolutionWitness(w.color.opposite, w.left, w.x0)
            bad = dataclasses.replace(step, witness=bad_w)
            assert not verify_certificate(self.mutate_step(cert, b, i, bad)).ok

    def test_every_witness_sum_break_fails(self):
        cert = build_k2_certificate(3)
        for b, i, step in self.locate(cert):
            w = step.witness
            bad_w = SolutionWitness(w.color, w.left, w.x0 + 1)
            bad = dataclasses.replace(step, witness=bad_w)
            assert not verify_certificate(self.mutate_step(cert, b, i, bad)).ok

    def test_every_witness_value_shift_fails(self):
        cert = build_k2_certificate(3)
        for b, i, step in self.locate(cert):
            w = step.witness
            (v0, m0), rest = w.left[0], w.left[1:]
            bad_w = SolutionWitness(w.color, ((v0 + Fraction(1, 7), m0),) + rest, w.x0)
            bad = dataclasses.replace(step, witness=bad_w)
            assert not verify_certificate(self.mutate_step(cert, b, i, bad)).ok

    def test_out_of_domain_point_fails(self):
        cert = build_k2_certificate(3)
        node = cert.root[0]
        big = SolutionWitness.from_values(RED, [1, Fraction(15, 2)], Fraction(17, 2))
        bad_step = ForcingStep(Fraction(17, 2), BLUE, big)
        bad_node = dataclasses.replace(node, steps=node.steps + (bad_step,))
        bad = dataclasses.replace(cert, root=(bad_node, cert.root[1]))
        check = verify_certificate(bad)
        assert not check.ok and "domain" in check.failure.reason

    def test_failure_names_location(self):
        cert = build_k2_certificate(3)
        node = cert.root[1]
        steps = list(node.steps)
        steps[2] = dataclasses.replace(steps[2], forced=steps[2].forced.opposite)
        bad_node = dataclasses.replace(node, steps=tuple(steps))
        bad = dataclasses.replace(cert, root=(cert.root[0], bad_node))
        check = verify_certificate(bad)
        assert not check.ok
        assert check.failure.path == ("1=blue",)
        assert check.failure.step_index == 2


class TestResidueParams:
    @pytest.mark.parametrize(
        "k,l,gap,residue,mix,total",
        [(3, 4, 1, 0, 0, 9), (3, 5, 2, 0, 1, 11), (3, 7, 4, 2, 1, 13), (4, 5, 1, 0, 0, 16)],
    )
    def test_examples(self, k, l, gap, residue, mix, total):
        p = residue_params(k, l)
        assert (p.gap, p.residue, p.mix_count, p.mixed_sum) == (gap, residue, mix, total)

    def test_arithmetic_facts_through_30(self):
        for k in range(3, 30):
            for l in range(k + 1, 31):
                p = residue_params(k, l)
                assert 0 <= p.residue < p.gap
                assert 0 <= p.mix_count <= k
                assert (k - p.mix_count) * k + p.mix_count * l == p.mixed_sum
                assert p.mixed_sum == k * k + (p.gap - 1) * (k - 1) - p.residue
                # the stated window on mix_count, checked not assumed
                low = Fraction(k - 2) - Fraction(k - 1, p.gap)
                high = Fraction(k - 1) - Fraction(k - 1, p.gap)
                assert low < p.mix_count <= high

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            residue_params(3, 3)


class TestBlueStartBranch:
    @pytest.mark.parametrize("k,l", [(3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 9)])
    def test_verifies(self, k, l):
        spec = ProblemSpec(k, l)
        node = build_blue1_certificate(spec)
        assert node.color is BLUE and node.point == 1
        assert verify_branch(spec, Fraction(k * l + k - 1), node).ok

    def test_vanishing_residue_closes_early(self):
        node = build_blue1_certificate(ProblemSpec(3, 4))
        assert [s.point for s in node.steps] == [4, 12, 3, 5, 9]
        assert node.contradiction.x0 == 12  # 1+1+1+9 = 12, all blue

    def test_nonzero_residue_full_chain(self):
        node = build_blue1_certificate(ProblemSpec(3, 7))
        assert [s.point for s in node.steps] == [7, 21, 3, 8, 13, 2, 6, 12]
        assert node.contradiction.x0 == 12  # 1x6 + 6 = 12, all blue

    def test_collision_with_doubled_small_arity(self):
        # 2k = l here; the planned step turns into an immediate contradiction
        node = build_blue1_certificate(ProblemSpec(3, 6))
        assert verify_branch(ProblemSpec(3, 6), Fraction(20), node).ok
        assert node.contradiction.color is RED

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            build_blue1_certificate(ProblemSpec(3, 3))
        with pytest.raises(ValueError):
            build_blue1_certificate(ProblemSpec(2, 4))


class TestAutoProve:
    def test_integer_grid_closes_for_k3(self):
        node = auto_prove(ProblemSpec(3, 4), 1, [(Fraction(1), RED)])
        assert node is not None
        assert verify_branch(ProblemSpec(3, 4), Fraction(14), node).ok

    def test_unit_grid_at_23_closes_because_values_coincide(self):
        # S(2,3) = 7 both discretely and continuously, so integers alone
        # refute; half-steps only become necessary from l = 4 on.
        assert auto_prove(ProblemSpec(2, 3), 1, [(Fraction(1), RED)]) is not None

    def test_half_grid_at_23_closes_too(self):
        node = auto_prove(ProblemSpec(2, 3), 2, [(Fraction(1), RED)])
        assert node is not None
        assert verify_branch(ProblemSpec(2, 3), Fraction(7), node).ok

    @pytest.mark.parametrize("l", [4, 5])
    def test_unit_grid_fails_then_half_grid_closes(self, l):
        spec = ProblemSpec(2, l)
        assert auto_prove(spec, 1, [(Fraction(1), RED)]) is None
        node = auto_prove(spec, 2, [(Fraction(1), RED)])
        assert node is not None
        assert verify_branch(spec, Fraction(2 * l + 1), node).ok

    def test_depth_exhaustion_is_none(self):
        # assuming an interior point leaves propagation stuck, so depth 0
        # exhausts; with branching allowed the same start closes
        spec = ProblemSpec(3, 3)
        assert auto_prove(spec, 1, [(Fraction(5), RED)], max_branch_depth=0) is None
        node = auto_prove(spec, 1, [(Fraction(5), RED)])
        assert node is not None and node.children is not None
        assert verify_branch(spec, Fraction(11), node).ok

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative integer depth"):
            auto_prove(ProblemSpec(3, 3), 1, [(Fraction(5), RED)], max_branch_depth=-1)

    def test_assumption_chain_closes_without_branching(self):
        # the half-grid refutation of (2,5) from 1=Red is pure forcing
        node = auto_prove(ProblemSpec(2, 5), 2, [(Fraction(1), RED)], max_branch_depth=0)
        assert node is not None and node.children is None

    def test_agrees_with_discrete_search(self):
        for k in range(3, 6):
            for l in range(k, 6):
                spec = ProblemSpec(k, l)
                closed = all(
                    auto_prove(spec, 1, [(Fraction(1), color)]) is not None
                    for color in (RED, BLUE)
                )
                uncolorable = search_valid(k * l + k - 1, spec) is None
                assert closed == uncolorable

    def test_off_grid_assumption_rejected(self):
        with pytest.raises(ValueError):
            auto_prove(ProblemSpec(2, 3), 1, [(Fraction(3, 2), RED)])

    @pytest.mark.parametrize(
        "denominator,assumptions",
        [
            (1, [(Fraction(2), RED), (Fraction(2), BLUE)]),  # duplicate
            (1, [(Fraction(15), RED)]),  # beyond kl + k - 1 = 14
            (2, [(Fraction(1, 2), RED)]),  # a grid id, but below 1
            (1, []),
            (0, [(Fraction(1), RED)]),
        ],
        ids=["duplicate", "beyond-end", "below-one", "empty", "denominator-0"],
    )
    def test_bad_input_rejected(self, denominator, assumptions):
        with pytest.raises(ValueError):
            auto_prove(ProblemSpec(3, 4), denominator, assumptions)

    def test_ambient_assumptions_supported(self):
        spec = ProblemSpec(2, 4)
        # ambient 1=Red alone is not enough at d=1, but adding 3=Blue closes:
        # 3 blue with 1 red forces 9 red (3+3+3), 2 blue (1+1), 8 red (2x4),
        # then 1+8=9 is an all-red pair.
        node = auto_prove(spec, 1, [(Fraction(1), RED), (Fraction(3), BLUE)])
        assert node is not None
        assert node.point == 3 and node.color is BLUE
        assert verify_branch(spec, Fraction(9), node, {Fraction(1): RED}).ok


class TestCertifyUpper:
    @pytest.mark.parametrize("k,l", [(2, 3), (3, 4), (3, 3)])
    def test_verified_certificates(self, k, l):
        cert = certify_upper(ProblemSpec(k, l))
        assert verify_certificate(cert).ok
        assert cert.domain_end == k * l + k - 1

    def test_unproved_surfaces_explicitly(self):
        with pytest.raises(UnprovedError) as info:
            certify_upper(ProblemSpec(2, 4), grid_denominator=1)
        assert info.value.branch == "red"

    def test_force_auto_half_grid(self):
        cert = certify_upper(ProblemSpec(2, 4), grid_denominator=2)
        assert verify_certificate(cert).ok

    def test_rejects_scaled_domain(self):
        with pytest.raises(ValueError):
            certify_upper(ProblemSpec(2, 3, 2))


class TestSerialization:
    def test_round_trip_bit_identical(self):
        for spec in (ProblemSpec(2, 3), ProblemSpec(3, 4)):
            cert = certify_upper(spec)
            doc = certificate_as_json(cert)
            text = canonical_json(doc)
            again = certificate_from_json(json.loads(text))
            assert again == cert
            assert canonical_json(certificate_as_json(again)) == text

    def test_verification_after_round_trip(self):
        cert = build_k2_certificate(5)
        again = certificate_from_json(json.loads(canonical_json(certificate_as_json(cert))))
        assert verify_certificate(again).ok

    def test_arity_mismatch_is_schema_error(self):
        doc = certificate_as_json(build_k2_certificate(3))
        doc["spec"]["l"] = 4  # witnesses inside still have arity 3
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("domain_end"),
            lambda d: d["root"].pop(),
            lambda d: d["root"][0].pop("assume"),
            lambda d: d["root"][0]["steps"][0].update(forced="green"),
            lambda d: d["root"][0]["steps"][0]["witness"].update(x0="2.5"),
            lambda d: d["root"][0].update(children=[]),
            lambda d: d["spec"].pop("gamma"),
            lambda d: d["spec"].update(note="x"),
        ],
    )
    def test_schema_violations(self, mutate):
        doc = certificate_as_json(build_k2_certificate(3))
        mutate(doc)
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    def test_tampered_file_fails_verification_not_parsing(self):
        doc = certificate_as_json(build_k2_certificate(3))
        doc["root"][0]["steps"][0]["forced"] = "red"  # was blue
        cert = certificate_from_json(doc)
        check = verify_certificate(cert)
        assert not check.ok and check.failure.step_index == 0


class TestCertificateSemantics:
    """A certificate's chains promise that every 2-coloring of the points it
    touches makes one of its witnesses monochromatic.  That finite statement
    is brute-forced here from scratch, independently of both the builders and
    the replay verifier."""

    @staticmethod
    def collect(node, witnesses, points):
        points.add(node.point)
        for step in node.steps:
            points.add(step.point)
            witnesses.append(step.witness)
            points.update(step.witness.points())
        if node.contradiction is not None:
            witnesses.append(node.contradiction)
            points.update(node.contradiction.points())
        else:
            for child in node.children:
                TestCertificateSemantics.collect(child, witnesses, points)

    @pytest.mark.parametrize(
        "k,l",
        [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5)],
    )
    def test_point_set_is_uncolorable(self, k, l):
        from itertools import product

        cert = certify_upper(ProblemSpec(k, l))
        witnesses, points = [], set()
        for node in cert.root:
            self.collect(node, witnesses, points)
        points = sorted(points)
        assert len(points) <= 12
        checks = [(w.color, tuple(w.points())) for w in witnesses]
        for assignment in product((RED, BLUE), repeat=len(points)):
            coloring = dict(zip(points, assignment))
            assert any(
                all(coloring[v] is color for v in values) for color, values in checks
            ), f"({k},{l}): {coloring} dodges every witness"


class TestVerifierStructure:
    def test_root_must_sit_on_the_left_endpoint(self):
        cert = build_k2_certificate(3)
        moved = dataclasses.replace(cert.root[0], point=Fraction(2))
        check = verify_certificate(dataclasses.replace(cert, root=(moved, cert.root[1])))
        assert not check.ok and "left endpoint" in check.failure.reason

    def test_root_colors_must_differ(self):
        cert = build_k2_certificate(3)
        check = verify_certificate(dataclasses.replace(cert, root=(cert.root[0], cert.root[0])))
        assert not check.ok and "opposite colors" in check.failure.reason

    def test_children_must_split_one_point(self):
        w12 = SolutionWitness.from_values(RED, [1, 1], 2)
        spec = ProblemSpec(2, 2)
        # well-formed split: both children assume 2, then close on (1,1)->2
        leaf_blue = BranchNode(Fraction(3), BLUE, (), contradiction=w12)
        bad_children = BranchNode(
            Fraction(1), RED, (),
            children=(
                BranchNode(Fraction(2), RED, (), contradiction=w12),
                BranchNode(Fraction(3), BLUE, (), contradiction=w12),
            ),
        )
        check = verify_branch(spec, Fraction(5), bad_children)
        assert not check.ok and "same point" in check.failure.reason
        assert leaf_blue.contradiction is w12

    def test_branch_path_labels_nested_assumptions(self):
        spec = ProblemSpec(3, 3)
        node = auto_prove(spec, 1, [(Fraction(5), RED)])
        assert node is not None and node.children is not None
        # break the deepest reachable step and confirm the path points there
        child = node.children[0]
        bad_child = dataclasses.replace(
            child, steps=(dataclasses.replace(child.steps[0], forced=child.steps[0].forced.opposite),)
            + child.steps[1:],
        )
        bad = dataclasses.replace(node, children=(bad_child, node.children[1]))
        check = verify_branch(spec, Fraction(11), bad)
        assert not check.ok
        assert len(check.failure.path) == 2 and check.failure.step_index == 0


class TestBranchNodeShape:
    def test_exactly_one_outcome(self):
        w = SolutionWitness.from_values(RED, [1, 1], 2)
        with pytest.raises(ValueError):
            BranchNode(Fraction(1), RED, ())
        with pytest.raises(ValueError):
            BranchNode(
                Fraction(1), RED, (), contradiction=w,
                children=(
                    BranchNode(Fraction(2), RED, (), contradiction=w),
                    BranchNode(Fraction(2), BLUE, (), contradiction=w),
                ),
            )


# ---------------------------------------------------------------------------
# The recursive replay and parse the iterative ones replaced, kept as the
# reference of the property tests below.  Each branch is checked on a copy of
# its parent's state, in Fraction arithmetic.


def reference_verify_node(spec, domain_end, node, state, path):
    path = path + (_branch_label(node.point, node.color),)
    if not spec.gamma <= node.point <= domain_end:
        return _fail(path, None, "assumption point outside the domain")
    if node.point in state:
        return _fail(path, None, "assumption point already colored")
    state[node.point] = node.color

    for index, step in enumerate(node.steps):
        w = step.witness
        if w.color is not step.forced.opposite:
            return _fail(path, index, "witness color must oppose the forced color")
        if not check_witness(spec, w):
            return _fail(path, index, "witness fails arithmetic, arity, or domain-start check")
        if any(v > domain_end for v in w.points()):
            return _fail(path, index, "witness uses a value beyond the domain end")
        if not w.contains(step.point):
            return _fail(path, index, "forced point does not occur in its witness")
        for v in w.points():
            if v != step.point and state.get(v) is not w.color:
                return _fail(
                    path, index, f"entry {format_rational(v)} is not already colored {w.color.value}"
                )
        if step.point in state:
            return _fail(path, index, "forced point already colored")
        state[step.point] = step.forced

    if node.contradiction is not None:
        w = node.contradiction
        if not check_witness(spec, w):
            return _fail(path, None, "contradiction fails arithmetic, arity, or domain-start check")
        if any(v > domain_end for v in w.points()):
            return _fail(path, None, "contradiction uses a value beyond the domain end")
        for v in w.points():
            if state.get(v) is not w.color:
                return _fail(
                    path, None, f"contradiction entry {format_rational(v)} is not colored {w.color.value}"
                )
        return CertificateCheck()

    first, second = node.children
    if first.point != second.point:
        return _fail(path, None, "children must split the same point")
    if {first.color, second.color} != {RED, BLUE}:
        return _fail(path, None, "children must assume opposite colors")
    if first.point in state:
        return _fail(path, None, "split point already colored")
    for child in (first, second):
        result = reference_verify_node(spec, domain_end, child, dict(state), path)
        if not result.ok:
            return result
    return CertificateCheck()


def reference_verify_certificate(certificate):
    spec = certificate.spec
    first, second = certificate.root
    if first.point != spec.gamma or second.point != spec.gamma:
        return _fail((), None, "root must branch on the left endpoint")
    if {first.color, second.color} != {RED, BLUE}:
        return _fail((), None, "root branches must assume opposite colors")
    for node in certificate.root:
        result = reference_verify_node(spec, certificate.domain_end, node, {}, ())
        if not result.ok:
            return result
    return CertificateCheck()


def reference_witness_from_json(obj, spec):
    witness = SolutionWitness.from_json(obj)
    if witness.total_multiplicity != spec.arity(witness.color):
        raise ValueError(
            f"witness arity {witness.total_multiplicity} does not match the "
            f"{witness.color.value} equation of (k={spec.k}, l={spec.l})"
        )
    return witness


def reference_node_from_json(obj, spec):
    if not isinstance(obj, dict) or "assume" not in obj or "steps" not in obj:
        raise ValueError("branch node must carry assume and steps")
    assume = obj["assume"]
    if not isinstance(assume, dict) or set(assume) != {"point", "color"}:
        raise ValueError("assume must carry exactly point and color")
    try:
        color = Color(assume["color"])
    except ValueError:
        raise ValueError(f"unknown color {assume['color']!r}") from None
    point = parse_rational(assume["point"])
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
        steps.append(
            ForcingStep(
                parse_rational(item["point"]), forced, reference_witness_from_json(item["witness"], spec)
            )
        )
    has_contradiction = "contradiction" in obj
    has_children = "children" in obj
    if has_contradiction == has_children:
        raise ValueError("branch node must end in exactly one of contradiction or children")
    if has_contradiction:
        witness = reference_witness_from_json(obj["contradiction"], spec)
        return BranchNode(point, color, tuple(steps), witness)
    children = obj["children"]
    if not (isinstance(children, list) and len(children) == 2):
        raise ValueError("children must be a pair")
    pair = (reference_node_from_json(children[0], spec), reference_node_from_json(children[1], spec))
    return BranchNode(point, color, tuple(steps), children=pair)


def reference_certificate_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"spec", "domain_end", "root"}:
        raise ValueError("certificate must carry exactly spec, domain_end, root")
    spec = ProblemSpec.from_json(obj["spec"])
    root = obj["root"]
    if not (isinstance(root, list) and len(root) == 2):
        raise ValueError("root must be a pair of branch nodes")
    return ForcingCertificate(
        spec,
        parse_rational(obj["domain_end"]),
        (reference_node_from_json(root[0], spec), reference_node_from_json(root[1], spec)),
    )


def spine(cert, branch, points):
    """``cert`` with root branch ``branch`` deepened by one useless split per
    point: the red child of every split replays the branch's tail, the blue
    child splits again, and the last blue child replays the tail too."""
    node = cert.root[branch]

    def tail(point, color):
        return dataclasses.replace(node, point=point, color=color)

    below = tail(points[-1], BLUE)
    for i in range(len(points) - 1, -1, -1):
        pair = (tail(points[i], RED), below)
        if i == 0:
            below = BranchNode(node.point, node.color, (), children=pair)
        else:
            below = BranchNode(points[i - 1], BLUE, (), children=pair)
    root = list(cert.root)
    root[branch] = below
    return dataclasses.replace(cert, root=tuple(root))


def _property_bases():
    bases = [
        build_k2_certificate(3),
        build_k2_certificate(6),
        certify_upper(ProblemSpec(3, 5)),  # a built blue-1 branch beside an auto-proved one
        certify_upper(ProblemSpec(4, 6)),
        certify_upper(ProblemSpec(4, 5), grid_denominator=1),
        certify_upper(ProblemSpec(2, 4), grid_denominator=2),
        certify_upper(ProblemSpec(3, 4), grid_denominator=3),
    ]
    bases.append(spine(bases[0], 0, [Fraction(1) + Fraction(i, 11) for i in (3, 7, 5)]))
    bases.append(spine(bases[2], 1, [Fraction(1) + Fraction(i, 13) for i in (9, 2)]))
    for path in sorted(DATA.glob("certificate-*.json")):
        bases.append(reference_certificate_from_json(json.loads(path.read_text(encoding="ascii"))))
    # Auto-proved branches split only below an inner assumption.  Each pair
    # holds both colors of one inner point, so it fails the root check, but
    # verify_branch accepts each of its nodes.
    for k, l, p in ((3, 3, 5), (3, 4, 2)):
        spec = ProblemSpec(k, l)
        pair = tuple(auto_prove(spec, 1, [(Fraction(p), color)]) for color in (RED, BLUE))
        bases.append(ForcingCertificate(spec, Fraction(k * l + k - 1), pair))
    return bases


BASES = _property_bases()
MUTATIONS = (
    "assume-point", "assume-color", "step-point", "step-color", "witness-color",
    "witness-value", "witness-x0", "witness-multiplicity", "contradiction-value",
    "contradiction-x0", "drop-step", "duplicate-step", "swap-children", "split-point", "domain-end",
)


def _nodes(cert):
    """(path of child indices from the root pair, node) for every node."""
    out, stack = [], [((i,), node) for i, node in enumerate(cert.root)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        if node.children is not None:
            stack.extend((path + (j,), child) for j, child in enumerate(node.children))
    return out


def _replace_node(cert, path, new):
    chain = [cert.root[path[0]]]
    for j in path[1:]:
        chain.append(chain[-1].children[j])
    for depth in range(len(path) - 1, 0, -1):
        children = list(chain[depth - 1].children)
        children[path[depth]] = new
        new = dataclasses.replace(chain[depth - 1], children=tuple(children))
    root = list(cert.root)
    root[path[0]] = new
    return dataclasses.replace(cert, root=tuple(root))


def _mutated_witness(draw, w, kind, values):
    left, x0, color = list(w.left), w.x0, w.color
    i = draw(st.integers(0, len(left) - 1))
    if kind == "value":
        left[i] = (draw(values), left[i][1])
    elif kind == "multiplicity":
        m = left[i][1] + draw(st.sampled_from((-1, 1, 2)))
        left[i:i + 1] = [(left[i][0], m)] if m >= 1 else []
    elif kind == "x0":
        x0 = draw(values)
    else:
        color = color.opposite
    return SolutionWitness(color, tuple(left), x0)


def _eligible(kind, path, node):
    if kind.startswith("assume"):
        return len(path) > 1  # a moved or recolored root fails the root check first
    if kind in ("swap-children", "split-point"):
        return node.children is not None
    if kind.startswith("contradiction"):
        return node.contradiction is not None
    return bool(node.steps)


@st.composite
def mutated_certificates(draw):
    cert = draw(st.sampled_from(BASES))
    used = {Fraction(p) for p in points_used(cert)}
    shifts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3)]
    values = st.builds(
        lambda v, s: v + s, st.sampled_from(sorted(used | {cert.domain_end})), st.sampled_from(shifts)
    )
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "domain-end":
            cert = dataclasses.replace(cert, domain_end=draw(values))
            continue
        eligible = [(path, node) for path, node in _nodes(cert) if _eligible(kind, path, node)]
        if not eligible:
            continue
        path, node = draw(st.sampled_from(eligible))
        if kind == "assume-point":
            node = dataclasses.replace(node, point=draw(values))
        elif kind == "assume-color":
            node = dataclasses.replace(node, color=node.color.opposite)
        elif kind == "swap-children":
            node = dataclasses.replace(node, children=node.children[::-1])
        elif kind == "split-point":
            colored = [node.point] + [step.point for step in node.steps]
            point = draw(st.sampled_from(colored) | values)
            pair = tuple(dataclasses.replace(child, point=point) for child in node.children)
            node = dataclasses.replace(node, children=pair)
        elif kind.startswith("contradiction"):
            w = _mutated_witness(draw, node.contradiction, kind.split("-")[1], values)
            node = dataclasses.replace(node, contradiction=w)
        else:
            steps = list(node.steps)
            i = draw(st.integers(0, len(steps) - 1))
            step = steps[i]
            if kind == "drop-step":
                del steps[i]
            elif kind == "duplicate-step":
                steps.insert(draw(st.integers(i + 1, len(steps))), step)
            elif kind == "step-point":
                steps[i] = dataclasses.replace(step, point=draw(values))
            elif kind == "step-color":
                steps[i] = dataclasses.replace(step, forced=step.forced.opposite)
            else:
                w = _mutated_witness(draw, step.witness, kind.split("-")[1], values)
                steps[i] = dataclasses.replace(step, witness=w)
            node = dataclasses.replace(node, steps=tuple(steps))
        cert = _replace_node(cert, path, node)
    return cert


def _outcome(parse, doc):
    """The parse, or the message of the ValueError it raised; any other
    exception escapes and fails the test."""
    try:
        return parse(doc)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(mutated_certificates(), st.data())
def test_replay_matches_the_recursive_reference(cert, data):
    assert verify_certificate(cert) == reference_verify_certificate(cert)
    # one branch under ambient pre-colored points, as the prover checks it
    node = data.draw(st.sampled_from(cert.root))
    points = [node.point] + [step.point for step in node.steps]
    ambient = data.draw(st.dictionaries(st.sampled_from(points), st.sampled_from((RED, BLUE))))
    expected = reference_verify_node(cert.spec, cert.domain_end, node, dict(ambient), ())
    assert verify_branch(cert.spec, cert.domain_end, node, ambient) == expected
    # the emitted file parses as the reference parses it (a wrong arity is a
    # schema error there) and replays the same
    doc = json.loads(canonical_json(certificate_as_json(cert)))
    parsed = _outcome(certificate_from_json, doc)
    assert parsed == _outcome(reference_certificate_from_json, doc)
    if not isinstance(parsed, str):
        assert verify_certificate(parsed) == verify_certificate(cert)


def test_property_bases_verify_and_some_split():
    for cert in BASES:
        if cert.root[0].point == cert.spec.gamma:
            assert verify_certificate(cert).ok
        else:
            assert all(verify_branch(cert.spec, cert.domain_end, node).ok for node in cert.root)
    # splits are where the undo trail is unwound
    assert sum(any(node.children for _, node in _nodes(cert)) for cert in BASES) >= 4


JUNK = (None, True, 3, 2.5, [], {}, ["1", 1], "x", "1/0", "1.5", "-2", "0", "7/3", "green", "red")


@st.composite
def damaged_documents(draw):
    """Certificate JSON with one to three values replaced, deleted or junked."""
    doc = json.loads(canonical_json(certificate_as_json(draw(st.sampled_from(BASES)))))
    for _ in range(draw(st.integers(1, 3))):
        places, stack = [], [doc]
        while stack:
            container = stack.pop()
            keys = container if isinstance(container, dict) else range(len(container))
            for key in keys:
                places.append((container, key))
                if isinstance(container[key], (dict, list)):
                    stack.append(container[key])
        if not places:  # every key was deleted
            break
        parent, key = draw(st.sampled_from(places))
        action = draw(st.sampled_from(("junk", "junk", "delete", "swap")))
        if action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "swap" and isinstance(parent, list) and len(parent) > 1:
            parent[0], parent[-1] = parent[-1], parent[0]
        else:
            parent[key] = draw(st.sampled_from(JUNK))
    return doc


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(damaged_documents())
def test_parse_matches_the_recursive_reference_on_damaged_files(doc):
    got = _outcome(certificate_from_json, doc)
    assert got == _outcome(reference_certificate_from_json, doc)
    if not isinstance(got, str):
        assert verify_certificate(got) == reference_verify_certificate(got)


def _first_primes(count):
    sieve = bytearray([1]) * 20000
    sieve[:2] = b"\0\0"
    for p in range(2, 142):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(len(sieve)) if sieve[p]][:count]


def test_hostile_denominators_stay_cheap():
    # 2000 steps, each forcing 1 + l/q red for its own denominator q through
    # the blue solution (l - q) * 1 + q * (1 + l/q) = 2l, with q the 30th power
    # of one of the first 2000 primes and l = 2^521 - 1, a prime above every q.
    # A scale common to the file would be the product of all the q, about
    # 745,000 bits; checking every step over it took 18 s where this replay
    # takes 0.02 s.  With bare primes that product has only 25,000 bits and
    # such a replay stays under a second, so it would not show here.
    l = 2**521 - 1
    cert = build_k2_certificate(l)
    blue = cert.root[1]
    inserted = []
    for p in _first_primes(2000):
        q = p**30
        x = 1 + Fraction(l, q)
        inserted.append(ForcingStep(x, RED, SolutionWitness(BLUE, ((Fraction(1), l - q), (x, q)), 2 * l)))
    assert blue.steps[1].point == 2 * l and blue.steps[1].forced is BLUE
    steps = blue.steps[:2] + tuple(inserted) + blue.steps[2:]
    broken_step = dataclasses.replace(
        inserted[-1], witness=dataclasses.replace(inserted[-1].witness, x0=Fraction(2 * l + 1))
    )
    broken_steps = steps[:2001] + (broken_step,) + steps[2002:]
    for tree, ok in ((steps, True), (broken_steps, False)):
        certificate = dataclasses.replace(cert, root=(cert.root[0], dataclasses.replace(blue, steps=tree)))
        text = canonical_json(certificate_as_json(certificate))
        start = time.perf_counter()
        check = verify_certificate(certificate_from_json(json.loads(text)))
        assert time.perf_counter() - start < 2.0
        assert check.ok is ok
        assert check == reference_verify_certificate(certificate)
    assert check.failure == CheckFailure(
        ("1=blue",), 2001, "witness fails arithmetic, arity, or domain-start check"
    )
