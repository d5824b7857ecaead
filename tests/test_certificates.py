import dataclasses
import json
from fractions import Fraction

import pytest

from offrado.certificates import (
    BranchNode,
    ForcingStep,
    UnprovedError,
    auto_prove,
    build_blue1_certificate,
    build_k2_certificate,
    certificate_as_json,
    certificate_from_json,
    certificate_stats,
    certify_upper,
    residue_params,
    verify_branch,
    verify_certificate,
)
from offrado.equations import Color, ProblemSpec, SolutionWitness
from offrado.search import search_valid
from offrado.serialize import canonical_json

RED, BLUE = Color.RED, Color.BLUE


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
        stats = certificate_stats(cert)
        assert stats["points_used"] == ["1", "3/2", "2", "5/2", "3", "4", "5", "6", "7"]
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
            certify_upper(ProblemSpec(2, 4), force_auto=True, auto_denominator=1)
        assert info.value.branch == "red"

    def test_force_auto_half_grid(self):
        cert = certify_upper(ProblemSpec(2, 4), force_auto=True, auto_denominator=2)
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
