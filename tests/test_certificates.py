import ast
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from offrado.certificates import (
    UnprovedError,
    auto_prove,
    build_blue1_certificate,
    build_k2_certificate,
    certify_upper,
    residue_params,
    verify_certificate,
    _ChainBuilder,
    _branch_node,
    _grid_system,
    _trim,
)
from offrado.checker import (
    CertificateCheck,
    CheckFailure,
    certificate_from_json,
    certificate_stats,
    check_certificate,
    points_used,
    _branch_label,
    _fail,
    _read_nodes,
    _replay,
)
from offrado import certificates, checker, cli
from offrado.equations import Color, ProblemSpec, SolutionWitness, check_witness
from offrado.propagation import Satisfiable, SumsetHandle, dpll
from offrado.search import search_valid
from offrado.serialize import canonical_json, format_rational, parse_rational

RED, BLUE = Color.RED, Color.BLUE
DATA = Path(__file__).parent / "data"


def branch_points(node):
    """Every point a branch node in its file form assumes or forces."""
    points, stack = [], [node]
    while stack:
        node = stack.pop()
        points.append(parse_rational(node["assume"]["point"]))
        points += [parse_rational(step["point"]) for step in node["steps"]]
        stack += node.get("children", [])
    return points


def replay_branch(spec, end, node):
    """Read one branch node and replay it from no colored point; a node that
    breaks the schema raises ValueError."""
    return _replay(spec, end, _read_nodes(spec, [node]))


def closes(spec, d, color):
    """Whether ``auto_prove`` refutes the branch "1 is ``color``" on the 1/d
    grid and that refutation replays."""
    try:
        node = auto_prove(spec, d, color)
    except Satisfiable:
        return False
    return node is not None and replay_branch(spec, spec.k * spec.l + spec.k - 1, node).ok


# certify-upper's assembly paths: k = 2 built whole, a built blue-start
# branch beside an auto-proved red one, the diagonal auto-proved, and every
# branch auto-proved on the 1/d grid
PATHS = (("2", "5"), ("4", "6"), ("5", "5"), ("3", "4", "--grid-denominator", "3"))
PATH_IDS = ("k2-built", "blue-built", "diagonal", "grid-3")


def rejected(doc) -> bool:
    """True when the schema pass or the replay refuses a document."""
    try:
        return not verify_certificate(doc).ok
    except ValueError:
        return True


class TestK2Builder:
    def test_l3_structure(self):
        cert = build_k2_certificate(3)
        assert verify_certificate(cert).ok
        assert cert["domain_end"] == "7"
        nodes = certificate_from_json(cert)[2]
        assert points_used(nodes) == ["1", "3/2", "2", "5/2", "3", "4", "5", "6", "7"]
        red_branch = cert["root"][0]
        assert red_branch["assume"]["color"] == "red"
        assert Fraction(3, 2) in branch_points(red_branch)
        assert Fraction(5, 2) in branch_points(red_branch)

    def test_l2_degenerate_chain_still_verifies(self):
        cert = build_k2_certificate(2)
        assert verify_certificate(cert).ok
        assert cert["domain_end"] == "5"
        # cross-check with the automatic prover on the half grid
        for color in (RED, BLUE):
            assert closes(ProblemSpec(2, 2), 2, color)

    def test_l10(self):
        cert = build_k2_certificate(10)
        assert verify_certificate(cert).ok
        assert cert["domain_end"] == "21"

    def test_rejects_l1(self):
        with pytest.raises(ValueError):
            build_k2_certificate(1)

    def test_half_points_in_every_red_branch(self):
        for l in range(3, 11):
            points = branch_points(build_k2_certificate(l)["root"][0])
            assert Fraction(3, 2) in points and Fraction(5, 2) in points

    def test_every_l_through_40_verifies(self):
        # small l collide planned points, so skipped steps and short-circuits run here
        for l in range(2, 41):
            cert = build_k2_certificate(l)
            assert verify_certificate(cert).ok
            assert cert["domain_end"] == str(2 * l + 1)


class TestTamperResistance:
    """Single-field mutations of a verified certificate must all be caught,
    by the schema pass or by the replay."""

    def assert_every_step_caught(self, change):
        base = build_k2_certificate(3)
        located = [(b, i) for b, node in enumerate(base["root"]) for i in range(len(node["steps"]))]
        assert located
        for b, i in located:
            doc = copy.deepcopy(base)
            change(doc["root"][b]["steps"][i])
            assert rejected(doc), (b, i)

    @staticmethod
    def shifted(text, delta):
        return format_rational(parse_rational(text) + delta)

    def test_every_point_mutation_fails(self):
        def change(step):
            step["point"] = self.shifted(step["point"], Fraction(1, 3))

        self.assert_every_step_caught(change)

    def test_every_color_flip_fails(self):
        def change(step):
            step["forced"] = Color(step["forced"]).opposite.value

        self.assert_every_step_caught(change)

    def test_every_witness_color_flip_fails(self):
        def change(step):
            step["witness"]["color"] = Color(step["witness"]["color"]).opposite.value

        self.assert_every_step_caught(change)

    def test_every_witness_sum_break_fails(self):
        def change(step):
            step["witness"]["x0"] = self.shifted(step["witness"]["x0"], 1)

        self.assert_every_step_caught(change)

    def test_every_witness_value_shift_fails(self):
        def change(step):
            entry = step["witness"]["left"][0]
            entry[0] = self.shifted(entry[0], Fraction(1, 7))

        self.assert_every_step_caught(change)

    def test_out_of_domain_point_fails(self):
        doc = build_k2_certificate(3)
        big = SolutionWitness.from_values(RED, [1, Fraction(15, 2)], Fraction(17, 2))
        doc["root"][0]["steps"].append({"point": "17/2", "forced": "blue", "witness": big.as_json()})
        check = verify_certificate(doc)
        assert not check.ok and "domain" in check.failure.reason

    def test_failure_names_location(self):
        doc = build_k2_certificate(3)
        step = doc["root"][1]["steps"][2]
        step["forced"] = Color(step["forced"]).opposite.value
        check = verify_certificate(doc)
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
        assert node["assume"] == {"point": "1", "color": "blue"}
        assert replay_branch(spec, Fraction(k * l + k - 1), node).ok

    def test_vanishing_residue_closes_early(self):
        node = build_blue1_certificate(ProblemSpec(3, 4))
        assert [s["point"] for s in node["steps"]] == ["4", "12", "3", "5", "9"]
        assert node["contradiction"]["x0"] == "12"  # 1+1+1+9 = 12, all blue

    def test_nonzero_residue_full_chain(self):
        node = build_blue1_certificate(ProblemSpec(3, 7))
        assert [s["point"] for s in node["steps"]] == ["7", "21", "3", "8", "13", "2", "6", "12"]
        assert node["contradiction"]["x0"] == "12"  # 1x6 + 6 = 12, all blue

    def test_collision_with_doubled_small_arity(self):
        # 2k = l here; the planned step turns into an immediate contradiction
        node = build_blue1_certificate(ProblemSpec(3, 6))
        assert replay_branch(ProblemSpec(3, 6), Fraction(20), node).ok
        assert node["contradiction"]["color"] == "red"

    def test_every_pair_through_15_verifies(self):
        for k in range(3, 15):
            for l in range(k + 1, 16):
                spec = ProblemSpec(k, l)
                node = build_blue1_certificate(spec)
                assert node["assume"] == {"point": "1", "color": "blue"}
                assert replay_branch(spec, Fraction(k * l + k - 1), node).ok

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            build_blue1_certificate(ProblemSpec(3, 3))
        with pytest.raises(ValueError):
            build_blue1_certificate(ProblemSpec(2, 4))


class TestChainBuilder:
    """The builder checks no witness: the replay of its document is what
    refuses a plan whose witness has an entry not yet colored.  The plans
    are on integer ids, d = 1."""

    spec = ProblemSpec(2, 3)

    def replay(self, chain):
        return replay_branch(self.spec, 7, chain.node(1))

    def test_force_with_uncolored_entry_fails(self):
        chain = _ChainBuilder(1, RED)
        chain.force(4, BLUE, (2, 2))  # 2 is not colored
        chain.close(RED, (1, 2))
        check = self.replay(chain)
        assert check.failure == CheckFailure(("1=red",), 0, "entry 2 is not already colored red")

    def test_close_with_uncolored_entry_fails(self):
        chain = _ChainBuilder(1, RED)
        chain.close(RED, (1, 1), (2, 1))
        check = self.replay(chain)
        assert check.failure == CheckFailure(("1=red",), None, "contradiction entry 2 is not colored red")

    def test_short_circuit_with_uncolored_entry_fails(self):
        # 1 is already red, the witness color, so force short-circuits to a
        # contradiction whose entries 2 and 3 are not colored
        chain = _ChainBuilder(1, RED)
        chain.force(1, BLUE, (1, 1), (2, 1))
        assert chain.forcings == []
        assert (chain.conflict.color, chain.conflict.runs) == (RED, [(1, 1), (2, 1)])
        check = self.replay(chain)
        assert check.failure == CheckFailure(("1=red",), None, "contradiction entry 2 is not colored red")

    def test_builder_check_turns_a_bad_plan_into_an_internal_fault(self, monkeypatch):
        chain = _ChainBuilder(1, RED)
        chain.close(RED, (1, 1), (2, 1))
        good = build_k2_certificate(3)
        bad = {**good, "root": [chain.node(1), good["root"][1]]}
        monkeypatch.setattr(certificates, "build_k2_certificate", lambda l: bad)
        with pytest.raises(RuntimeError, match="failed its own check"):
            certify_upper(self.spec)


class TestAutoProve:
    def test_integer_grid_closes_for_k3(self):
        node = auto_prove(ProblemSpec(3, 4), 1, RED)
        assert node is not None
        assert node["assume"] == {"point": "1", "color": "red"}
        assert replay_branch(ProblemSpec(3, 4), Fraction(14), node).ok

    def test_unit_grid_at_23_closes_because_values_coincide(self):
        # S(2,3) = 7 both discretely and continuously, so integers alone
        # refute; half-steps only become necessary from l = 4 on.
        assert closes(ProblemSpec(2, 3), 1, RED)

    def test_half_grid_at_23_closes_too(self):
        node = auto_prove(ProblemSpec(2, 3), 2, RED)
        assert node is not None
        assert replay_branch(ProblemSpec(2, 3), Fraction(7), node).ok

    @pytest.mark.parametrize("l", [4, 5])
    def test_unit_grid_fails_then_half_grid_closes(self, l):
        spec = ProblemSpec(2, l)
        with pytest.raises(Satisfiable):
            auto_prove(spec, 1, RED)
        node = auto_prove(spec, 2, RED)
        assert node is not None
        assert replay_branch(spec, Fraction(2 * l + 1), node).ok

    def test_depth_exhaustion_is_none(self, monkeypatch):
        # 1 = red leaves the unit grid of (2,5) partly free after forcing, so
        # depth 0 runs out before any split; with splits the search finds a
        # valid coloring and raises Satisfiable.  TestDpll has a tree that
        # needs splits.
        returned = []
        monkeypatch.setattr(certificates, "dpll", lambda *args: returned.append(dpll(*args)))
        assert auto_prove(ProblemSpec(2, 5), 1, RED, max_branch_depth=0) is None
        assert returned == [None]  # a valid coloring would have raised Satisfiable instead

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative integer depth"):
            auto_prove(ProblemSpec(3, 3), 1, RED, max_branch_depth=-1)

    def test_assumption_chain_closes_without_branching(self):
        # the half-grid refutation of (2,5) from 1=Red is pure forcing
        node = auto_prove(ProblemSpec(2, 5), 2, RED, max_branch_depth=0)
        assert node is not None and "children" not in node
        assert replay_branch(ProblemSpec(2, 5), Fraction(11), node).ok

    def test_agrees_with_discrete_search(self):
        for k in range(3, 6):
            for l in range(k, 6):
                spec = ProblemSpec(k, l)
                closed = all(closes(spec, 1, color) for color in (RED, BLUE))
                uncolorable = search_valid(k * l + k - 1, spec) is None
                assert closed == uncolorable

    @pytest.mark.parametrize(
        "denominator", [0, -2, Fraction(1, 2)], ids=["denominator-0", "denominator-negative", "denominator-half"]
    )
    def test_bad_input_rejected(self, denominator):
        with pytest.raises(ValueError):
            auto_prove(ProblemSpec(3, 4), denominator, RED)


class TestCertifyUpper:
    @pytest.mark.parametrize("k,l", [(2, 3), (3, 4), (3, 3)])
    def test_verified_certificates(self, k, l):
        cert, nodes = certify_upper(ProblemSpec(k, l))
        assert verify_certificate(cert).ok
        assert nodes == certificate_from_json(cert)[2]
        assert cert["domain_end"] == str(k * l + k - 1)

    def test_unproved_surfaces_explicitly(self):
        with pytest.raises(UnprovedError) as info:
            certify_upper(ProblemSpec(2, 4), grid_denominator=1)
        assert info.value.branch == "red" and info.value.colorable is True
        with pytest.raises(UnprovedError) as info:
            certify_upper(ProblemSpec(2, 5), grid_denominator=1, max_depth=0)
        assert info.value.depth == 0 and info.value.colorable is False

    def test_force_auto_half_grid(self):
        cert, _ = certify_upper(ProblemSpec(2, 4), grid_denominator=2)
        assert verify_certificate(cert).ok

    def test_rejects_scaled_domain(self):
        with pytest.raises(ValueError):
            certify_upper(ProblemSpec(2, 3, 2))

    @pytest.mark.parametrize("damage", ["schema", "replay"])
    def test_emission_fault_is_an_internal_error(self, capsys, monkeypatch, damage):
        # certify_upper checks the document it assembled on every assembly
        # path, so a fault in what the builders emit is an internal fault
        # (exit 70), never the invalid input of a schema error (64) nor a
        # failed verification (1).  The built chains and the auto-proved
        # branches write every witness through _witness_json, which is damaged
        def damaged(write):
            def broken(*args):
                out = write(*args)
                if damage == "schema":
                    out["note"] = "x"
                else:
                    out["x0"] = format_rational(parse_rational(out["x0"]) + 1)
                return out

            return broken

        monkeypatch.setattr(certificates, "_witness_json", damaged(certificates._witness_json))
        for argv in PATHS:
            code = cli.main(["certify-upper", *argv])
            doc = json.loads(capsys.readouterr().out)
            assert (code, doc["status"]) == (70, "InternalError"), argv
            assert doc["payload"]["error"].startswith("certificate failed its own check: ")

    @pytest.mark.parametrize("argv", PATHS, ids=PATH_IDS)
    def test_one_schema_pass_and_one_replay(self, capsys, monkeypatch, argv):
        # certify_upper reads and replays the assembled document once, and
        # cmd_certify_upper counts from the tuples it returns
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        # each name is counted where its callers look it up
        for module in (certificates, cli):
            counted(module, "certificate_from_json")
            counted(module, "check_certificate")
        counted(checker, "_read_nodes")
        counted(checker, "_replay")
        assert cli.main(["certify-upper", *argv]) == 0
        capsys.readouterr()
        assert calls == {
            "certificate_from_json": 1, "_read_nodes": 1, "_replay": 1, "check_certificate": 1,
        }


class TestSerialization:
    def test_round_trip_bit_identical(self):
        # a builder's document is plain JSON data: it reads back equal, and
        # the schema pass reads the same tuples from both
        for spec in (ProblemSpec(2, 3), ProblemSpec(3, 4)):
            cert, nodes = certify_upper(spec)
            text = canonical_json(cert)
            again = json.loads(text)
            assert again == cert
            assert canonical_json(again) == text
            assert certificate_from_json(again)[2] == nodes

    def test_verification_after_round_trip(self):
        cert = build_k2_certificate(5)
        assert verify_certificate(json.loads(canonical_json(cert))).ok

    def test_arity_mismatch_is_schema_error(self):
        doc = build_k2_certificate(3)
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
            lambda d: d["root"][0].update(children=[]),  # both endings
            lambda d: d["spec"].pop("gamma"),
            lambda d: d["spec"].update(note="x"),
            lambda d: d["root"][0].update(note="hello"),
            lambda d: d["root"][0].pop("contradiction"),  # neither ending
        ],
    )
    def test_schema_violations(self, mutate):
        doc = build_k2_certificate(3)
        mutate(doc)
        with pytest.raises(ValueError):
            certificate_from_json(doc)
        with pytest.raises(ValueError):
            verify_certificate(doc)

    def test_tampered_file_fails_verification_not_parsing(self):
        doc = build_k2_certificate(3)
        doc["root"][0]["steps"][0]["forced"] = "red"  # was blue
        certificate_from_json(doc)
        check = verify_certificate(doc)
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
            points.update(support(step.witness))
        if node.contradiction is not None:
            witnesses.append(node.contradiction)
            points.update(support(node.contradiction))
        else:
            for child in node.children:
                TestCertificateSemantics.collect(child, witnesses, points)

    @pytest.mark.parametrize(
        "k,l",
        [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5)],
    )
    def test_point_set_is_uncolorable(self, k, l):
        from itertools import product

        cert = reference_certificate_from_json(certify_upper(ProblemSpec(k, l))[0])
        witnesses, points = [], set()
        for node in cert.root:
            self.collect(node, witnesses, points)
        points = sorted(points)
        assert len(points) <= 12
        checks = [(w.color, support(w)) for w in witnesses]
        for assignment in product((RED, BLUE), repeat=len(points)):
            coloring = dict(zip(points, assignment))
            assert any(
                all(coloring[v] is color for v in values) for color, values in checks
            ), f"({k},{l}): {coloring} dodges every witness"


class TestVerifierStructure:
    def test_root_must_sit_on_the_left_endpoint(self):
        doc = build_k2_certificate(3)
        doc["root"][0]["assume"]["point"] = "2"
        check = verify_certificate(doc)
        assert not check.ok and "left endpoint" in check.failure.reason

    def test_root_colors_must_differ(self):
        doc = build_k2_certificate(3)
        doc["root"][1] = doc["root"][0]
        check = verify_certificate(doc)
        assert not check.ok and "opposite colors" in check.failure.reason

    def test_children_must_split_one_point(self):
        w12 = SolutionWitness.from_values(RED, [1, 1], 2).as_json()

        def leaf(point, color):
            return {"assume": {"point": point, "color": color}, "steps": [], "contradiction": w12}

        # each child would close on (1,1)->2, but they assume different points
        split = {
            "assume": {"point": "1", "color": "red"}, "steps": [],
            "children": [leaf("2", "red"), leaf("3", "blue")],
        }
        check = replay_branch(ProblemSpec(2, 2), Fraction(5), split)
        assert not check.ok and "same point" in check.failure.reason

    def test_branch_path_labels_nested_assumptions(self):
        spec = ProblemSpec(3, 3)
        node = inner_branch(spec, 5, RED)
        assert "children" in node
        # break the deepest reachable step and confirm the path points there
        step = node["children"][0]["steps"][0]
        step["forced"] = Color(step["forced"]).opposite.value
        check = replay_branch(spec, Fraction(11), node)
        assert not check.ok
        assert len(check.failure.path) == 2 and check.failure.step_index == 0


class TestCheckerModule:
    """``offrado.checker`` decides every printed upper bound, so whatever it
    imports from the package is part of what must be trusted."""

    PACKAGE = Path(checker.__file__).resolve().parent
    MOVED = (
        "Key", "CheckFailure", "CertificateCheck", "_fail", "_branch_label", "_key",
        "_witness_failure", "_replay", "check_certificate", "certificate_stats", "points_used",
        "_COLORS", "_ASSUME_KEYS", "_WITNESS_KEYS", "_color", "_content", "_read_nodes",
        "certificate_from_json", "Tree",
    )

    def imports(self, name):
        """The package modules and the other top-level modules that one
        module of the package imports, found in its source."""
        tree = ast.parse((self.PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        own, other = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            elif isinstance(node, ast.ImportFrom):  # relative: inside the package
                own.update([node.module] if node.module else [a.name for a in node.names])
                continue
            else:
                continue
            for module in modules:
                top, _, rest = module.partition(".")
                if top != "offrado":
                    other.add(top)
                elif rest:
                    own.add(rest)
                else:
                    own.update(alias.name for alias in node.names)
        return {m.partition(".")[0] for m in own}, other

    def test_import_closure_stays_within_equations_and_serialize(self):
        # no search, prover, interval algebra or command module, however deep
        reached, todo = set(), ["checker"]
        while todo:
            for module in self.imports(todo.pop())[0] - reached:
                reached.add(module)
                todo.append(module)
        assert reached <= {"equations", "serialize"}, reached
        assert self.imports("checker")[1] <= {"__future__", "fractions", "math", "typing"}

    def test_every_checker_name_is_defined_once_in_the_checker(self):
        defined = Counter()
        for path in sorted(self.PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                defined.update((name, path.stem) for name in names if name in self.MOVED)
        assert defined == Counter({(name, "checker"): 1 for name in self.MOVED})


class TestOneStatementPerDecision:
    """Each decision that several modules need is stated in one module of the
    package, found in the sources: the others call it."""

    PACKAGE = Path(checker.__file__).resolve().parent

    def modules_where(self, found):
        """The modules of the package with some syntax node that ``found``
        accepts."""
        return {
            path.stem
            for path in sorted(self.PACKAGE.glob("*.py"))
            if any(map(found, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
        }

    def test_certificates_imports_no_private_name_from_propagation(self):
        tree = ast.parse((self.PACKAGE / "certificates.py").read_text(encoding="utf-8"))
        names = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("propagation")
            for alias in node.names
        ]
        assert names and not [name for name in names if name.startswith("_")], names

    def test_the_continuous_value_is_computed_in_equations(self):
        # x * y + x - 1, whatever x and y are called: the suite restates it as
        # the independent check of formula_continuous
        def s_r(node):
            return (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.right, ast.Constant) and node.right.value == 1
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
                and isinstance(node.left.left, ast.BinOp)
                and isinstance(node.left.left.op, ast.Mult)
                and ast.dump(node.left.left.left) == ast.dump(node.left.right)
            )

        assert self.modules_where(s_r) == {"equations", "suite"}

    def test_the_arity_of_a_color_is_read_in_equations(self):
        # x.k if ... else x.l
        def arity(node):
            return (
                isinstance(node, ast.IfExp)
                and isinstance(node.body, ast.Attribute) and node.body.attr == "k"
                and isinstance(node.orelse, ast.Attribute) and node.orelse.attr == "l"
            )

        assert self.modules_where(arity) == {"equations"}

    def test_a_rational_is_written_in_serialize(self):
        # f"{p}/{q}"
        def ratio(node):
            return isinstance(node, ast.JoinedStr) and any(
                isinstance(a, ast.FormattedValue) and isinstance(b, ast.Constant)
                and b.value == "/" and isinstance(c, ast.FormattedValue)
                for a, b, c in zip(node.values, node.values[1:], node.values[2:])
            )

        assert self.modules_where(ratio) == {"serialize"}

    def test_a_solution_inside_a_mask_is_decoded_in_propagation(self):
        # a handle's mask is read, and the decoder defined, only there
        def decoder(node):
            return (isinstance(node, ast.Attribute) and node.attr == "own") or (
                isinstance(node, ast.FunctionDef) and node.name.endswith("least_parts")
            )

        assert self.modules_where(decoder) == {"propagation"}
        assert not hasattr(SumsetHandle, "clause")

    def test_certificates_plan_on_ids_and_write_nodes_in_one_place(self):
        # no exact rational reaches the builders or the prover, and only
        # _branch_node builds a node's file form, a dict with an "assume" key
        tree = ast.parse((self.PACKAGE / "certificates.py").read_text(encoding="utf-8"))
        imported = {
            (node.module or "", alias.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not [pair for pair in imported if "fractions" in pair], imported
        assert not {name for _, name in imported} & {"SolutionWitness", "exact_fraction"}
        writers = {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Dict)
            and any(isinstance(key, ast.Constant) and key.value == "assume" for key in node.keys)
        }
        assert writers == {"_branch_node"}
        assert not hasattr(certificates, "_w") and not hasattr(certificates, "_node")

    def test_intervals_order_ends_in_one_place_and_merge_and_sweep_once(self):
        # the closure flags become order keys only in Interval._lo_key and
        # _hi_key, and one _merge and one _meet serve the exact algebra and
        # the int fold alike
        tree = ast.parse((self.PACKAGE / "intervals.py").read_text(encoding="utf-8"))
        functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        assert "_mergeable_with" not in {fn.name for fn in functions}

        def flag(node):
            return isinstance(node, ast.Attribute) and node.attr in ("lo_closed", "hi_closed")

        def keyed(node):
            # a flag ordered or counted: paired with a non-flag in a tuple, in
            # arithmetic, in a comparison, or in a condition beside one
            has_flag = any(map(flag, ast.walk(node)))
            if isinstance(node, ast.Tuple):
                return has_flag and not all(map(flag, node.elts))
            if isinstance(node, ast.BoolOp):
                return has_flag and any(isinstance(n, ast.Compare) for n in ast.walk(node))
            return has_flag and isinstance(node, (ast.BinOp, ast.Compare))

        def merges_or_sweeps(node):
            # a sweep steps through two lists in a while loop; a merge reads
            # the last pair kept, [-1], inside a loop
            if isinstance(node, ast.While):
                return True
            return isinstance(node, ast.For) and any(
                isinstance(n, ast.Subscript) and ast.unparse(n.slice) == "-1" for n in ast.walk(node)
            )

        def where(found):
            # the names of the functions with a node that ``found`` accepts,
            # once per function: Interval and IntervalSet each have intersect
            return sorted(fn.name for fn in functions if any(map(found, ast.walk(fn))))

        def calls(name):
            return where(lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == name)

        assert where(keyed) == ["_hi_key", "_lo_key"]
        assert where(merges_or_sweeps) == ["_meet", "_merge"]
        assert calls("_merge") == ["_m_fold_keys", "normalize"]
        assert calls("_meet") == ["_first_sum_member", "intersect", "intersect"]


def test_branch_node_emits_past_the_recursion_limit():
    # the emitter nests flat pre-order nodes in one loop: a 4000-split spine,
    # each split's first child a fork of two leaves, emits in pre-order, first
    # child first, and each spine split follows a closed subtree one level deeper
    leaf = _trim(dpll(_grid_system(ProblemSpec(2, 2), 1), 1, RED, 0, Counter()))
    assert leaf is not None and len(leaf) == 1 and leaf[0][4] is not None
    _, var, color, forcings, conflict = leaf[0]
    nodes = []
    for level in range(4000):
        nodes += [(level, 1, RED, [], None), (level + 1, 1, BLUE, [], None)]
        nodes += [(level + 2, var, color, forcings, conflict)] * 2
    nodes.append((4000, var, color, forcings, conflict))
    closing = _branch_node(leaf, 1)
    fork = _branch_node([(0, 1, BLUE, [], None), *[(1, var, color, forcings, conflict)] * 2], 1)
    assert fork["children"] == [closing, closing]
    node, depth = _branch_node(nodes, 1), 0
    while "children" in node:
        first, node = node["children"]
        assert first == fork
        depth += 1
    assert depth == 4000 and node == closing


def handle_witness(handle, d):
    """The exact SolutionWitness of the handle's solution on the 1/d grid,
    built from ``handle.parts()`` in Fractions."""
    parts = handle.parts()
    return SolutionWitness.from_values(
        handle.color, [Fraction(p, d) for p in parts], Fraction(sum(parts), d)
    )


def reference_branch_node(nodes, d):
    """The emitter as it was on Fractions, the reference of the int one: each
    handle decoded into its exact SolutionWitness, written by
    ``SolutionWitness.as_json``, and each point by ``format_rational``.  It
    writes every forcing, so it is the untrimmed branch."""
    open_lists = [[]]
    for level, var, color, forcings, conflict in nodes:
        node = {
            "assume": {"point": format_rational(Fraction(var, d)), "color": color.value},
            "steps": [
                {
                    "point": format_rational(Fraction(v, d)),
                    "forced": h.color.opposite.value,
                    "witness": handle_witness(h, d).as_json(),
                }
                for v, h in forcings
            ],
        }
        if conflict is not None:
            node["contradiction"] = handle_witness(conflict, d).as_json()
        else:
            node["children"] = children = []
            open_lists[level + 1:] = [children]
        open_lists[level].append(node)
    return open_lists[0][0]


def witness_entries(w):
    """The values of a witness in its file form: its left values and x0."""
    return {parse_rational(v) for v, _ in w["left"]} | {parse_rational(w["x0"])}


def reference_cone(node):
    """The trim as a recursion over a branch node's file form, in Fractions:
    the node with only the steps that a contradiction below depends on, and
    the values it needs colored before its own assumption."""
    if "contradiction" in node:
        need, ending = witness_entries(node["contradiction"]), {"contradiction": node["contradiction"]}
    else:
        cones = [reference_cone(child) for child in node["children"]]
        need = set().union(*(below for _, below in cones))
        ending = {"children": [child for child, _ in cones]}
    steps = []
    for step in reversed(node["steps"]):
        point = parse_rational(step["point"])
        if point in need:
            need = (need | witness_entries(step["witness"])) - {point}
            steps.insert(0, step)
    return {"assume": node["assume"], "steps": steps, **ending}, need - {parse_rational(node["assume"]["point"])}


def refutation(spec, d, color):
    return dpll(_grid_system(spec, d), d, color, 64, Counter())


INTEGER_SPECS = [(k, l) for k in range(3, 11) for l in range(k, 11)]
# grids whose ids reduce: at d = 4, id 6 is 3/2 and id 8 is 2
REDUCING_GRIDS = [(2, l, d) for l in range(3, 7) for d in (2, 3, 4)] + [(3, 4, 3), (3, 3, 2)]


def trimmed_matches_reference(spec, d):
    for color in (RED, BLUE):
        nodes = refutation(spec, d, color)
        trimmed, need = reference_cone(reference_branch_node(nodes, d))
        assert not need, color  # the root's cone ends at its own assumption
        assert _branch_node(_trim(nodes), d) == trimmed, color


@pytest.mark.parametrize("k,l", INTEGER_SPECS)
def test_int_emitter_matches_the_fraction_reference_on_integers(k, l):
    trimmed_matches_reference(ProblemSpec(k, l), 1)


@pytest.mark.parametrize("k,l,d", REDUCING_GRIDS)
def test_int_emitter_matches_the_fraction_reference_on_grids(k, l, d):
    trimmed_matches_reference(ProblemSpec(k, l), d)


def test_reducing_grids_write_reduced_and_whole_values():
    # the table reaches both shapes of a reduced id: p/q with 1 < q < d, and
    # a whole number written bare
    written = set()
    for k, l, d in REDUCING_GRIDS:
        for color in (RED, BLUE):
            text = canonical_json(_branch_node(_trim(refutation(ProblemSpec(k, l), d, color)), d))
            written.update((d, value) for value in ('"3/2"', '"2"') if value in text)
    assert {(4, '"3/2"'), (4, '"2"'), (3, '"2"')} <= written


# ---------------------------------------------------------------------------
# The trim of auto-proved refutations

TRIM_SPECS = [(k, l) for k in range(2, 13) for l in range(k, 13)]
# No refutation of TRIM_SPECS on d <= 4 splits: these grids' red branches
# do, once, so a trim's pass from children to parent is exercised here and
# in the property bases' inner branches
SPLITTING_GRIDS = ((2, 4, 5), (2, 4, 7), (2, 5, 7), (2, 6, 7))


@pytest.mark.parametrize("d", [None, 1, 2, 3, 4], ids=["default", "d1", "d2", "d3", "d4"])
def test_trimmed_certificates_verify(d):
    # every spec closes but (2, l >= 4) on the unit grid, whose discrete
    # value exceeds the continuous one
    unproved = []
    for k, l in TRIM_SPECS:
        try:
            doc, _ = certify_upper(ProblemSpec(k, l), grid_denominator=d)
        except UnprovedError:
            unproved.append((k, l))
            continue
        assert verify_certificate(doc).ok, (k, l, d)
    assert unproved == ([(2, l) for l in range(4, 13)] if d == 1 else [])


def test_trimmed_splitting_branches_verify():
    for k, l, d in SPLITTING_GRIDS:
        spec = ProblemSpec(k, l)
        red, blue = (auto_prove(spec, d, color) for color in (RED, BLUE))
        assert "children" in red
        for node in (red, blue):
            assert replay_branch(spec, Fraction(k * l + k - 1), node).ok, (k, l, d, node["assume"])
    trimmed_matches_reference(ProblemSpec(2, 4), 5)


def same_shape_and_subsequence(trimmed, whole):
    """Whether a trimmed branch has the tree of the whole one, its
    contradictions, and at each node a subsequence of its steps."""
    stack = [(trimmed, whole)]
    while stack:
        cut, node = stack.pop()
        if cut["assume"] != node["assume"] or cut.get("contradiction") != node.get("contradiction"):
            return False
        steps = iter(node["steps"])
        if not all(any(step == other for other in steps) for step in cut["steps"]):
            return False
        kids, whole_kids = cut.get("children", []), node.get("children", [])
        if len(kids) != len(whole_kids):
            return False
        stack += zip(kids, whole_kids)
    return True


def test_trim_keeps_a_subsequence_of_each_nodes_steps():
    cases = [(k, l, d, color) for k, l in TRIM_SPECS for d in (1, 2, 3, 4) for color in (RED, BLUE)]
    cases += [(k, l, d, RED) for k, l, d in SPLITTING_GRIDS]
    dropped = 0
    for k, l, d, color in cases:
        try:
            nodes = refutation(ProblemSpec(k, l), d, color)
        except Satisfiable:
            continue
        trimmed, whole = _branch_node(_trim(nodes), d), reference_branch_node(nodes, d)
        assert same_shape_and_subsequence(trimmed, whole), (k, l, d, color)
        dropped += len(branch_points(whole)) - len(branch_points(trimmed))
    assert dropped > 0


def test_trim_leaves_the_search_alone_and_halves_the_steps(monkeypatch):
    # over the 406 default specs 3 <= k <= l <= 30: the branch count and the
    # search's effort are what the untrimmed prover had; the steps fall from
    # the 10,367 that it wrote
    effort = Counter()

    def counted(system, var, color, depth, own):
        nodes = dpll(system, var, color, depth, own)
        effort.update(own)
        return nodes

    monkeypatch.setattr(certificates, "dpll", counted)
    totals = Counter()
    for k in range(3, 31):
        for l in range(k, 31):
            totals.update(certificate_stats(certify_upper(ProblemSpec(k, l))[1]))
    assert (totals["branches"], effort["nodes"], effort["forcings"]) == (812, 434, 7588)
    assert totals["steps"] == 5506


# Each certificate's auto-proved branches: certify-upper's default assembly
# builds the blue-start branch when k < l
MINIMAL = (((3, 4), None, (0,)), ((4, 6), None, (0,)), ((5, 5), None, (0, 1)), ((2, 5), 4, (0, 1)),
           ((3, 4), 3, (0, 1)))


def file_nodes(node):
    """A branch node in its file form and every node below it, in a fixed order."""
    out, stack = [], [node]
    while stack:
        out.append(stack.pop())
        stack += out[-1].get("children", [])
    return out


def step_deletions(doc, branches):
    """Every copy of ``doc`` with one step of the given root branches deleted."""
    for b in branches:
        for n, node in enumerate(file_nodes(doc["root"][b])):
            for i in range(len(node["steps"])):
                damaged = copy.deepcopy(doc)
                del file_nodes(damaged["root"][b])[n]["steps"][i]
                yield damaged


@pytest.mark.parametrize("spec,d,branches", MINIMAL, ids=["3-4", "4-6", "5-5", "2-5-d4", "3-4-d3"])
def test_every_kept_step_is_needed(spec, d, branches):
    doc, _ = certify_upper(ProblemSpec(*spec), grid_denominator=d)
    copies = list(step_deletions(doc, branches))
    assert copies
    assert not [c for c in copies if verify_certificate(c).ok]


def leaky_trim(pass_children: bool, keep_witness_entries: bool):
    """``_trim`` with one of its two sources of need cut: what the children
    pass up, or the entries of each kept step's witness."""

    def trim(nodes):
        out, passed = [], []
        for level, var, color, forcings, conflict in reversed(nodes):
            if conflict is None:
                below = passed.pop() | passed.pop()
                plan, need = None, below if pass_children else set()
            else:
                plan, need = certificates._decoded(conflict)
            kept = []
            for v, handle in reversed(forcings):
                if v in need:
                    witness, entries = certificates._decoded(handle)
                    if keep_witness_entries:
                        need |= entries
                    need.discard(v)
                    kept.append((v, witness))
            kept.reverse()
            need.discard(var)
            passed.append(need)
            out.append((level, var, color, kept, plan))
        out.reverse()
        return out

    return trim


@pytest.mark.parametrize(
    "mutant", [leaky_trim(False, True), leaky_trim(True, False)], ids=["no-children", "contradiction-only"]
)
def test_a_leaky_trim_is_caught(monkeypatch, mutant):
    # each fails the replay of a split refutation's trimmed red branch
    monkeypatch.setattr(certificates, "_trim", mutant)
    with pytest.raises(AssertionError):
        test_trimmed_splitting_branches_verify()


def test_auto_prove_builds_no_fraction_or_solution_witness(monkeypatch):
    # an auto-proved branch is written from its ids alone
    calls = Counter()
    new, init = Fraction.__new__, SolutionWitness.__init__

    def counted_new(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args):
        calls["SolutionWitness"] += 1
        init(self, *args)

    spec = ProblemSpec(3, 4)
    # the grid's top id is read from formula_continuous, a Fraction, once per
    # grid: the grid is built first, so what is counted is the search and the
    # writer of its nodes
    system = _grid_system(spec, 2)
    monkeypatch.setattr(certificates, "_grid_system", lambda spec, d: system)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(SolutionWitness, "__init__", counted_init)
    Fraction(1, 2)
    assert calls == {"Fraction": 1}, "the counter is in place"
    calls.clear()
    node = auto_prove(spec, 2, RED)
    monkeypatch.undo()
    assert node is not None and not calls
    assert replay_branch(spec, 15, node).ok


def test_default_assembly_builds_no_solution_witness(monkeypatch):
    # the built chains are planned on ids and written by _branch_node, as the
    # auto-proved branches are: the k = 2 chains, a built blue-start branch
    # with an auto-proved red one, and the checker that reads them back
    calls = Counter()
    init = SolutionWitness.__init__

    def counted_init(self, *args):
        calls["SolutionWitness"] += 1
        init(self, *args)

    monkeypatch.setattr(SolutionWitness, "__init__", counted_init)
    SolutionWitness(RED, ((1, 2),), 2)
    assert calls == {"SolutionWitness": 1}, "the counter is in place"
    calls.clear()
    for k, l in ((2, 5), (4, 6), (5, 6)):
        certify_upper(ProblemSpec(k, l))
    monkeypatch.undo()
    assert not calls


def test_built_chain_bytes_are_pinned():
    # the canonical bytes of every k = 2 document for 2 <= l <= 60, then of
    # every blue-start node for 3 <= k < l <= 30, as the Fraction-planned
    # chains wrote them
    digest = hashlib.sha256()
    for l in range(2, 61):
        digest.update((canonical_json(build_k2_certificate(l)) + "\n").encode("ascii"))
    for k in range(3, 31):
        for l in range(k + 1, 31):
            node = build_blue1_certificate(ProblemSpec(k, l))
            digest.update((canonical_json(node) + "\n").encode("ascii"))
    assert digest.hexdigest() == "0775f1a02b7338d2693cf3fd929d215a34c4b372cb4cfc939580678d57e306cc"


# ---------------------------------------------------------------------------
# The recursive replay and parse the iterative ones replaced, kept as the
# reference of the property tests below, on node types of their own.  Each
# branch is checked on a copy of its parent's state, in Fraction arithmetic.


@dataclass(frozen=True)
class Step:
    point: Fraction
    forced: Color
    witness: SolutionWitness


@dataclass(frozen=True)
class Node:
    point: Fraction
    color: Color
    steps: tuple
    contradiction: Optional[SolutionWitness] = None
    children: Optional[tuple] = None


@dataclass(frozen=True)
class Cert:
    spec: ProblemSpec
    domain_end: Fraction
    root: tuple


def emit_node(node):
    """The file form of a reference node."""
    out = {
        "assume": {"point": format_rational(node.point), "color": node.color.value},
        "steps": [
            {"point": format_rational(s.point), "forced": s.forced.value, "witness": s.witness.as_json()}
            for s in node.steps
        ],
    }
    if node.contradiction is not None:
        out["contradiction"] = node.contradiction.as_json()
    else:
        out["children"] = [emit_node(child) for child in node.children]
    return out


def emit(cert):
    """The document of a reference certificate."""
    root = [emit_node(node) for node in cert.root]
    return {"spec": cert.spec.as_json(), "domain_end": format_rational(cert.domain_end), "root": root}


def reference_tuples(cert):
    """A reference certificate's node tuples in the schema pass's layout:
    pre-order, first child first, points as reduced (numerator, denominator)."""

    def key(v):
        return v.numerator, v.denominator

    def witness(w):
        return w.color, tuple((key(v), m) for v, m in w.left), key(w.x0)

    nodes = []

    def walk(node, depth):
        index = len(nodes)
        nodes.append(None)
        kids = None if node.children is None else [walk(child, depth + 1) for child in node.children]
        steps = tuple((key(s.point), s.forced, witness(s.witness)) for s in node.steps)
        end = None if node.contradiction is None else witness(node.contradiction)
        nodes[index] = (depth, key(node.point), node.color, steps, end, kids)
        return index

    for node in cert.root:
        walk(node, 0)
    return nodes


def keyed(tree):
    """A tree's node tuples with every point id replaced by its key, the
    layout of ``reference_tuples``."""
    nodes, key, _ = tree

    def witness(w):
        color, left, x0 = w
        return color, tuple((key[p], m) for p, m in left), key[x0]

    return [
        (depth, key[point], color, tuple((key[p], forced, witness(w)) for p, forced, w in steps),
         None if end is None else witness(end), kids)
        for depth, point, color, steps, end, kids in nodes
    ]


def canonical_nodes(nodes):
    """Node tuples with each witness's left side merged and sorted by value,
    as a SolutionWitness holds it; the schema pass keeps file order."""

    def canon(w):
        color, left, x0 = w
        merged = Counter()
        for point, m in left:
            merged[point] += m
        return color, tuple(sorted(merged.items(), key=lambda item: Fraction(*item[0]))), x0

    return [
        (depth, point, color, tuple((p, forced, canon(w)) for p, forced, w in steps),
         None if end is None else canon(end), kids)
        for depth, point, color, steps, end, kids in nodes
    ]


def support(w):
    """Every value of a witness: its left values ascending, then x0, the
    order in which the replay names the first entry that breaks a rule."""
    return [*(v for v, _ in w.left), w.x0]


def inner_branch(spec, point, color):
    """The prover's branch below ``point`` = ``color`` on the integer grid,
    with nothing colored before it: ``auto_prove`` roots only at 1."""
    nodes = dpll(_grid_system(spec, 1), point, color, 64, Counter())
    return _branch_node(_trim(nodes), 1)


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
        if any(v > domain_end for v in support(w)):
            return _fail(path, index, "witness uses a value beyond the domain end")
        if step.point not in support(w):
            return _fail(path, index, "forced point does not occur in its witness")
        for v in support(w):
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
        if any(v > domain_end for v in support(w)):
            return _fail(path, None, "contradiction uses a value beyond the domain end")
        for v in support(w):
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
    if not isinstance(obj, dict) or set(obj) != {"color", "left", "x0"}:
        raise ValueError("witness object must carry exactly color, left, x0")
    try:
        color = Color(obj["color"])
    except ValueError:
        raise ValueError(f"unknown color {obj['color']!r}") from None
    left = obj["left"]
    if not isinstance(left, list):
        raise ValueError("witness left side must be a list of [value, multiplicity]")
    pairs = []
    for item in left:
        if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int):
            raise ValueError(f"malformed left entry {item!r}")
        pairs.append((parse_rational(item[0]), item[1]))
    witness = SolutionWitness(color, tuple(pairs), parse_rational(obj["x0"]))
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
            Step(parse_rational(item["point"]), forced, reference_witness_from_json(item["witness"], spec))
        )
    has_contradiction = "contradiction" in obj
    has_children = "children" in obj
    if has_contradiction == has_children:
        raise ValueError("branch node must end in exactly one of contradiction or children")
    if len(obj) != 3:
        raise ValueError("branch node must carry nothing but assume, steps, and its ending")
    if has_contradiction:
        witness = reference_witness_from_json(obj["contradiction"], spec)
        return Node(point, color, tuple(steps), witness)
    children = obj["children"]
    if not (isinstance(children, list) and len(children) == 2):
        raise ValueError("children must be a pair")
    pair = (reference_node_from_json(children[0], spec), reference_node_from_json(children[1], spec))
    return Node(point, color, tuple(steps), children=pair)


def reference_certificate_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"spec", "domain_end", "root"}:
        raise ValueError("certificate must carry exactly spec, domain_end, root")
    spec = ProblemSpec.from_json(obj["spec"])
    root = obj["root"]
    if not (isinstance(root, list) and len(root) == 2):
        raise ValueError("root must be a pair of branch nodes")
    return Cert(
        spec,
        parse_rational(obj["domain_end"]),
        (reference_node_from_json(root[0], spec), reference_node_from_json(root[1], spec)),
    )


def reference_check(doc):
    return reference_verify_certificate(reference_certificate_from_json(doc))


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
            below = Node(node.point, node.color, (), children=pair)
        else:
            below = Node(points[i - 1], BLUE, (), children=pair)
    root = list(cert.root)
    root[branch] = below
    return dataclasses.replace(cert, root=tuple(root))


def _property_bases():
    """Reference certificates read from builder documents and archived files."""
    read = reference_certificate_from_json
    bases = [
        read(build_k2_certificate(3)),
        read(build_k2_certificate(6)),
        read(certify_upper(ProblemSpec(3, 5))[0]),  # a built blue-1 branch beside an auto-proved one
        read(certify_upper(ProblemSpec(4, 6))[0]),
        read(certify_upper(ProblemSpec(4, 5), grid_denominator=1)[0]),
        read(certify_upper(ProblemSpec(2, 4), grid_denominator=2)[0]),
        read(certify_upper(ProblemSpec(3, 4), grid_denominator=3)[0]),
    ]
    bases.append(spine(bases[0], 0, [Fraction(1) + Fraction(i, 11) for i in (3, 7, 5)]))
    bases.append(spine(bases[2], 1, [Fraction(1) + Fraction(i, 13) for i in (9, 2)]))
    for path in sorted(DATA.glob("certificate-*.json")):
        bases.append(read(json.loads(path.read_text(encoding="ascii"))))
    # The prover's branches split only below an inner point.  Each pair
    # holds both colors of one inner point, so it fails the root check, but
    # replay_branch accepts each of its nodes.
    for k, l, p in ((3, 3, 5), (3, 4, 2)):
        spec = ProblemSpec(k, l)
        pair = tuple(reference_node_from_json(inner_branch(spec, p, color), spec) for color in (RED, BLUE))
        bases.append(Cert(spec, Fraction(k * l + k - 1), pair))
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
    """The document of a base certificate with one to three of MUTATIONS
    applied to its reference objects."""
    cert = draw(st.sampled_from(BASES))
    used = {point for _, node in _nodes(cert) for point in [node.point, *[s.point for s in node.steps]]}
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
    return emit(cert)


def _outcome(fn, *args):
    """What ``fn`` returns, or the message of the ValueError it raised; any
    other exception escapes and fails the test."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(mutated_certificates(), st.data())
def test_replay_matches_the_recursive_reference(doc, data):
    # schema pass and replay against the reference's parse and replay; a
    # wrong arity, say, is a schema error in both
    assert _outcome(verify_certificate, doc) == _outcome(reference_check, doc)
    # one branch on its own
    spec, end = ProblemSpec.from_json(doc["spec"]), parse_rational(doc["domain_end"])
    node = data.draw(st.sampled_from(doc["root"]))

    def reference_branch(node):
        return reference_verify_node(spec, end, reference_node_from_json(node, spec), {}, ())

    assert _outcome(replay_branch, spec, end, node) == _outcome(reference_branch, node)


def test_property_bases_verify_and_some_split():
    for cert in BASES:
        if cert.root[0].point == cert.spec.gamma:
            assert verify_certificate(emit(cert)).ok
        else:
            assert all(replay_branch(cert.spec, cert.domain_end, emit_node(node)).ok for node in cert.root)
    # splits are where the undo trail is unwound
    assert sum(any(node.children for _, node in _nodes(cert)) for cert in BASES) >= 4


def test_points_used_orders_on_ints_as_fractions_do():
    # the bases mix denominators: halves and thirds from the grids, and the
    # spines' 1/11 and 1/13 steps beside the k = 2 chains' halves
    denominators = set()
    for cert in BASES:
        tree = certificate_from_json(emit(cert))[2]
        nodes = keyed(tree)
        points = {node[1] for node in nodes} | {step[0] for node in nodes for step in node[3]}
        denominators |= {d for _, d in points}
        assert points_used(tree) == [format_rational(v) for v in sorted(Fraction(*p) for p in points)]
    assert {2, 3, 11, 13} <= denominators


JUNK = (None, True, 3, 0, 2.5, [], {}, ["1", 1], "x", "1/0", "1.5", "-2", "0", "7/3", "green", "red")


FLIP = {"red": "blue", "blue": "red"}


def _copy_step(draw, steps, base):
    """Put a copy of one step, with one field changed, into some node's
    steps: a copy that a memo of read steps must tell from its original.  A
    point or x0 becomes another rational inside the domain, or its own value
    written unreduced, which is the same point."""
    parent, i = draw(st.sampled_from(steps))
    step = copy.deepcopy(parent[i])
    w = step.get("witness") if isinstance(step, dict) else None
    field = draw(st.sampled_from(("point", "x0", "forced", "color", "multiplicity", "key")))
    if field in ("point", "x0") and isinstance(w, dict):
        owner = step if field == "point" else w
        if draw(st.booleans()):
            d = draw(st.integers(1, 3))
            low, high = math.ceil(base.spec.gamma * d), math.floor(base.domain_end * d)
            owner[field] = format_rational(Fraction(draw(st.integers(low, high)), d))
        else:
            with contextlib.suppress(ValueError):
                v = parse_rational(owner.get(field))
                owner[field] = f"{v.numerator * 2}/{v.denominator * 2}"
    elif field == "forced" and isinstance(step, dict):
        step["forced"] = FLIP.get(step.get("forced"), "red")
    elif field == "color" and isinstance(w, dict):
        w["color"] = FLIP.get(w.get("color"), "red")
    elif field == "multiplicity" and isinstance(w, dict) and isinstance(w.get("left"), list):
        entries = [entry for entry in w["left"] if isinstance(entry, list) and len(entry) == 2]
        if entries:
            draw(st.sampled_from(entries))[1] = draw(st.sampled_from((True, 1.0, 2)))
    elif field == "key" and isinstance(w, dict):
        w["note"] = "x"
    target, _ = draw(st.sampled_from(steps))
    target.insert(draw(st.integers(0, len(target))), step)


def _damage(draw, doc, base):
    """Replace, delete or junk one to three values inside ``doc``, a document
    of ``base`` or one of its nodes, in place.

    Junk, deletions and swaps mostly break the schema (exit 64); recoloring a
    forced step, replacing a literal by another rational inside the domain and
    dropping a step keep it, so those files reach the replay (exit 0 or 1).
    A copied step with one field changed (``_copy_step``) may do either.
    """
    for _ in range(draw(st.integers(1, 3))):
        places, steps, literals, stack = [], [], [], [doc]
        while stack:
            container = stack.pop()
            keys = container if isinstance(container, dict) else range(len(container))
            for key in keys:
                value = container[key]
                places.append((container, key))
                if key in ("point", "x0") and isinstance(value, str):
                    literals.append((container, key))
                elif key == "left" and isinstance(value, list):
                    literals += [(item, 0) for item in value if isinstance(item, list) and item]
                elif key == "steps" and isinstance(value, list):
                    steps += [(value, i) for i in range(len(value))]
                if isinstance(value, (dict, list)):
                    stack.append(value)
        if not places:  # every key was deleted
            break
        action = draw(st.sampled_from(
            ("junk", "delete", "swap", "recolor", "literal", "literal", "drop-step", "copy-step")
        ))
        if action == "copy-step" and steps:
            _copy_step(draw, steps, base)
            continue
        if action == "literal" and literals:
            parent, key = draw(st.sampled_from(literals))
            d = draw(st.integers(1, 3))
            low, high = math.ceil(base.spec.gamma * d), math.floor(base.domain_end * d)
            parent[key] = format_rational(Fraction(draw(st.integers(low, high)), d))
            continue
        if action in ("recolor", "drop-step") and steps:
            parent, i = draw(st.sampled_from(steps))
            step = parent[i]
            if action == "drop-step":
                del parent[i]
            elif isinstance(step, dict) and step.get("forced") in ("red", "blue"):
                step["forced"] = {"red": "blue", "blue": "red"}[step["forced"]]
            continue
        parent, key = draw(st.sampled_from(places))
        if action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "swap" and isinstance(parent, list) and len(parent) > 1:
            parent[0], parent[-1] = parent[-1], parent[0]
        else:
            parent[key] = draw(st.sampled_from(JUNK))


@st.composite
def damaged_documents(draw):
    """Certificate JSON with one to three values replaced, deleted or junked."""
    base = draw(st.sampled_from(BASES))
    doc = emit(base)
    _damage(draw, doc, base)
    return doc


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(damaged_documents())
def test_parse_matches_the_recursive_reference_on_damaged_files(doc):
    got = _outcome(certificate_from_json, doc)
    expected = _outcome(reference_certificate_from_json, doc)
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
        return
    spec, end, tree = got
    assert (spec, end, canonical_nodes(keyed(tree))) == (
        expected.spec, expected.domain_end, reference_tuples(expected)
    )
    assert check_certificate(spec, end, tree) == reference_verify_certificate(expected)


def reference_command(doc):
    """The exit code and payload that verify-certificate owes ``doc``, by the
    reference parse and replay: a schema error is InvalidInput (64), never
    WitnessFound (1)."""
    try:
        cert = reference_certificate_from_json(doc)
    except ValueError as exc:
        return 64, {"error": str(exc)}
    check = reference_verify_certificate(cert)
    if check.ok:
        end = format_rational(cert.domain_end)
        nodes = reference_tuples(cert)
        stats = {"branches": len(nodes), "steps": sum(len(node[3]) for node in nodes)}
        return 0, {"verified": True, "domain_end": end, **stats}
    failure = check.failure._asdict()
    return 1, {"verified": False, "failure": dict(failure, path=list(check.failure.path))}


def command(doc):
    """The exit code and payload of verify-certificate on ``doc``."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_read_json", lambda path: doc)
        code = cli.main(["verify-certificate", "--file", "damaged.json"])
    return code, json.loads(out.getvalue())["payload"]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(damaged_documents())
def test_command_matches_the_recursive_reference_on_damaged_files(doc):
    assert command(doc) == reference_command(doc)


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
    cert = reference_certificate_from_json(build_k2_certificate(l))
    blue = cert.root[1]
    inserted = []
    for p in _first_primes(2000):
        q = p**30
        x = 1 + Fraction(l, q)
        inserted.append(Step(x, RED, SolutionWitness(BLUE, ((Fraction(1), l - q), (x, q)), 2 * l)))
    assert blue.steps[1].point == 2 * l and blue.steps[1].forced is BLUE
    steps = blue.steps[:2] + tuple(inserted) + blue.steps[2:]
    last = inserted[-1].witness
    broken_step = dataclasses.replace(
        inserted[-1], witness=SolutionWitness(last.color, last.left, Fraction(2 * l + 1))
    )
    broken_steps = steps[:2001] + (broken_step,) + steps[2002:]
    for tree, ok in ((steps, True), (broken_steps, False)):
        certificate = dataclasses.replace(cert, root=(cert.root[0], dataclasses.replace(blue, steps=tree)))
        text = canonical_json(emit(certificate))
        start = time.perf_counter()
        check = verify_certificate(json.loads(text))
        assert time.perf_counter() - start < 2.0
        assert check.ok is ok
        assert check == reference_verify_certificate(certificate)
    assert check.failure == CheckFailure(
        ("1=blue",), 2001, "witness fails arithmetic, arity, or domain-start check"
    )


def test_a_huge_multiplicity_stays_one_run():
    # the blue-start chain's first witness is 1 + ... + 1 = l, l ones: a plan
    # keeps that count as a number and writes it as one [value, count] pair
    l = 2**521 - 1
    start = time.perf_counter()
    node = build_blue1_certificate(ProblemSpec(3, l))
    assert time.perf_counter() - start < 1.0
    assert node["steps"][0] == {
        "point": str(l),
        "forced": "red",
        "witness": {"color": "blue", "left": [["1", l]], "x0": str(l)},
    }


# The schema pass reads each distinct witness once and shares its tuple; the
# replay checks each shared tuple's arithmetic once.  A copy that is equal to
# a valid witness in Python but not the same JSON must still fail as before.


def spine_points(cert, depth):
    """``depth`` split points that no chain uses: denominator 10007."""
    return [cert.spec.gamma + Fraction(i, 10007) for i in range(1, depth + 1)]


def witness_objects(doc):
    """Every witness object of a document, in pre-order."""
    out, stack = [], list(reversed(doc["root"]))
    while stack:
        node = stack.pop()
        out += [step["witness"] for step in node["steps"]]
        if "contradiction" in node:
            out.append(node["contradiction"])
        stack += reversed(node.get("children", []))
    return out


CERT_5_5 = reference_certificate_from_json(json.loads((DATA / "certificate-5-5.json").read_text()))
# What a copy changes, and the exit code it owes: "m" is the multiplicity of
# a left entry equal to 1; any other field is replaced by its function.  A
# recolored witness keeps the arity of its equation, since k = l, so it
# reaches the replay, which finds that it no longer opposes the forced color.
UNEQUAL_COPIES = {
    "multiplicity-true": ("m", True, 64),
    "multiplicity-1.0": ("m", 1.0, 64),
    "multiplicity-2.5": ("m", 2.5, 64),
    "left-dict": ("left", dict, 64),
    "left-string": ("left", canonical_json, 64),
    "x0-number": ("x0", lambda x0: int(Fraction(x0)), 64),
    "x0-list": ("x0", lambda x0: [x0], 64),
    "other-color": ("color", {"red": "blue", "blue": "red"}.get, 1),
}


@pytest.mark.parametrize("change", list(UNEQUAL_COPIES))
def test_a_copy_unequal_as_json_to_a_read_witness_fails_as_before(change):
    doc = emit(spine(CERT_5_5, 0, spine_points(CERT_5_5, 3)))
    assert command(doc)[0] == 0
    # the last witness that repeats an earlier one and has a multiplicity 1
    witnesses = witness_objects(doc)
    w = next(
        w for j, w in reversed(list(enumerate(witnesses)))
        if w in witnesses[:j] and any(m == 1 for _, m in w["left"])
    )
    field, value, code = UNEQUAL_COPIES[change]
    if field == "m":
        next(entry for entry in w["left"] if entry[1] == 1)[1] = value
    else:
        w[field] = value(w[field])
    expected = reference_command(doc)
    assert expected[0] == code
    assert command(doc) == expected


SPINE_BASES = [cert for cert in BASES if cert.root[0].point == cert.spec.gamma]


@st.composite
def damaged_spines(draw):
    """A split spine of one root branch of a base, whose branch body is
    replayed at every level, with one level's copy damaged as
    ``damaged_documents`` damages a file."""
    base = draw(st.sampled_from(SPINE_BASES))
    branch = draw(st.integers(0, 1))
    depth = draw(st.integers(1, 4))
    doc = emit(spine(base, branch, spine_points(base, depth)))
    level = draw(st.integers(1, depth))
    node = doc["root"][branch]
    for _ in range(level - 1):
        node = node["children"][1]
    # every level's red child is a copy; the last level's blue child too
    _damage(draw, node["children"][draw(st.integers(0, 1)) if level == depth else 0], base)
    return doc


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(damaged_spines())
def test_command_matches_the_recursive_reference_on_damaged_spines(doc):
    # exit code, failure path, step index and reason
    assert command(doc) == reference_command(doc)


def test_each_distinct_witness_is_read_and_checked_once(monkeypatch):
    doc = emit(spine(CERT_5_5, 0, spine_points(CERT_5_5, 50)))
    calls = Counter()

    def counted(name):
        fn = getattr(checker, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(checker, name, wrapper)

    counted("_read_witness")
    counted("_witness_verdict")
    assert verify_certificate(doc).ok
    witnesses = witness_objects(doc)
    distinct = len({canonical_json(w) for w in witnesses})
    assert len(witnesses) > 20 * distinct
    assert calls == {"_read_witness": distinct, "_witness_verdict": distinct}


# The schema pass also reads each distinct step once and shares its tuple.  A
# copy equal to a read step in Python but not the same JSON must still fail as
# before, and a point written as an equal literal is the same point.


def step_objects(doc):
    """Every step object of a document, in pre-order."""
    out, stack = [], list(reversed(doc["root"]))
    while stack:
        node = stack.pop()
        out += node["steps"]
        stack += reversed(node.get("children", []))
    return out


def test_each_distinct_step_is_read_once_and_is_one_object(monkeypatch):
    doc = emit(spine(CERT_5_5, 0, spine_points(CERT_5_5, 50)))
    calls = Counter()
    read = checker._read_witness

    def counted(*args):
        calls["_read_witness"] += 1
        return read(*args)

    monkeypatch.setattr(checker, "_read_witness", counted)
    tree = certificate_from_json(doc)[2]
    steps = step_objects(doc)
    distinct = len({canonical_json(step) for step in steps})
    assert len(steps) > 20 * distinct
    assert calls["_read_witness"] == len({canonical_json(w) for w in witness_objects(doc)})
    read_steps = [step for node in tree[0] for step in node[3]]
    assert len(read_steps) == len(steps)
    assert len({id(step) for step in read_steps}) == distinct


# What a copy of a read step changes, and the exit code it owes
UNEQUAL_STEP_COPIES = {
    "multiplicity-true": 64,
    "multiplicity-1.0": 64,
    "forced-flipped": 1,
    "witness-extra-key": 64,
}


@pytest.mark.parametrize("change", list(UNEQUAL_STEP_COPIES))
def test_a_step_copy_unequal_as_json_to_a_read_step_fails_as_before(change):
    doc = emit(spine(CERT_5_5, 0, spine_points(CERT_5_5, 3)))
    assert command(doc)[0] == 0
    # the last step that repeats an earlier one and has a multiplicity 1
    steps = step_objects(doc)
    step = next(
        step for j, step in reversed(list(enumerate(steps)))
        if step in steps[:j] and any(m == 1 for _, m in step["witness"]["left"])
    )
    if change.startswith("multiplicity"):
        entry = next(entry for entry in step["witness"]["left"] if entry[1] == 1)
        entry[1] = True if change == "multiplicity-true" else 1.0
    elif change == "forced-flipped":
        step["forced"] = FLIP[step["forced"]]
    else:
        step["witness"]["note"] = "x"
    expected = reference_command(doc)
    assert expected[0] == UNEQUAL_STEP_COPIES[change]
    assert command(doc) == expected


def test_an_equal_literal_is_the_same_point():
    # "12/2" reduces to the key of "6", so both get one point id
    doc = json.loads((DATA / "certificate-5-5.json").read_text())
    tree = certificate_from_json(doc)[2]
    step = next(step for step in doc["root"][0]["steps"] if step["point"] == "6")
    step["point"] = "12/2"
    rewritten = certificate_from_json(doc)[2]
    assert rewritten == tree
    nodes, points, _ = rewritten
    read = next(step for step in nodes[0][3] if points[step[0]] == (6, 1))
    assert read[0] in [p for p, _ in read[2][1]]  # the same id as the witness's "6"
    assert command(doc) == (0, {"verified": True, "domain_end": "29", **certificate_stats(tree)})


def test_a_left_side_given_as_a_long_string_is_refused_without_a_copy():
    # the memo's key must not take a string apart, a tuple per character
    doc = emit(CERT_5_5)
    doc["root"][0]["steps"][0]["witness"]["left"] = "7" * 4_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="witness left side must be a list"):
            certificate_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
