import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from offrado.certificates import build_k2_certificate
from offrado.checker import certificate_from_json, certificate_stats
from offrado import cli, search
from offrado.cli import main
from offrado.equations import Color, ProblemSpec, SolutionWitness, Verdict, check_witness
from offrado.intervals import coloring_as_json, coloring_from_json, lower_bound_coloring
from offrado.serialize import canonical_json, format_rational, parse_rational


ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1, "exactly one JSON document"
    doc = json.loads(out)
    assert canonical_json(doc) + "\n" == out, "stdout must be canonical JSON"
    return code, doc


class TestFormula:
    def test_discrete(self, capsys):
        code, doc = run_cli(capsys, "formula", "3", "4", "--mode", "discrete")
        assert code == 0 and doc["payload"]["value"] == "14"
        assert doc["payload"]["kind"] == "discrete-formula"

    def test_continuous_scaled(self, capsys):
        code, doc = run_cli(capsys, "formula", "2", "3", "--mode", "continuous", "--gamma", "2")
        assert code == 0 and doc["payload"]["value"] == "14"
        assert doc["payload"]["kind"] == "continuous-formula"

    def test_k1(self, capsys):
        code, doc = run_cli(capsys, "formula", "1", "5", "--mode", "k1")
        assert code == 0 and doc["payload"]["value"] == "5"
        assert doc["payload"]["kind"] == "continuous-formula"

    @pytest.mark.parametrize(
        "argv",
        [
            ("formula", "4", "3", "--mode", "discrete"),
            ("formula", "2", "3", "--mode", "discrete", "--gamma", "2"),
            ("formula", "2", "3", "--gamma", "0"),
            ("formula", "2", "3", "--gamma", "0.5"),
            ("formula", "2", "5", "--mode", "k1"),
            ("formula", "2"),
            ("nonsense",),
        ],
    )
    def test_invalid_inputs(self, capsys, argv):
        code, doc = run_cli(capsys, *argv)
        assert code == 64 and doc["status"] == "InvalidInput"


class TestDiscrete:
    def test_schur_value(self, capsys):
        code, doc = run_cli(capsys, "discrete", "2", "2")
        assert code == 0
        assert doc["payload"]["value"] == 5
        assert doc["payload"]["formula_mismatch"] is False

    def test_known_odd_case(self, capsys):
        code, doc = run_cli(capsys, "discrete", "2", "5")
        assert code == 0 and doc["payload"]["value"] == 13

    def test_cap_exhaustion_unproved(self, capsys):
        code, doc = run_cli(capsys, "discrete", "3", "3", "--max-n", "5")
        assert code == 2 and doc["status"] == "Unproved"
        assert doc["payload"]["value"] is None

    def test_scan_records(self, capsys):
        code, doc = run_cli(capsys, "discrete", "2", "2", "--max-n", "6", "--scan")
        assert code == 0
        assert doc["payload"]["scan"] == [
            {"n": n, "colorable": n <= 4} for n in range(1, 7)
        ]

    def test_oracle_mode(self, capsys):
        code, doc = run_cli(capsys, "discrete", "3", "4", "--no-propagation")
        assert code == 0 and doc["payload"]["value"] == 14
        _, fast = run_cli(capsys, "discrete", "3", "4")
        assert (
            doc["payload"]["stats"]["nodes_explored"]
            > fast["payload"]["stats"]["nodes_explored"]
        )

    def test_oracle_mode_output_pinned(self, capsys):
        # the 2^n sweep visits every coloring of each n it searches: the
        # formula value 7, then 6
        code, doc = run_cli(capsys, "discrete", "2", "3", "--no-propagation")
        assert code == 0
        stats = doc["payload"].pop("stats")
        assert stats.pop("elapsed_seconds") >= 0
        assert stats == {"nodes_explored": (1 << 7) + (1 << 6), "propagations": 0}
        assert doc == {
            "command": "discrete",
            "payload": {
                "extremal": {"blue": [2, 3, 4, 5], "n": 6, "red": [1, 6]},
                "formula_mismatch": False, "formula_value": 7, "max_n": 12,
                "spec": {"gamma": "1", "k": 2, "l": 3}, "value": 7,
            },
            "spec": {"gamma": "1", "k": 2, "l": 3},
            "status": "Ok",
        }


class TestColoringPipeline:
    def test_round_trip_across_range(self, capsys, tmp_path):
        for k in range(2, 11):
            for l in range(k, 11):
                path = tmp_path / f"c{k}{l}.json"
                code, doc = run_cli(capsys, "lower-bound", str(k), str(l), "--out", str(path))
                assert code == 0 and doc["payload"]["verdict"] == "Valid"
                code, doc = run_cli(capsys, "verify-coloring", str(k), str(l), "--file", str(path))
                assert code == 0 and doc["status"] == "Ok"

    def test_scaled_construction(self, capsys):
        code, doc = run_cli(capsys, "lower-bound", "3", "3", "--gamma", "1/2")
        assert code == 0
        assert doc["payload"]["coloring"]["red"] == [
            ["1/2", "3/2", "[)"], ["9/2", "11/2", "[)"]
        ]
        assert doc["payload"]["coloring"]["blue"] == [["3/2", "9/2", "[)"]]

    def test_boundary_witnesses_in_payload(self, capsys):
        code, doc = run_cli(capsys, "lower-bound", "2", "3")
        witnesses = doc["payload"]["boundary_witnesses"]
        assert witnesses["red"] == {"color": "red", "left": [["1", 1], ["6", 1]], "x0": "7"}
        assert witnesses["blue"] == {"color": "blue", "left": [["2", 2], ["3", 1]], "x0": "7"}

    def test_all_blue_interval_found_out(self, capsys, tmp_path):
        path = tmp_path / "allblue.json"
        path.write_text(json.dumps({
            "gamma": "1", "end": "7", "end_inclusive": True,
            "red": [], "blue": [["1", "7", "[]"]],
        }))
        code, doc = run_cli(capsys, "verify-coloring", "2", "3", "--file", str(path))
        assert code == 1 and doc["status"] == "WitnessFound"
        witness = doc["payload"]["witness"]
        assert witness["color"] == "blue"

    def test_overlapping_classes_rejected(self, capsys, tmp_path):
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps({
            "gamma": "1", "end": "7", "end_inclusive": False,
            "red": [["1", "3", "[)"]], "blue": [["2", "7", "[)"]],
        }))
        code, doc = run_cli(capsys, "verify-coloring", "2", "3", "--file", str(path))
        assert code == 64 and doc["status"] == "InvalidInput"

    def test_missing_file(self, capsys):
        code, doc = run_cli(capsys, "verify-coloring", "2", "3", "--file", "/no/such/file")
        assert code == 64

    @pytest.mark.parametrize("code_value", [[], {}, ["[", ")"]], ids=["list", "object", "pair"])
    def test_unhashable_closure_code_is_invalid_input(self, capsys, tmp_path, code_value):
        # an unhashable code once raised TypeError, which exits 1 (WitnessFound)
        path = tmp_path / "code.json"
        path.write_text(json.dumps({
            "gamma": "1", "end": "7", "end_inclusive": False,
            "red": [["1", "2", code_value], ["6", "7", "[)"]], "blue": [["2", "6", "[)"]],
        }))
        code, doc = run_cli(capsys, "verify-coloring", "2", "3", "--file", str(path))
        assert code == 64 and doc["status"] == "InvalidInput"
        assert "closure code" in doc["payload"]["error"]


COLORING_JUNK = (
    None, True, False, 3, 0, 2.5, [], {}, ["1", 1], "x", "1/0", "1.5", "-2", "0", "7/3", "[)", "[]",
)
SHIFTS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7))
CODES = ("[)", "[]", "()", "(]")


@st.composite
def mutated_colorings(draw):
    """A ``lower-bound`` file for 2 <= k <= l <= 4 with one to three changes:
    an endpoint or a whole boundary shifted, a closure flipped, an interval
    moved to the other class, or a value replaced by junk.  Each class keeps at most 4
    intervals, so no sumset grows large."""
    k = draw(st.integers(2, 4))
    l = draw(st.integers(k, 4))
    gamma = draw(st.sampled_from((Fraction(1), Fraction(1, 2))))
    doc = coloring_as_json(lower_bound_coloring(ProblemSpec(k, l, gamma)))
    for _ in range(draw(st.integers(1, 3))):
        intervals = [
            (side, i) for side in ("red", "blue") if isinstance(doc.get(side), list)
            for i, item in enumerate(doc[side]) if isinstance(item, list) and len(item) == 3
        ]
        kind = draw(st.sampled_from(("shift", "closure", "move", "junk")))
        if kind == "shift":
            places = [(doc, key) for key in ("gamma", "end") if key in doc]
            places += [(doc[side][i], j) for side, i in intervals for j in (0, 1)]
            if not places:
                continue
            parent, key = draw(st.sampled_from(places))
            old = parent[key]
            try:
                new = format_rational(parse_rational(old) + draw(st.sampled_from(SHIFTS)))
            except ValueError:  # junk from an earlier change
                continue
            # one endpoint alone, or a boundary: every endpoint at that value
            for where, slot in places if draw(st.booleans()) else [(parent, key)]:
                if where[slot] == old:
                    where[slot] = new
        elif kind == "closure":
            if not intervals or draw(st.booleans()):
                doc["end_inclusive"] = not doc.get("end_inclusive")
            else:
                side, i = draw(st.sampled_from(intervals))
                doc[side][i][2] = draw(st.sampled_from(CODES))
        elif kind == "move":
            if not intervals:
                continue
            side, i = draw(st.sampled_from(intervals))
            other = "blue" if side == "red" else "red"
            if isinstance(doc.get(other), list) and len(doc[other]) < 4:
                doc[other].append(doc[side].pop(i))
        else:
            places = [(doc, key) for key in doc]
            places += [(doc[side], i) for side, i in intervals]
            places += [(doc[side][i], j) for side, i in intervals for j in range(3)]
            if not places:
                continue
            parent, key = draw(st.sampled_from(places))
            parent[key] = draw(st.sampled_from(COLORING_JUNK))
    return k, l, doc


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(mutated_colorings())
def test_verify_coloring_on_mutated_files_is_valid_witness_or_invalid(case):
    # exit 0 is Valid; exit 1 carries a true solution inside the class it
    # names; anything the reader refuses is InvalidInput (64)
    k, l, doc = case
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_read_json", lambda path: doc)
        code = cli.main(["verify-coloring", str(k), str(l), "--file", "mutated.json"])
    result = json.loads(out.getvalue())
    assert code in (0, 1, 64)
    if code == 64:
        assert result["status"] == "InvalidInput"
        return
    coloring = coloring_from_json(doc)
    if code == 0:
        assert result["status"] == "Ok" and result["payload"] == {"status": "Valid"}
        return
    assert result["status"] == "WitnessFound" and result["payload"]["status"] == "WitnessFound"
    w = result["payload"]["witness"]
    color = Color(w["color"])
    witness = SolutionWitness(
        color, tuple((parse_rational(v), m) for v, m in w["left"]), parse_rational(w["x0"])
    )
    assert check_witness(ProblemSpec(k, l, coloring.domain.lo), witness)
    assert all(coloring.class_of(color).contains(v) for v in {witness.x0, *dict(witness.left)})


class TestCertificatePipeline:
    def test_emit_then_verify(self, capsys, tmp_path):
        for k, l, end in ((2, 4, "9"), (2, 5, "11"), (3, 3, "11"), (3, 4, "14")):
            path = tmp_path / f"cert{k}{l}.json"
            code, doc = run_cli(capsys, "certify-upper", str(k), str(l), "--out", str(path))
            assert code == 0
            assert doc["payload"]["domain_end"] == end
            code, doc = run_cli(capsys, "verify-certificate", "--file", str(path))
            assert code == 0 and doc["payload"]["verified"] is True

    def test_file_round_trip_is_bit_identical(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify-upper", "3", "4", "--out", str(path))
        first = path.read_bytes()
        doc = json.loads(first)
        assert (canonical_json(doc) + "\n").encode() == first

    def test_unit_grid_unproved_once_values_split(self, capsys):
        # discrete 11 > continuous 9 at (2,4): the integers [1, 9] have a
        # valid coloring with 1 red, so no depth could refute that branch
        code, doc = run_cli(capsys, "certify-upper", "2", "4", "--grid-denominator", "1")
        assert code == 2 and doc["status"] == "Unproved"
        assert doc["payload"] == {
            "error": "no closing chain for the red branch of (k=2, l=4): "
            "the 1/1 grid has a valid coloring with 1 = red",
            "branch": "red",
            "grid_denominator": 1,
            "max_depth": 64,
            "colorable": True,
        }

    def test_depth_exhaustion_unproved(self, capsys):
        # 1 = red leaves the unit grid of (2,5) partly free, and depth 0
        # allows no split
        argv = ("certify-upper", "2", "5", "--grid-denominator", "1", "--max-depth", "0")
        code, doc = run_cli(capsys, *argv)
        assert code == 2 and doc["status"] == "Unproved"
        assert doc["payload"] == {
            "error": "no closing chain for the red branch of (k=2, l=5) "
            "on the 1/1 grid within depth 0",
            "branch": "red",
            "grid_denominator": 1,
            "max_depth": 0,
            "colorable": False,
        }

    def test_zero_grid_denominator_is_invalid_input(self, capsys):
        code, doc = run_cli(capsys, "certify-upper", "2", "3", "--grid-denominator", "0")
        assert code == 64 and doc["status"] == "InvalidInput"

    @pytest.mark.parametrize(
        "argv",
        [("3", "4"), ("2", "3"), ("2", "4", "--grid-denominator", "2")],
        ids=["prover", "k2-built-chains", "k2-grid"],
    )
    def test_negative_max_depth_is_invalid_input(self, capsys, argv):
        code, doc = run_cli(capsys, "certify-upper", *argv, "--max-depth", "-1")
        assert code == 64 and doc["status"] == "InvalidInput"
        assert "depth" in doc["payload"]["error"]

    def test_unit_grid_closes_where_values_coincide(self, capsys):
        # at (2,3) the discrete and continuous values are both 7, so the
        # integer grid refutes and no half-steps are needed
        code, doc = run_cli(capsys, "certify-upper", "2", "3", "--grid-denominator", "1")
        assert code == 0
        assert doc["payload"]["points_used"] == ["1", "2", "3", "4", "5", "6", "7"]

    def test_tampered_color_fails_with_path(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify-upper", "2", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["root"][0]["steps"][0]["forced"] = "red"
        path.write_text(canonical_json(doc))
        code, out = run_cli(capsys, "verify-certificate", "--file", str(path))
        assert code == 1 and out["status"] == "WitnessFound"
        assert out["payload"]["failure"]["path"] == ["1=red"]
        assert out["payload"]["failure"]["step_index"] == 0

    def test_arity_mismatch_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify-upper", "2", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["spec"]["l"] = 4
        path.write_text(canonical_json(doc))
        code, out = run_cli(capsys, "verify-certificate", "--file", str(path))
        assert code == 64 and out["status"] == "InvalidInput"

    def test_deep_nesting_is_invalid_input_not_witness_found(self, capsys, tmp_path):
        # 6000 split levels, each an object inside a list: about 12000 deep,
        # past the json reader's nesting limit on CPython 3.10 through 3.13
        assume = '"assume":{"color":"red","point":"1"},"steps":[]'
        leaf = "{" + assume + ',"contradiction":{"color":"red","left":[["1",2]],"x0":"2"}}'
        root = ("{" + assume + ',"children":[') * 6000 + leaf + (',' + leaf + "]}") * 6000
        path = tmp_path / "deep.json"
        path.write_text(
            '{"spec":{"k":2,"l":2,"gamma":"1"},"domain_end":"5","root":[' + root + "," + leaf + "]}"
        )
        code, out = run_cli(capsys, "verify-certificate", "--file", str(path))
        assert code == 64 and out["status"] == "InvalidInput"
        assert "too deeply" in out["payload"]["error"]

    @staticmethod
    def spine_document(depth, tamper_level=None):
        """The k = 2, l = 3 certificate with its red root branch deepened by
        ``depth`` useless splits on fresh points p_i = 1 + i/8009: each red
        child closes with the branch's contradiction, each blue child splits
        again.  Built bottom-up, so no step recurses."""
        doc = json.loads(canonical_json(build_k2_certificate(3)))
        red = doc["root"][0]
        closing = red.pop("contradiction")
        points = [str(Fraction(8009 + i, 8009)) for i in range(1, depth + 1)]

        def leaf(point, color, level):
            witness = dict(closing, x0="3") if level == tamper_level else closing
            return {"assume": {"color": color, "point": point}, "steps": [], "contradiction": witness}

        node = leaf(points[-1], "blue", depth)
        for level in range(depth, 1, -1):
            pair = [leaf(points[level - 1], "red", level), node]
            node = {"assume": {"color": "blue", "point": points[level - 2]}, "steps": [], "children": pair}
        red["children"] = [leaf(points[0], "red", 1), node]
        return doc, points

    def test_nesting_too_deep_for_recursion_is_read_and_checked(self, capsys, monkeypatch):
        # Interpreters whose json.loads recursion limit is separate from the
        # Python one read files nested past it.  Parse and replay use explicit
        # stacks, so such a parsed object (4000 split levels) is checked like
        # any other: handed straight to the command, it verifies.
        base = certificate_stats(certificate_from_json(build_k2_certificate(3))[2])
        valid, points = self.spine_document(4000)
        monkeypatch.setattr("offrado.cli._read_json", lambda path: valid)
        code, out = run_cli(capsys, "verify-certificate", "--file", "deep.json")
        assert code == 0 and out["status"] == "Ok"
        assert out["payload"] == {
            "verified": True, "domain_end": "7",
            "branches": base["branches"] + 2 * 4000, "steps": base["steps"],
        }
        # a broken contradiction at split 3999 is reported at its full path
        tampered, points = self.spine_document(4000, tamper_level=3999)
        monkeypatch.setattr("offrado.cli._read_json", lambda path: tampered)
        code, out = run_cli(capsys, "verify-certificate", "--file", "deep.json")
        assert code == 1 and out["status"] == "WitnessFound"
        failure = out["payload"]["failure"]
        assert len(failure["path"]) == 4000
        assert failure["path"] == ["1=red"] + [f"{p}=blue" for p in points[:3998]] + [f"{points[3998]}=red"]
        assert failure["step_index"] is None
        assert failure["reason"] == "contradiction fails arithmetic, arity, or domain-start check"

    def test_verify_certificate_builds_no_certificate_objects(self, capsys, monkeypatch):
        # the command checks the decoded file's tuples; witness objects are
        # for the builders
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        monkeypatch.setattr(SolutionWitness, "__init__", refuse)
        for path in sorted(DATA.glob("certificate-*.json")):
            code, out = run_cli(capsys, "verify-certificate", "--file", str(path))
            assert code == 0 and out["payload"]["verified"] is True
        with pytest.raises(AssertionError, match="SolutionWitness was built"):
            SolutionWitness(Color.RED, (), Fraction(1))


    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_collector_paused_while_checking_and_restored(
        self, capsys, tmp_path, monkeypatch, collecting
    ):
        tampered = tmp_path / "tampered.json"
        run_cli(capsys, "certify-upper", "2", "3", "--out", str(tampered))
        doc = json.loads(tampered.read_text())
        doc["root"][0]["steps"][0]["forced"] = "red"
        tampered.write_text(canonical_json(doc))
        broken = tmp_path / "broken.json"
        broken.write_text('{"spec": ')
        seen = []
        check = cli.check_certificate

        def recording_check(*args):
            seen.append(gc.isenabled())
            return check(*args)

        monkeypatch.setattr(cli, "check_certificate", recording_check)
        before = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            cases = (
                (DATA / "certificate-4-6.json", 0),
                (tampered, 1),
                (broken, 64),
                (tmp_path / "missing.json", 64),
                (DATA, 64),
            )
            for path, expected in cases:
                code, _ = run_cli(capsys, "verify-certificate", "--file", str(path))
                assert code == expected
                assert gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == [False, False]


class TestFileSystemErrors:
    """An unreadable or unwritable path is InvalidInput (64), never a crash
    that exits 1, which would read as WitnessFound."""

    @pytest.mark.parametrize(
        "argv", [("verify-certificate",), ("verify-coloring", "2", "3")]
    )
    def test_reading_a_directory(self, capsys, tmp_path, argv):
        code, doc = run_cli(capsys, *argv, "--file", str(tmp_path))
        assert code == 64 and doc["status"] == "InvalidInput"
        assert str(tmp_path) in doc["payload"]["error"]

    @pytest.mark.parametrize("command", ["certify-upper", "lower-bound"])
    def test_writing_into_a_missing_directory(self, capsys, tmp_path, command):
        out = tmp_path / "missing" / "x.json"
        code, doc = run_cli(capsys, command, "2", "3", "--out", str(out))
        assert code == 64 and doc["status"] == "InvalidInput"
        assert str(out) in doc["payload"]["error"]
        assert not out.parent.exists()


def test_verify_coloring_reads_2000_alternating_intervals_per_class(capsys, tmp_path):
    # Reading checks the partition in one sweep over all 4000 pieces; the
    # pairwise check it replaced took about 30 s on a 2-vCPU host.  This end leaves
    # [4001, 4002) uncolored, so the command stops after reading.
    red = [[str(2 * i + 1), str(2 * i + 2), "[)"] for i in range(2000)]
    blue = [[str(2 * i + 2), str(2 * i + 3), "[)"] for i in range(2000)]
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps({"gamma": "1", "end": "4002", "end_inclusive": False, "red": red, "blue": blue}))
    start = time.perf_counter()
    code, result = run_cli(capsys, "verify-coloring", "2", "3", "--file", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, result["payload"]["error"]) == (64, "red and blue classes do not partition the domain")


def replace_literal(obj, old, new):
    """A copy of a decoded JSON value with every string equal to ``old`` replaced."""
    if isinstance(obj, list):
        return [replace_literal(item, old, new) for item in obj]
    if isinstance(obj, dict):
        return {key: replace_literal(item, old, new) for key, item in obj.items()}
    return new if obj == old else obj


# A literal with a trailing newline or in another digit script: a "$" anchor
# matches before a final newline, "\d" matches any Unicode digit, and int()
# reads both, so a pattern with either reads each as the value it maps to.
NONCANONICAL_LITERALS = {"3\n": "3", "3/4\n": "3/4", "\u0663/\u0662": "3/2"}


@pytest.mark.parametrize(
    "text", list(NONCANONICAL_LITERALS), ids=["newline", "fraction-newline", "arabic-indic"]
)
def test_noncanonical_literals_are_invalid_input(capsys, tmp_path, text):
    value = NONCANONICAL_LITERALS[text]
    with pytest.raises(ValueError, match="not an exact rational literal"):
        parse_rational(text)
    code, doc = run_cli(capsys, "lower-bound", "2", "3", "--gamma", text)
    assert code == 64 and doc["status"] == "InvalidInput"
    # the valid coloring at gamma = value, its literals equal to value swapped
    path = tmp_path / "coloring.json"
    run_cli(capsys, "lower-bound", "2", "3", "--gamma", value, "--out", str(path))
    path.write_text(json.dumps(replace_literal(json.loads(path.read_text()), value, text)))
    code, doc = run_cli(capsys, "verify-coloring", "2", "3", "--file", str(path))
    assert code == 64 and doc["status"] == "InvalidInput"
    # the valid (2,3) certificate, its points equal to value swapped; it has
    # no point 3/4, so that one goes in as the domain end
    path = tmp_path / "certificate.json"
    run_cli(capsys, "certify-upper", "2", "3", "--out", str(path))
    cert = json.loads(path.read_text())
    swapped = replace_literal(cert, value, text)
    if swapped == cert:
        swapped["domain_end"] = text
    path.write_text(json.dumps(swapped))
    code, doc = run_cli(capsys, "verify-certificate", "--file", str(path))
    assert code == 64 and doc["status"] == "InvalidInput"


# Each fails at its first bitmask, which is too large to allocate at all:
# 2^(3*10^20) bits overflows the int size, 2^(7*10^15) bits is out of memory.
GRID = ("certify-upper", "2", "3", "--grid-denominator")
HUGE_ARGUMENTS = {
    "discrete-overflow": (("discrete", "2", "1" + "0" * 20), "too many digits in integer"),
    "grid-overflow": ((*GRID, "1" + "0" * 20), "too many digits in integer"),
    "grid-memory": ((*GRID, "1" + "0" * 15), "out of memory"),
}


@pytest.mark.parametrize("case", list(HUGE_ARGUMENTS))
def test_huge_arguments_are_invalid_input(capsys, case):
    # an uncaught OverflowError or MemoryError would exit 1, WitnessFound
    argv, detail = HUGE_ARGUMENTS[case]
    code, doc = run_cli(capsys, *argv)
    assert (code, doc["status"]) == (64, "InvalidInput")
    assert doc["payload"]["error"] == f"an argument is too large: {detail}"


# argv -> what parsing it gives: parsed args, an InvalidInput message, or help
ROUTE_ARGVS = {
    ("formula", "3", "4", "--mode", "discrete"): "args",
    ("discrete", "4", "6", "--max-n", "30", "--scan"): "args",
    ("lower-bound", "2", "3", "--gamma", "1/2", "--out", "c.json"): "args",
    ("verify-coloring", "2", "3", "--file", "c.json"): "args",
    ("certify-upper", "2", "5", "--grid-denominator", "4", "--max-depth", "8"): "args",
    ("verify-certificate", "--file", "cert.json"): "args",
    ("reproduce", "--full"): "args",
    **{(name, "-h"): "help" for name in cli.COMMANDS},
    ("--", "discrete", "4", "6"): "error",
    ("discrete", "--", "4", "6"): "args",
    ("discrete", "4"): "error",
    ("discrete", "4", "6", "7"): "error",
    ("discrete", "four", "6"): "error",
    ("formula", "3", "4", "--mode", "bad"): "error",
    ("certify-upper", "2", "5", "--grid-d", "4"): "args",
    ("discrete", "4", "6", "--nosuch"): "error",
    ("verify-certificate",): "error",
    ("formula", "3", "4", "--gamma"): "error",
    ("discrete", "4", "6", "--he"): "help",
    ("--mode", "discrete", "formula", "3", "4"): "error",
    (): "error",
    ("nosuch",): "error",
    ("-h",): "help",
    ("--help",): "help",
}


def parse_outcome(parse, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", parse(list(argv))
    except cli._CliError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue()


@pytest.mark.parametrize("argv", list(ROUTE_ARGVS), ids=" ".join)
def test_one_command_route_parses_as_the_full_parser(argv):
    # equal namespaces, equal messages or equal help text, under whatever
    # argparse this interpreter ships
    one = parse_outcome(cli.parse_args, argv)
    full = parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert one == full
    assert one[0] == ROUTE_ARGVS[argv]
    if one[0] == "help":
        assert one[1] == 0 and one[2].startswith("usage: offrado")


class TestParserBuilds:
    """A command builds its own parser only; the other six stay unbuilt."""

    def parsers_built(self, capsys, monkeypatch, *argv):
        progs = []
        init = cli._Parser.__init__

        def counting(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        code = main(list(argv))
        capsys.readouterr()
        return code, progs

    def test_formula_builds_one(self, capsys, monkeypatch):
        assert self.parsers_built(capsys, monkeypatch, "formula", "3", "4") == (0, ["offrado formula"])

    def test_verify_certificate_builds_one(self, capsys, monkeypatch):
        code, progs = self.parsers_built(
            capsys, monkeypatch, "verify-certificate", "--file", str(DATA / "certificate-4-6.json")
        )
        assert (code, progs) == (0, ["offrado verify-certificate"])

    def test_unknown_command_builds_them_all(self, capsys, monkeypatch):
        code, progs = self.parsers_built(capsys, monkeypatch, "nosuch")
        assert code == 64 and len(progs) == 1 + len(cli.COMMANDS)


class TestReproduce:
    def test_quick_profile_passes(self, capsys):
        code, doc = run_cli(capsys, "reproduce")
        assert code == 0 and doc["payload"]["all_ok"] is True
        assert len(doc["payload"]["checks"]) > 30

    def test_full_profile_output_is_pinned(self, capsys):
        # Every check's name and detail, the search node counts and the
        # oracle verdicts.  The sumset oracle's line reads "all instances
        # agree" whatever instances it draws, so a changed draw stream keeps
        # this hash; tests/test_suite.py replays the stream the oracle drew
        # while its member-sample route still took random tuples.
        code = main(["reproduce", "--full"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "0e15347e31affacf3c35dfa594975e8db05bc5e3588f1bbcf2da2ab8e1fa0239"
        )


class TestInternalError:
    """A failed self-check is a bug, not a verdict: exit 70 with one JSON
    document on stdout and the traceback on stderr, never the 1 of
    WitnessFound."""

    def run_internal(self, capsys, *argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert out.endswith("\n") and out.count("\n") == 1, "exactly one JSON document"
        doc = json.loads(out)
        assert code == 70 and doc["status"] == "InternalError" and doc["command"] == "internal"
        assert "Traceback" in err and "RuntimeError" in err
        return doc["payload"]["error"]

    def test_certificate_emission_fault(self, capsys, monkeypatch):
        as_json = SolutionWitness.as_json
        monkeypatch.setattr(SolutionWitness, "as_json", lambda w: {**as_json(w), "note": "x"})
        assert "failed its own check" in self.run_internal(capsys, "certify-upper", "3", "4")

    def test_discrete_recheck_fault(self, capsys, monkeypatch):
        witness = SolutionWitness.from_values(Color.RED, [1, 1, 1], 3)
        monkeypatch.setattr(search, "is_valid_discrete", lambda coloring, spec: Verdict(witness))
        assert "re-check" in self.run_internal(capsys, "discrete", "3", "4")


class TestProcessLevel:
    def run_offrado(self, stdout, *argv):
        return subprocess.run(
            [sys.executable, "-m", "offrado", *argv], stdout=stdout, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": SRC},
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("discrete", "2", "3", "--no-propagation"),
            ("certify-upper", "3", "4"),
            ("verify-certificate", "--file", str(DATA / "certificate-4-6.json")),
            ("verify-coloring", "2", "3", "--file", "lower-bound.json"),
            ("reproduce",),
        ],
        ids=["discrete-oracle", "certify-upper", "verify-certificate", "verify-coloring", "reproduce"],
    )
    def test_cli_imports_no_numpy_dataclasses_or_inspect(self, tmp_path, argv):
        # numpy not even in the 2^n oracle that once used it; the records are
        # NamedTuples and one slotted class, so dataclasses and the inspect
        # it pulls in stay out too
        coloring = coloring_as_json(lower_bound_coloring(ProblemSpec(2, 3)))
        (tmp_path / "lower-bound.json").write_text(canonical_json(coloring))
        script = (
            "import contextlib, io, sys, offrado.cli\n"
            "heavy = ('numpy', 'dataclasses', 'inspect')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = offrado.cli.main(sys.argv[1:])\n"
            "print(code, [m for m in heavy if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=tmp_path,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n0 []\n", proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_full_stdout_is_invalid_input(self):
        # exit 1 would read as WitnessFound; the write failing is not a verdict
        with open("/dev/full", "w") as full:
            proc = self.run_offrado(full, "discrete", "2", "3")
        assert proc.returncode == 64
        assert proc.stderr == "offrado: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize(
        "argv", [("discrete", "2", "3"), ("certify-upper", "2", "4", "--grid-denominator", "1")],
        ids=["ok", "unproved"],
    )
    def test_closed_pipe_is_invalid_input(self, argv):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before anything is written
        try:
            proc = self.run_offrado(write, *argv)
        finally:
            os.close(write)
        assert proc.returncode == 64
        assert proc.stderr == "offrado: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_closed_pipe_with_full_stderr_is_invalid_input(self):
        # the note on stderr fails too, and must not turn 64 into 1
        read, write = os.pipe()
        os.close(read)
        try:
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "offrado", "discrete", "2", "2"], stdout=write,
                    stderr=full, env={**os.environ, "PYTHONPATH": SRC},
                )
        finally:
            os.close(write)
        assert proc.returncode == 64

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("argv", [("-h",), ("discrete", "-h")], ids=["top-level", "command"])
    def test_help_to_full_stdout_is_invalid_input(self, argv):
        # argparse drops the failed write, which would exit 0 with no help shown
        with open("/dev/full", "w") as full:
            proc = self.run_offrado(full, *argv)
        assert proc.returncode == 64
        assert proc.stderr == "offrado: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("argv", [("-h",), ("discrete", "-h")], ids=["top-level", "command"])
    def test_help_with_stdout_closed_goes_to_stderr(self, argv):
        # no stdout at all: argparse's own fallback, exit 0
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m offrado "$@" >&-', sys.executable, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0 and proc.stdout == ""
        assert proc.stderr.startswith(f"usage: {' '.join(['offrado', *argv[:-1]])} [-h]")

    def test_every_name_the_tracer_wraps_resolves_after_importing_the_cli(self):
        # perfbench/layers.py wraps (module, attribute) pairs in the modules
        # that `import offrado.cli` loads; a name that moves away or a module
        # that is no longer loaded would make its metrics read as missing
        tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
        tables = {
            target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) in ("FUNCTIONS", "CLASSES")
        }
        assert set(tables) == {"FUNCTIONS", "CLASSES"}
        names = [[module, attr] for table in tables.values() for module, attr, _ in table]
        assert len(names) > 20
        script = (
            "import json, sys, offrado.cli\n"
            "names = json.loads(sys.argv[1])\n"
            "print([f'{m}.{a}' for m, a in names if not hasattr(sys.modules.get('offrado.' + m), a)])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(names)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr + proc.stdout

    def test_module_entry_point(self):
        proc = self.run_offrado(subprocess.PIPE, "formula", "2", "2", "--mode", "discrete")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["value"] == "5"
