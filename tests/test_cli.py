import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from offrado.certificates import build_k2_certificate, certificate_as_json, certificate_stats
from offrado.cli import main
from offrado.serialize import canonical_json


SRC = str(Path(__file__).resolve().parent.parent / "src")


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
        # the 2^n sweep visits every coloring of each n it tries: 2 + 4 + ... + 2^7
        code, doc = run_cli(capsys, "discrete", "2", "3", "--no-propagation")
        assert code == 0
        stats = doc["payload"].pop("stats")
        assert stats.pop("elapsed_seconds") >= 0
        assert stats == {"nodes_explored": sum(1 << n for n in range(1, 8)), "propagations": 0}
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
        # discrete 11 > continuous 9 at (2,4): integers cannot refute
        code, doc = run_cli(capsys, "certify-upper", "2", "4", "--grid-denominator", "1")
        assert code == 2 and doc["status"] == "Unproved"
        assert doc["payload"]["branch"] == "red"

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
        doc = json.loads(canonical_json(certificate_as_json(build_k2_certificate(3))))
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
        base = certificate_stats(build_k2_certificate(3))
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


class TestReproduce:
    def test_quick_profile_passes(self, capsys):
        code, doc = run_cli(capsys, "reproduce")
        assert code == 0 and doc["payload"]["all_ok"] is True
        assert len(doc["payload"]["checks"]) > 30

    def test_full_profile_output_is_pinned(self, capsys):
        # Every check's name and detail, the search node counts and the
        # oracle verdicts: any drift in what --full computes changes the hash.
        code = main(["reproduce", "--full"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "8edaeb3e067ce6163150655ea87a21f1b23df31cf04b2cec0ce9eab19400a270"
        )


class TestProcessLevel:
    def test_cli_never_imports_numpy(self):
        # not on import, and not in the 2^n oracle that once used it
        script = (
            "import contextlib, io, sys, offrado.cli\n"
            "print('numpy' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    offrado.cli.main(['discrete', '2', '3', '--no-propagation'])\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0 and proc.stdout == "False\nFalse\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "offrado", "formula", "2", "2", "--mode", "discrete"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["value"] == "5"
