"""End-to-end benchmark of the offrado command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run each in turn.  Every command runs
cold in a fresh child process (perfbench/child.py), one child at a time, with
PYTHONPATH=src, PYTHONHASHSEED=0 and RADO_THREADS unset.  A run repeats passes
over the workload's commands for about S seconds, checks every command's
output, and reports, with times rescaled to a reference host speed (see
``at_reference_speed``; the report also prints them as measured):

- wall_s: seconds inside ``cli.main``, summed over the commands, each taken
  from its fastest pass (see ``fastest_sum``);
- setup_s: seconds to ``import offrado.cli``, median over the run's children;
- cpu_s: user plus system CPU seconds inside ``cli.main``, summed the same way;
- peak_rss_mb: the largest max-RSS among a pass's children, median over passes;
- error_rate: commands whose exit code or output check failed, over commands
  attempted, printed with both counts.  The JSON line carries the counts of
  the timed commands as ``attempted`` and ``failed``; a workload's probe of a
  known defect is run once, untimed, and reported apart from them.

With ``--trace 1`` one untraced pass is followed by traced passes
(perfbench/layers.py), and the JSON line carries the per-layer metrics and the
tracing overhead instead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; ``correct`` is false when a check
failed or a deterministic count differed between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Callable, Optional

import corpus
import layers

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path(__file__).resolve().parent / "_work"
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}
CHILD_TIMEOUT_S = 120
# The child's gauge (child.gauge_s) takes about this long on a 2-vCPU Intel
# Xeon virtual machine with Python 3.11.  Times are reported at that speed.
GAUGE_REFERENCE_S = 0.015
MIN_SETUP_SAMPLES = 9
# Deterministic counts are compared between passes, so there are at least two.
MIN_PASSES = 2


@dataclass
class Command:
    argv: list[str]
    label: str
    # (exit code, parsed stdout or None) -> what is wrong, or None
    check: Callable[[int, Optional[dict]], Optional[str]]


@dataclass
class Outcome:
    command: Command
    record: dict
    problem: Optional[str]
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Output checks


def _monochromatic(members: list[int], m: int, n: int) -> bool:
    """Whether x1 + ... + xm = x0 has a solution inside ``members`` (a subset
    of 1..n), by iterated bitset sumsets; shares no code with the package."""
    own = 0
    for v in members:
        own |= 1 << v
    limit = (1 << (n + 1)) - 1
    sums = own
    for _ in range(m - 1):
        grown = 0
        for v in members:
            grown |= sums << v
        sums = grown & limit
    return sums & own != 0


def _status(code: int, doc: Optional[dict], want_code: int) -> Optional[str]:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if doc is None:
        return "no JSON document on stdout"
    return None


def check_discrete(k: int, l: int):
    def check(code, doc):
        problem = _status(code, doc, 0)
        if problem:
            return problem
        p = doc["payload"]
        if p["value"] != p["formula_value"] or p["formula_mismatch"]:
            return f"value {p['value']} vs formula {p['formula_value']}"
        n = p["value"] - 1
        ext = p["extremal"]
        if ext["n"] != n or sorted(ext["red"] + ext["blue"]) != list(range(1, n + 1)):
            return "extremal coloring does not partition 1..value-1"
        if _monochromatic(ext["red"], k, n) or _monochromatic(ext["blue"], l, n):
            return "extremal coloring has a monochromatic solution"
        return None

    return check


def check_certify(k: int, l: int, path: Path, payloads: dict):
    def check(code, doc):
        problem = _status(code, doc, 0)
        if problem:
            return problem
        p = payloads[path] = doc["payload"]
        if p["domain_end"] != str(k * l + k - 1):
            return f"domain_end {p['domain_end']}, expected {k * l + k - 1}"
        if p["file"] != str(path):
            return "certificate file not written where asked"
        return None

    return check


def check_verified(expected: Callable[[], tuple]):
    """Exit 0 and verified, with the (domain_end, branches, steps) expected."""

    def check(code, doc):
        problem = _status(code, doc, 0)
        if problem:
            return problem
        p = doc["payload"]
        if p.get("verified") is not True:
            return f"not verified: {p.get('failure')}"
        got = (p["domain_end"], p["branches"], p["steps"])
        return None if got == expected() else f"(domain_end, branches, steps) {got}, expected {expected()}"

    return check


def check_rejected(code, doc):
    problem = _status(code, doc, 1)
    if problem:
        return problem
    failure = doc["payload"].get("failure") or {}
    if doc["payload"].get("verified") is not False or not failure.get("path"):
        return "tampered certificate not rejected with a failure path"
    return None


def check_reproduce(code, doc):
    problem = _status(code, doc, 0)
    if problem:
        return problem
    failed = [c["name"] for c in doc["payload"]["checks"] if not c["ok"]]
    if not doc["payload"]["all_ok"] or failed:
        return f"reproduce checks failed: {failed[:5]}"
    return None


# ---------------------------------------------------------------------------
# Workloads: (seed, work directory) -> (commands of one pass, probe or None).
# The seed orders the commands and, for verify-corpus, makes the files.

LADDER = ((2, 10), (3, 7), (4, 5), (4, 6), (5, 5), (5, 6))
ROUNDTRIP = ((4, 6, None), (5, 5, None), (5, 6, None), (2, 5, 4), (3, 4, 3))


def discrete_ladder(seed: int, work: Path):
    """Per-n clause and witness building dominates, then DFS and propagation;
    certificates and intervals are not used."""
    commands = [
        Command(["discrete", str(k), str(l)], f"discrete {k} {l}", check_discrete(k, l))
        for k, l in LADDER
    ]
    random.Random(seed).shuffle(commands)
    return commands, None


def certify_roundtrip(seed: int, work: Path):
    """The write side of certificates: the rational-grid clause generator,
    auto_prove, the built chains and emit, each file then parsed and replayed.
    Shares equations and propagation with discrete-ladder through another
    generator; search and intervals are not used."""
    payloads: dict = {}
    pairs = []
    for k, l, d in ROUNDTRIP:
        path = work / f"cert_{k}_{l}.json"
        grid = ["--grid-denominator", str(d)] if d else []
        certify = Command(
            ["certify-upper", str(k), str(l), *grid, "--out", str(path)],
            " ".join(["certify-upper", str(k), str(l), *grid]),
            check_certify(k, l, path, payloads),
        )
        written = lambda k=k, l=l, path=path: (
            str(k * l + k - 1),
            payloads.get(path, {}).get("branches"),
            payloads.get(path, {}).get("steps"),
        )
        verify = Command(
            ["verify-certificate", "--file", str(path)], f"verify-certificate {path.name}", check_verified(written)
        )
        pairs.append([certify, verify])
    random.Random(seed).shuffle(pairs)
    return [c for pair in pairs for c in pair], None


def _corpus_command(work: Path, f: corpus.CorpusFile) -> Command:
    path = work / f.name
    path.write_text(f.text, encoding="ascii")
    check = check_verified(lambda: (f.domain_end, f.branches, f.steps)) if f.valid else check_rejected
    return Command(["verify-certificate", "--file", str(path)], f"verify-certificate {f.name} ({f.note})", check)


def verify_corpus(seed: int, work: Path):
    """The read side of certificates, where parse and recursive replay
    dominate; no clauses are built.  Files are made before any timing."""
    files, probe = corpus.build_corpus(seed)
    commands = [_corpus_command(work, f) for f in files]
    random.Random(seed).shuffle(commands)
    return commands, _corpus_command(work, probe)


def reproduce_full(seed: int, work: Path):
    """The only workload where intervals does real work and the numpy
    brute-force oracle runs, and where clause caches are reused across specs
    in one process."""
    return [Command(["reproduce", "--full"], "reproduce --full", check_reproduce)], None


WORKLOADS = {
    "discrete-ladder": discrete_ladder,
    "certify-roundtrip": certify_roundtrip,
    "verify-corpus": verify_corpus,
    "reproduce-full": reproduce_full,
}


# ---------------------------------------------------------------------------
# Running


def run_child(argv: Optional[list[str]], trace: bool) -> dict:
    request = json.dumps({"argv": argv, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), request],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failed": f"no result within {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failed": f"child exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def payload_counts(doc: Optional[dict]) -> dict:
    """Deterministic counts the command reports in its own payload."""
    if doc is None:
        return {}
    p = doc.get("payload") or {}
    out = {}
    if doc.get("command") == "discrete":
        out["search.nodes"] = p["stats"]["nodes_explored"]
        out["search.propagations"] = p["stats"]["propagations"]
    if "steps" in p and "branches" in p:
        out["certificates.steps"] = p["steps"]
        out["certificates.branches"] = p["branches"]
    return out


def run_command(command: Command, trace: bool) -> Outcome:
    record = run_child(command.argv, trace)
    if "failed" in record:
        return Outcome(command, record, record["failed"])
    doc = None
    if record["stdout"].strip():
        try:
            doc = json.loads(record["stdout"])
        except json.JSONDecodeError:
            return Outcome(command, record, "stdout is not JSON")
    if record["uncaught"]:
        problem = f"uncaught {record['uncaught']}"
    else:
        problem = command.check(record["exit_code"], doc)
    counts = payload_counts(doc) if problem is None else {}
    if record["trace"] is not None:
        counts.update(layers.deterministic_counts(record["trace"]))
    return Outcome(command, record, problem, counts)


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def peak_rss_mb(self) -> float:
        return max(o.record.get("peak_rss_mb", 0.0) for o in self.outcomes)

    def merged_trace(self) -> dict:
        return layers.merge([o.record["trace"] for o in self.outcomes if o.record.get("trace")])


def at_reference_speed(record: dict, key: str) -> float:
    """A child's timing rescaled to the host speed of GAUGE_REFERENCE_S.

    On a shared host the same work runs up to twice as slow in busy spells,
    which last from seconds to many minutes.  The gauge, a fixed load the
    child runs in the same process before the import and after ``main``,
    slows with it, so dividing by the gauge cancels most of that drift while
    leaving every change in offrado's own work in place.  The import is
    scaled by the gauge just before it, the command by the mean of both.
    """
    if key not in record:
        return 0.0
    if key == "import_s":
        gauge = record["gauge_before_s"]
    else:
        gauge = (record["gauge_before_s"] + record["gauge_after_s"]) / 2
    return record[key] * GAUGE_REFERENCE_S / gauge


def fastest_sum(passes: list[Pass], key: str, scale=at_reference_speed) -> float:
    """Sum over the commands of each command's fastest pass.

    Busy spells on the host only ever slow a command, so its fastest pass
    is the one least disturbed; the median over a run's few passes moves
    with the spells it happens to catch.
    """
    return sum(
        min(scale(p.outcomes[i].record, key) for p in passes) for i in range(len(passes[0].outcomes))
    )


def measured(record: dict, key: str) -> float:
    return record.get(key, 0.0)


def run_pass(commands: list[Command], trace: bool) -> Pass:
    return Pass([run_command(c, trace) for c in commands])


def another_pass(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether one more pass ends nearer the time budget than stopping now."""
    return elapsed + elapsed / passes / 2 < seconds


def nondeterministic(passes: list[Pass]) -> list[str]:
    """Commands whose counts differ between passes of the same code."""
    seen: dict[str, dict] = {}
    bad = []
    for p in passes:
        for o in p.outcomes:
            first = seen.setdefault(o.command.label, dict(o.counts))
            for key, value in o.counts.items():
                if first.setdefault(key, value) != value:
                    bad.append(f"{o.command.label}: {key} {first[key]} then {value}")
    return bad


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        commands, probe = WORKLOADS[name](seed, work)
        started = time.perf_counter()
        plain = [run_pass(commands, False)]
        traced: list[Pass] = []
        while len(traced if trace else plain) < MIN_PASSES or another_pass(
            time.perf_counter() - started, len(plain) + len(traced), seconds
        ):
            (traced if trace else plain).append(run_pass(commands, trace))
        imports = [o.record for p in plain + traced for o in p.outcomes if "import_s" in o.record]
        while len(imports) < MIN_SETUP_SAMPLES:
            imports.append(run_child(None, False))
        probe_outcome = run_command(probe, False) if probe else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still in it
            pass
    return summarize(name, commands, plain, traced, imports, probe_outcome)


def summarize(name, commands, plain, traced, imports, probe) -> dict:
    outcomes = [o for p in plain + traced for o in p.outcomes]
    failed = [o for o in outcomes if o.problem]
    drift = nondeterministic(plain + traced)
    end_to_end = {
        "wall_s": {"value": fastest_sum(plain, "main_s"), "unit": "s"},
        "setup_s": {"value": median(at_reference_speed(r, "import_s") for r in imports), "unit": "s"},
        "cpu_s": {"value": fastest_sum(plain, "cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median(p.peak_rss_mb for p in plain), "unit": "MB"},
    }
    as_measured = {
        "wall_s": fastest_sum(plain, "main_s", measured),
        "setup_s": median(measured(r, "import_s") for r in imports),
        "cpu_s": fastest_sum(plain, "cpu_s", measured),
    }
    per_layer = None
    if traced:
        per_layer = layers.traced_metrics([p.merged_trace() for p in traced])
        last = traced[-1].outcomes
        for key in ("search.nodes", "search.propagations", "certificates.steps", "certificates.branches"):
            per_layer[key] = {"value": sum(o.counts.get(key, 0) for o in last), "unit": "count"}
        overhead = fastest_sum(traced, "main_s") - end_to_end["wall_s"]["value"]
        per_layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    probes = 1 if probe else 0
    probe_failed = 1 if probe and probe.problem else 0
    return {
        "workload": name,
        "commands": len(commands),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "correct": not failed and not drift,
        "attempted": len(outcomes),
        "failed": len(failed),
        "failures": [f"{o.command.label}: {o.problem}" for o in failed][:10],
        "nondeterministic": drift[:10],
        "error_rate": (len(failed) + probe_failed) / (len(outcomes) + probes),
        "probes": probes,
        "probe_failed": probe_failed,
        "probe": None if probe is None else f"{probe.command.label}: {probe.problem or 'ok'}",
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "per_layer": per_layer,
        "counts": {o.command.label: o.counts for o in (traced or plain)[-1].outcomes},
    }


# ---------------------------------------------------------------------------
# Reporting


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def print_report(result: dict) -> None:
    print(f"== {result['workload']}: {result['commands']} commands per pass, passes {result['passes']}")
    for label, counts in result["counts"].items():
        shown = " ".join(f"{k}={v}" for k, v in counts.items())
        print(f"   {label}  {shown}")
    for metric, m in result["end_to_end"].items():
        measured = result["as_measured"].get(metric)
        note = f"  ({measured:.4f} as measured, before rescaling)" if measured is not None else ""
        print(f"   {metric:<12} {m['value']:.4f} {m['unit']}{note}")
    print(
        f"   {'error_rate':<12} {result['error_rate']:.4f} ratio "
        f"({result['failed'] + result['probe_failed']} of {result['attempted'] + result['probes']} commands "
        f"failed: {result['failed']} of {result['attempted']} timed, "
        f"{result['probe_failed']} of {result['probes']} probe)"
    )
    if result["probe"]:
        print(f"   probe, untimed and not in failed, expected to exit 0 verified: {result['probe']}")
    for line in result["failures"] + result["nondeterministic"]:
        print(f"   FAILED {line}")
    if result["per_layer"]:
        for metric, m in result["per_layer"].items():
            value = "missing: " + m["missing"] if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {metric:<30} {value} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "offrado" / "cli.py").is_file():
        print(f"perfbench: no offrado sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        print("environment: " + json.dumps({**env, "workload": name, "commands_per_pass": result["commands"]}))
        print_report(result)

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        chosen = r["per_layer"] if args.trace else r["end_to_end"]
        metrics.update({prefix + k: v for k, v in chosen.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
