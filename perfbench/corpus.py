"""Seeded certificate files for the verify-corpus workload.

The files are built from ``data/base_certificates.json``: four upper-bound
certificates, (2,6), (3,5), (4,5) and (5,5), as ``offrado certify-upper``
emitted them when this benchmark was written.  They are stored as data and the
generator never calls the package, so every commit under comparison verifies
byte-identical inputs even when a later change alters how certificates are
built.

A file deepens one root branch of a base certificate with a split spine: the
branch splits on fresh points p_1 .. p_D (rationals with denominator 10007,
which no base chain uses); at every level the red child replays the base
branch's whole chain, and the blue child splits again, until the last blue
child replays the chain too.  Every split is useless but sound, so the file
verifies, and parse and replay work grow linearly with D.  A tampered copy
changes exactly one thing at one level, which the verifier must reject with a
non-empty failure path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BASES = Path(__file__).resolve().parent / "data" / "base_certificates.json"
PRIME = 10007
# Root branch deepened in each base; the longer chain where the two differ.
VALID_BRANCHES = (1, 0, 0, 0)
VALID_DEPTH = 280
# Nested past the interpreter's recursion limit: json.loads and the recursive
# parser and verifier all overflow on it.  It is valid, so exit 0 is correct.
PROBE_DEPTH = 800
TAMPER_KINDS = ("step-x0", "step-forced", "contradiction-x0", "split-color")


@dataclass(frozen=True)
class CorpusFile:
    name: str
    text: str
    valid: bool
    domain_end: str
    branches: int
    steps: int
    note: str


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _count(node: dict) -> tuple[int, int]:
    """(branches, steps) of a base subtree, without recursion."""
    branches = steps = 0
    stack = [node]
    while stack:
        n = stack.pop()
        branches += 1
        steps += len(n["steps"])
        stack.extend(n.get("children", ()))
    return branches, steps


def _bump(rational: str) -> str:
    return str(Fraction(rational) + 1)


def _tampered(tail: dict, kind: str, rng: random.Random) -> dict:
    tail = json.loads(_dumps(tail))
    if kind == "contradiction-x0":
        tail["contradiction"]["x0"] = _bump(tail["contradiction"]["x0"])
        return tail
    step = rng.choice(tail["steps"])
    if kind == "step-x0":
        step["witness"]["x0"] = _bump(step["witness"]["x0"])
    else:  # step-forced
        step["forced"] = "red" if step["forced"] == "blue" else "blue"
    return tail


def spine_text(
    node: dict,
    points: list[str],
    tamper: tuple[str, int] | None = None,
    rng: random.Random | None = None,
) -> str:
    """JSON text of ``node`` behind one split per point, built iteratively
    because the deepest files are past what json.dumps can nest.

    ``tamper`` is (kind, level): the one change a tampered copy makes, at
    level 1 .. len(points).
    """
    tail = {key: value for key, value in node.items() if key != "assume"}
    broken = _tampered(tail, tamper[0], rng) if tamper and tamper[0] != "split-color" else None

    def closing(level: int, point: str, color: str) -> str:
        body = broken if broken is not None and level == tamper[1] else tail
        return _dumps({"assume": {"color": color, "point": point}, **body})

    parts = ['{"assume":', _dumps(node["assume"]), ',"children":[']
    depth = len(points)
    for level, point in enumerate(points, start=1):
        red = "blue" if tamper == ("split-color", level) else "red"
        parts.append(closing(level, point, red) + ",")
        if level < depth:
            parts.append('{"assume":' + _dumps({"color": "blue", "point": point}) + ',"children":[')
        else:
            parts.append(closing(level, point, "blue"))
    parts.append('],"steps":[]}' * depth)
    return "".join(parts)


def _certificate(base: dict, branch: int, points: list[str], tamper=None, rng=None) -> str:
    root = [_dumps(node) for node in base["root"]]
    root[branch] = spine_text(base["root"][branch], points, tamper, rng)
    return (
        '{"domain_end":' + _dumps(base["domain_end"]) + ',"root":[' + ",".join(root)
        + '],"spec":' + _dumps(base["spec"]) + "}\n"
    )


def _points(rng: random.Random, domain_end: str, depth: int) -> list[str]:
    span = (int(domain_end) - 1) * PRIME
    picks = rng.sample([n for n in range(1, span) if n % PRIME], depth)
    return [str(Fraction(PRIME + n, PRIME)) for n in picks]


def _deepened(rng: random.Random, base: dict, branch: int, depth: int):
    points = _points(rng, base["domain_end"], depth)
    b, s = _count(base["root"][branch])
    ob, os_ = _count(base["root"][1 - branch])
    branches = 1 + depth * b + (depth - 1) + b + ob
    steps = (depth + 1) * s + os_
    spec = base["spec"]
    label = f"({spec['k']},{spec['l']}) {base['root'][branch]['assume']['color']} branch, depth {depth}"
    return points, branches, steps, label


def build_corpus(seed: int) -> tuple[list[CorpusFile], CorpusFile]:
    """The timed files (one valid file per base, then one tampered copy of
    each) and the recursion-limit probe.

    Which base, branch and depth each file uses is fixed, and the tampered
    levels sit near fixed fractions of the depth, so the amount of work does
    not depend on ``seed``; the seed picks the split points, the tamper kinds
    and the exact tampered levels.
    """
    rng = random.Random(seed)
    bases = json.loads(BASES.read_text(encoding="ascii"))
    files: list[CorpusFile] = []
    tampered: list[CorpusFile] = []
    for i, (base, branch) in enumerate(zip(bases, VALID_BRANCHES)):
        points, branches, steps, label = _deepened(rng, base, branch, VALID_DEPTH)
        end = base["domain_end"]
        files.append(
            CorpusFile(f"valid{i}.json", _certificate(base, branch, points), True, end, branches, steps, label)
        )
        kind = rng.choice(TAMPER_KINDS)
        level = VALID_DEPTH * (i + 1) // (len(bases) + 1) + rng.randint(-5, 5)
        text = _certificate(base, branch, points, (kind, level), rng)
        tampered.append(
            CorpusFile(f"tampered{i}.json", text, False, end, 0, 0, f"{label}, {kind} at level {level}")
        )
    points, branches, steps, label = _deepened(rng, bases[-1], 0, PROBE_DEPTH)
    probe = CorpusFile(
        "probe.json", _certificate(bases[-1], 0, points), True, bases[-1]["domain_end"], branches, steps, label
    )
    return files + tampered, probe
