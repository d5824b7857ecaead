"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
tolerance is exact (rational equality / boolean outcomes); the stated runtime
budgets are generous and printed for reference.

Criterion 4 checks that non-integer points are needed exactly where the
discrete value exceeds the continuous one: for k=2 and l in {3,4,5} the unit
grid closes iff S(2,l) equals 2l+1, and the half grid closes every time; a
grid closes when ``certify_upper`` refutes and checks both branches on it.  Its
l=3 case once expected the unit grid to fail, which criterion 1 itself rules
out: S(2,3) = 3*3-2 = 7 equals the continuous value 2*3+1, so the integers
{1..7} are uncolorable and a denominator-1 refutation exists.  1 red forces 2
blue (1+1=2), then 6 red (2+2+2=6), then 7 and 3 blue (1+6=7, 3+3=6), and
2+2+3=7 is all blue.  The l=3 expectation is therefore "closes".
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from offrado.certificates import (
    UnprovedError,
    certificate_from_json,
    certify_upper,
    points_used,
    residue_params,
    verify_certificate,
)
from offrado.equations import ProblemSpec, check_witness, formula_continuous, formula_discrete
from offrado.intervals import (
    decompose_sum,
    lower_bound_coloring,
    m_fold_sumset,
    boundary_witnesses,
    scale_coloring,
    verify_coloring,
)
from offrado.search import brute_force_colorable, compute_rado, search_valid
from offrado.suite import KNOWN_TABLE, random_interval_set, _interval_samples


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_formula_table():
    started = time.perf_counter()
    wrong = []
    for (k, l), expected in sorted(KNOWN_TABLE.items()):
        value = compute_rado(ProblemSpec(k, l)).value
        if value != expected:
            wrong.append(((k, l), value, expected))
    elapsed = time.perf_counter() - started
    report(1, "formula table 2<=k<=l<=5", not wrong,
           f"10 exact values in {elapsed:.1f}s" if not wrong else f"mismatches {wrong}")


def test_criterion_2_lower_bound_validity_and_extremality():
    started = time.perf_counter()
    bad = []
    count = 0
    for k in range(2, 11):
        for l in range(k, 11):
            count += 1
            spec = ProblemSpec(k, l)
            coloring = lower_bound_coloring(spec)
            end = Fraction(k * l + k - 1)
            red_w, blue_w = boundary_witnesses(spec)
            ok = (
                verify_coloring(coloring, spec).is_valid
                and check_witness(spec, red_w)
                and check_witness(spec, blue_w)
                and red_w.x0 == blue_w.x0 == end
                # monochromatic once the closed endpoint takes the matching color
                and all(coloring.red.contains(v) for v, _ in red_w.left)
                and all(coloring.blue.contains(v) for v, _ in blue_w.left)
            )
            if not ok:
                bad.append((k, l))
    elapsed = time.perf_counter() - started
    report(2, "two-block colorings 2<=k<=l<=10", not bad,
           f"{count} specs in {elapsed:.1f}s" if not bad else f"failures {bad}")


def test_criterion_3_upper_bound_certificates():
    started = time.perf_counter()
    bad = []
    for l in range(2, 11):
        cert, _ = certify_upper(ProblemSpec(2, l))
        _, end, nodes = certificate_from_json(cert)
        halves = l < 3 or {"3/2", "5/2"} <= set(points_used(nodes))
        if not (verify_certificate(cert).ok and end == 2 * l + 1 and halves):
            bad.append((2, l))
    for k in range(3, 6):
        for l in range(k, 6):
            cert, _ = certify_upper(ProblemSpec(k, l))
            if not (verify_certificate(cert).ok and cert["domain_end"] == str(k * l + k - 1)):
                bad.append((k, l))
    elapsed = time.perf_counter() - started
    report(3, "certificates k=2 l<=10 and 3<=k<=l<=5", not bad,
           f"15 verified certificates in {elapsed:.1f}s" if not bad else f"failures {bad}")


def test_criterion_4_non_integer_necessity():
    started = time.perf_counter()
    # expected denominator-1 outcome per l: True means the unit grid closes
    expected = {3: True, 4: False, 5: False}
    outcomes = {}
    bad = []
    for l in (3, 4, 5):
        spec = ProblemSpec(2, l)
        if expected[l] != (formula_discrete(2, l) == formula_continuous(2, l)):
            bad.append((l, "expectation vs formula comparison"))
        if expected[l] != (search_valid(2 * l + 1, spec) is None):
            bad.append((l, "expectation vs discrete search"))
        certs = {}
        for d in (1, 2):
            try:
                certs[d] = certify_upper(spec, grid_denominator=d)[0]
            except UnprovedError:
                pass
        outcomes[l] = (1 in certs, 2 in certs)
        if outcomes[l] != (expected[l], True):
            bad.append((l, "prover outcome"))
        for d, cert in certs.items():
            if not verify_certificate(cert).ok:
                bad.append((l, f"d={d} certificate does not verify"))
    elapsed = time.perf_counter() - started

    def show(closes: bool) -> str:
        return "closes" if closes else "fails"

    per_l = "; ".join(
        f"l={l}: d1 expected {show(expected[l])} got {show(d1)}, "
        f"d2 expected closes got {show(d2)}"
        for l, (d1, d2) in outcomes.items()
    )
    report(
        4, "unit grid closes iff S(2,l) = 2l+1, half grid closes, k=2 l in {3,4,5}", not bad,
        f"{per_l} in {elapsed:.1f}s" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_5_oracle_equivalences():
    started = time.perf_counter()
    # (a) propagating search vs exhaustive 2^n sweep
    search_disagreements = []
    for k, l in ((2, 2), (2, 3), (3, 3)):
        spec = ProblemSpec(k, l)
        for n in range(1, 19):
            if (search_valid(n, spec) is None) != (brute_force_colorable(n, spec) is None):
                search_disagreements.append((k, l, n))
    # (b) + (c) sumsets vs grid samples, and midpoint decomposition round trips
    rng = random.Random(424242)
    sumset_failures = 0
    for _ in range(500):
        a = random_interval_set(rng)
        m = rng.randint(1, 4)
        sums = m_fold_sumset(a, m)
        samples = sorted({x for piece in a.intervals for x in _interval_samples(piece)})
        if len(samples) ** m <= 1500:
            combos = combinations_with_replacement(samples, m)
        else:
            combos = (tuple(rng.choice(samples) for _ in range(m)) for _ in range(1500))
        if not all(sums.contains(sum(c)) for c in combos):
            sumset_failures += 1
            continue
        for piece in sums.intervals:
            mid = (piece.lo + piece.hi) / 2
            values = decompose_sum(a, m, mid)
            if sum(values) != mid or len(values) != m or not all(a.contains(v) for v in values):
                sumset_failures += 1
                break
    elapsed = time.perf_counter() - started
    ok = not search_disagreements and sumset_failures == 0
    report(5, "oracle equivalences", ok,
           f"3 specs x n<=18 and 500 sumset instances in {elapsed:.1f}s"
           if ok else f"search {search_disagreements}, sumsets {sumset_failures}")


def test_criterion_6_residue_arithmetic():
    started = time.perf_counter()
    bad = []
    for k in range(3, 30):
        for l in range(k + 1, 31):
            p = residue_params(k, l)
            facts = (
                isinstance(p.residue, int)
                and isinstance(p.mix_count, int)
                and 0 <= p.mix_count <= k
                and (k - p.mix_count) * k + p.mix_count * l
                == k * k + (p.gap - 1) * (k - 1) - p.residue
            )
            if not facts:
                bad.append((k, l))
    elapsed = time.perf_counter() - started
    report(6, "residue arithmetic 3<=k<l<=30", not bad,
           f"378 pairs in {elapsed:.2f}s" if not bad else f"failures {bad}")


def test_criterion_7_scaling():
    started = time.perf_counter()
    bad = []
    for k, l in ((2, 3), (3, 4)):
        base = lower_bound_coloring(ProblemSpec(k, l))
        for gamma in (Fraction(1, 2), Fraction(2), Fraction(3, 7)):
            spec = ProblemSpec(k, l, gamma)
            scaled = scale_coloring(base, gamma)
            ok = (
                verify_coloring(scaled, spec).is_valid
                and scaled.domain.lo == gamma
                and scaled.domain.hi == gamma * (k * l + k - 1)
                and not scaled.domain.hi_closed
                and formula_continuous(k, l, gamma)
                == gamma * k * l + gamma * k - gamma
            )
            if not ok:
                bad.append((k, l, gamma))
    elapsed = time.perf_counter() - started
    report(7, "homogeneous scaling", not bad,
           f"6 scaled colorings in {elapsed:.1f}s" if not bad else f"failures {bad}")
