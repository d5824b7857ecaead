"""Reusable end-to-end verification checks behind the `reproduce` command.

Each check returns plain pass/fail results so the CLI can render them and the
test suite can assert them.  Ranges default to a quick profile; ``full=True``
selects the heavyweight ranges (the complete formula table through (5,5), all
45 lower-bound colorings, every certificate, the 500-instance sumset oracle).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .certificates import (
    UnprovedError,
    certificate_stats,
    certify_upper,
    points_used,
    residue_params,
)
from .equations import (
    ProblemSpec,
    check_witness,
    formula_continuous,
    formula_discrete,
)
from .intervals import (
    Interval,
    IntervalSet,
    decompose_sum,
    lower_bound_coloring,
    m_fold_sumset,
    normalize,
    boundary_witnesses,
    scale_coloring,
    verify_coloring,
)
from .search import brute_force_colorable, compute_rado, search_valid

KNOWN_TABLE = {
    (2, 2): 5, (2, 3): 7, (2, 4): 11, (2, 5): 13,
    (3, 3): 11, (3, 4): 14, (3, 5): 17,
    (4, 4): 19, (4, 5): 23, (5, 5): 29,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def as_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _specs(max_kl: int, min_k: int = 2):
    for k in range(min_k, max_kl + 1):
        for l in range(k, max_kl + 1):
            yield k, l


def check_formula_table(max_kl: int = 5) -> list[CheckResult]:
    """Search value vs closed formula (and the known table where it applies)."""
    out = []
    for k, l in _specs(max_kl):
        report = compute_rado(ProblemSpec(k, l))
        expected = KNOWN_TABLE.get((k, l), report.formula_value)
        ok = report.value == report.formula_value == expected and not report.formula_mismatch
        out.append(
            CheckResult(
                f"search value ({k},{l})",
                ok,
                f"search={report.value} formula={report.formula_value} "
                f"nodes={report.stats.nodes_explored}",
            )
        )
    return out


def check_lower_bounds(max_kl: int = 10) -> list[CheckResult]:
    """Two-block colorings verify Valid; both boundary witnesses are real and
    monochromatic once the closed endpoint takes either color."""
    out = []
    for k, l in _specs(max_kl):
        spec = ProblemSpec(k, l)
        coloring = lower_bound_coloring(spec)
        verdict = verify_coloring(coloring, spec)
        red_w, blue_w = boundary_witnesses(spec)
        end = spec.gamma * (k * l + k - 1)
        ok = (
            verdict.is_valid
            and check_witness(spec, red_w)
            and check_witness(spec, blue_w)
            and red_w.x0 == blue_w.x0 == end
            and all(v == end or coloring.red.contains(v) for v, _ in red_w.left)
            and all(v == end or coloring.blue.contains(v) for v, _ in blue_w.left)
        )
        out.append(CheckResult(f"lower bound ({k},{l})", ok, f"domain end {end}"))
    return out


def check_certificates(k2_max_l: int = 10, max_kl: int = 5) -> list[CheckResult]:
    """Upper-bound certificates assemble and verify across the covered range."""
    out = []
    for k, l in [(2, l) for l in range(2, k2_max_l + 1)] + list(_specs(max_kl, min_k=3)):
        doc, nodes = certify_upper(ProblemSpec(k, l))  # raises unless it checks
        end = doc["domain_end"]
        stats = certificate_stats(nodes)
        halves_ok = k > 2 or l < 3 or {"3/2", "5/2"} <= set(points_used(nodes))
        ok = end == str(k * l + k - 1) and halves_ok
        out.append(
            CheckResult(
                f"certificate ({k},{l})", ok,
                f"end {end}, {stats['branches']} branches, {stats['steps']} steps",
            )
        )
    return out


def check_grid_necessity(ls: tuple[int, ...] = (3, 4, 5)) -> list[CheckResult]:
    """Where the integer grid refutes and where half-steps become necessary.

    For k=2 the integer grid closes exactly when the discrete value already
    equals the continuous one (that happens at l=3: both are 7); as soon as
    the discrete value is strictly larger the unit grid admits a valid
    coloring and the prover needs denominator 2.  A grid "closes" when
    ``certify_upper`` refutes both branches on it and checks the result.
    """
    out = []
    for l in ls:
        d1, d2 = (_closes(ProblemSpec(2, l), d) for d in (1, 2))
        discrete = formula_discrete(2, l)
        continuous = formula_continuous(2, l)
        ok = d1 == (discrete == continuous) and d2
        out.append(
            CheckResult(
                f"grid necessity (2,{l})",
                ok,
                f"discrete {discrete} vs continuous {continuous}: denominator 1 "
                f"{'closes' if d1 else 'fails'}, denominator 2 "
                f"{'closes' if d2 else 'fails'}",
            )
        )
    return out


def _closes(spec: ProblemSpec, d: int) -> bool:
    """Whether a checked refutation of both branches exists on the 1/d grid."""
    try:
        certify_upper(spec, d)
    except UnprovedError:
        return False
    return True


def check_residue_arithmetic(max_l: int = 30) -> list[CheckResult]:
    """Mixed-solution arithmetic for every 3 <= k < l <= max_l, including the
    interval bound on mix_count as a corollary (never assumed by the code)."""
    bad = []
    for k in range(3, max_l):
        for l in range(k + 1, max_l + 1):
            p = residue_params(k, l)
            gap, y = p.gap, p.mix_count
            identity = (k - y) * k + y * l == k * k + (gap - 1) * (k - 1) - p.residue
            low = Fraction(k - 2) - Fraction(k - 1, gap)
            high = Fraction(k - 1) - Fraction(k - 1, gap)
            if not (identity and 0 <= y <= k and low < y <= high):
                bad.append((k, l))
    return [
        CheckResult(
            f"residue arithmetic k<l<={max_l}",
            not bad,
            "all identities hold" if not bad else f"failures at {bad[:5]}",
        )
    ]


def check_scaling(gammas=(Fraction(1, 2), Fraction(2), Fraction(3, 7))) -> list[CheckResult]:
    """Homogeneity: scaled colorings stay valid and the formula scales linearly."""
    out = []
    for k, l in ((2, 3), (3, 4)):
        base = lower_bound_coloring(ProblemSpec(k, l))
        for g in gammas:
            spec = ProblemSpec(k, l, g)
            scaled = scale_coloring(base, g)
            ok = (
                verify_coloring(scaled, spec).is_valid
                and scaled == lower_bound_coloring(spec)
                and formula_continuous(k, l, g) == g * (k * l + k - 1)
            )
            out.append(CheckResult(f"scaling ({k},{l}) gamma={g}", ok, f"end {g*(k*l+k-1)}"))
    return out


def random_interval_set(rng: random.Random, max_intervals: int = 4, max_denominator: int = 8) -> IntervalSet:
    pieces = []
    for _ in range(rng.randint(1, max_intervals)):
        q1 = rng.randint(1, max_denominator)
        q2 = rng.randint(1, max_denominator)
        a = Fraction(rng.randint(0, 8 * q1), q1)
        b = a + Fraction(rng.randint(0, 4 * q2), q2)
        if a == b:
            pieces.append(Interval.point(a))
        else:
            pieces.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(pieces)


def _interval_samples(iv: Interval) -> list[Fraction]:
    candidates = {
        iv.lo, iv.hi, (iv.lo + iv.hi) / 2,
        iv.lo + (iv.hi - iv.lo) / 3, iv.lo + 2 * (iv.hi - iv.lo) / 3,
    }
    return sorted(x for x in candidates if iv.contains(x))


def check_sumset_oracle(instances: int = 500, seed: int = 20250810) -> list[CheckResult]:
    """Randomized cross-check of the iterated Minkowski sums.

    Three independent routes per instance: direct enumeration of interval
    multisets must give the same set; every sum of member samples must be a
    member of the sumset; the representative of every reported interval must
    decompose back into m exact members.
    """
    rng = random.Random(seed)
    failures = 0
    first = ""
    for trial in range(instances):
        a = random_interval_set(rng)
        m = rng.randint(1, 4)
        sums = m_fold_sumset(a, m)
        direct = normalize(
            [_fold(combo) for combo in combinations_with_replacement(a.intervals, m)]
        )
        ok = sums == direct
        if ok:
            ok = _sample_sums_in(sums, a, m, rng)
        if ok:
            for iv in sums.intervals:
                t = iv.representative()
                values = decompose_sum(a, m, t)
                if sum(values) != t or len(values) != m or not all(a.contains(v) for v in values):
                    ok = False
                    break
        if not ok:
            failures += 1
            if not first:
                first = f"trial {trial}: {a!r} m={m}"
    return [
        CheckResult(
            f"sumset oracle x{instances}",
            failures == 0,
            "all instances agree" if failures == 0 else f"{failures} failures; first {first}",
        )
    ]


def _sample_sums_in(sums: IntervalSet, a: IntervalSet, m: int, rng: random.Random) -> bool:
    """Is every sum of m member samples of ``a`` a member of ``sums``?

    All multisets of samples when there are at most 2000, else 2000 random
    m-tuples.  Stops at the first miss.  Verdicts and draws are those of
    ``all(sums.contains(sum(c)) for c in combos)`` with each random tuple
    ``tuple(rng.choice(samples) for _ in range(m))``, on plain ints:

    - A random index is drawn by CPython's ``Random._randbelow_with_getrandbits``
      rejection loop, inlined on a bound ``rng.getrandbits`` in
      ``_random_totals``, so ``rng`` advances exactly as ``rng.choice`` would.
      The loop is the same in CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0,
      where this was checked.  Each tuple's total is added up as it is drawn.
    - Samples and the endpoints of ``sums`` are scaled to ints over one common
      denominator, so each distinct total is judged once by ``bisect`` and
      int comparisons, with the closure flags as they are.
    """
    samples = sorted({x for iv in a.intervals for x in _interval_samples(iv)})
    ends = [x for iv in sums.intervals for x in (iv.lo, iv.hi)]
    scale = math.lcm(*(x.denominator for x in samples + ends))
    scaled = [int(x * scale) for x in samples]  # exact: scale is a multiple of each denominator
    pieces = [(int(iv.lo * scale), int(iv.hi * scale), iv.lo_closed, iv.hi_closed) for iv in sums.intervals]
    los = [lo for lo, _, _, _ in pieces]
    if len(scaled) ** m <= 2000:
        totals = map(sum, combinations_with_replacement(scaled, m))
    else:
        totals = _random_totals(scaled, m, rng)
    seen = set()
    for total in totals:
        if total not in seen:
            i = bisect.bisect_right(los, total) - 1
            if i < 0:
                return False
            lo, hi, lo_closed, hi_closed = pieces[i]
            if total > hi or (total == hi and not hi_closed) or (total == lo and not lo_closed):
                return False
            seen.add(total)
    return True


def _random_totals(scaled: list[int], m: int, rng: random.Random):
    """The totals of 2000 m-tuples ``tuple(rng.choice(scaled) for _ in
    range(m))``, drawn lazily and exactly as those ``choice`` calls draw them
    (see ``_sample_sums_in``)."""
    n = len(scaled)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(2000):
        total = 0
        for _ in range(m):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            total += scaled[r]
        yield total


def _fold(combo) -> Interval:
    total = combo[0]
    for iv in combo[1:]:
        total = total.add(iv)
    return total


def check_search_oracle(max_n: int = 18, specs=((2, 2), (2, 3), (3, 3))) -> list[CheckResult]:
    """Propagating search vs the 2^n sweep, existence only, every n <= max_n."""
    out = []
    for k, l in specs:
        spec = ProblemSpec(k, l)
        mismatches = []
        for n in range(1, max_n + 1):
            fast = search_valid(n, spec) is not None
            slow = brute_force_colorable(n, spec) is not None
            if fast != slow:
                mismatches.append(n)
        out.append(
            CheckResult(
                f"search oracle ({k},{l}) n<={max_n}",
                not mismatches,
                "agree everywhere" if not mismatches else f"disagree at n={mismatches}",
            )
        )
    return out


def run_all(full: bool = False) -> list[CheckResult]:
    results: list[CheckResult] = []
    if full:
        results += check_formula_table(5)
        results += check_lower_bounds(10)
        results += check_certificates(10, 5)
        results += check_grid_necessity((3, 4, 5))
        results += check_residue_arithmetic(30)
        results += check_scaling()
        results += check_search_oracle(18)
        results += check_sumset_oracle(500)
    else:
        results += check_formula_table(4)
        results += check_lower_bounds(8)
        results += check_certificates(6, 4)
        results += check_grid_necessity((3, 4))
        results += check_residue_arithmetic(12)
        results += check_scaling()
        results += check_search_oracle(12)
        results += check_sumset_oracle(60)
    return results
