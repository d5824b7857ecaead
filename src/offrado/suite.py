"""Reusable end-to-end verification checks behind the `reproduce` command.

Each check returns plain pass/fail results so the CLI can render them and the
test suite can assert them.  Ranges default to a quick profile; ``full=True``
selects the heavyweight ranges (the complete formula table through (5,5), all
45 lower-bound colorings, every certificate, the 500-instance sumset oracle).
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional

from .certificates import UnprovedError, certify_upper, residue_params
from .checker import certificate_stats, points_used
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


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str

    def as_json(self) -> dict:
        return self._asdict()


def _specs(max_kl: int, min_k: int = 2):
    for k in range(min_k, max_kl + 1):
        for l in range(k, max_kl + 1):
            yield k, l


def check_formula_table(max_kl: int) -> list[CheckResult]:
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


def check_lower_bounds(max_kl: int) -> list[CheckResult]:
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


def check_certificates(k2_max_l: int, max_kl: int) -> list[CheckResult]:
    """Upper-bound certificates assemble and verify across the covered range."""
    out = []
    for k, l in [(2, l) for l in range(2, k2_max_l + 1)] + list(_specs(max_kl, min_k=3)):
        doc, tree = certify_upper(ProblemSpec(k, l))  # raises unless it checks
        end = doc["domain_end"]
        stats = certificate_stats(tree)
        halves_ok = k > 2 or l < 3 or {"3/2", "5/2"} <= set(points_used(tree))
        ok = end == str(k * l + k - 1) and halves_ok
        out.append(
            CheckResult(
                f"certificate ({k},{l})", ok,
                f"end {end}, {stats['branches']} branches, {stats['steps']} steps",
            )
        )
    return out


def check_grid_necessity(ls: tuple[int, ...]) -> list[CheckResult]:
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


def check_residue_arithmetic(max_l: int) -> list[CheckResult]:
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


def check_scaling() -> list[CheckResult]:
    """Homogeneity: scaled colorings stay valid and the formula scales linearly."""
    out = []
    for k, l in ((2, 3), (3, 4)):
        base = lower_bound_coloring(ProblemSpec(k, l))
        for g in (Fraction(1, 2), Fraction(2), Fraction(3, 7)):
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
    """Up to ``max_intervals`` pieces, each from lo = n1/q1 and a width n2/q2
    drawn on ints: a point when n2 is 0, else an interval with random closure
    flags."""
    pieces = []
    for _ in range(rng.randint(1, max_intervals)):
        q1 = rng.randint(1, max_denominator)
        q2 = rng.randint(1, max_denominator)
        n1 = rng.randint(0, 8 * q1)
        n2 = rng.randint(0, 4 * q2)
        if n2 == 0:
            pieces.append(Interval.point(Fraction(n1, q1)))
        else:
            hi = Fraction(n1 * q2 + n2 * q1, q1 * q2)
            pieces.append(Interval(Fraction(n1, q1), hi, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(pieces)


def check_sumset_oracle(instances: int) -> list[CheckResult]:
    """Cross-check of the m-fold sumsets on seeded random interval sets.

    Three routes per instance.  Routes 1 and 3 run on the instance's own int
    scale D, the lcm of its endpoint denominators, and share no code with
    ``intervals``: route 1 (_direct_sumset) sums every m-multiset of the
    pieces scaled by D and merges them by its own (value, flag) rule, and the
    result must equal m_fold_sumset's pieces scaled by D, every end of which
    lies on the 1/D grid (_scaled_pieces); route 2 (_sample_sums_in) asks that
    every sum of m member samples be a member of the sumset, judging all
    multisets of samples at once by a shift-OR; route 3 (_decomposes) asks
    decompose_sum for m values summing to the representative of every
    reported interval, and checks the sum and each value's membership by
    cross-multiplying.  The rng draws only the instances.
    """
    rng = random.Random(20250810)
    failures = 0
    first = ""
    for trial in range(instances):
        a = random_interval_set(rng)
        m = rng.randint(1, 4)
        sums = m_fold_sumset(a, m)
        scale = _common_denominator(a)
        pieces = _scaled_pieces(a, scale)
        ok = (
            _scaled_pieces(sums, scale) == _direct_sumset(pieces, m)
            and _sample_sums_in(sums, a, m)
            and all(_decomposes(a, m, iv.representative(), pieces, scale) for iv in sums.intervals)
        )
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


def _common_denominator(a: IntervalSet) -> int:
    """The lcm of the denominators of a's endpoints."""
    return math.lcm(*(x.denominator for iv in a.intervals for x in (iv.lo, iv.hi)))


def _scaled_pieces(a: IntervalSet, scale: int) -> Optional[list[tuple]]:
    """Each piece of ``a`` as (lo * scale, hi * scale, lo_closed, hi_closed)
    in ints, or None if some end is off the 1/scale grid."""
    out = []
    for lo, hi, lo_closed, hi_closed in a.intervals:
        (p, q), (r, s) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if scale % q or scale % s:
            return None
        out.append((p * (scale // q), r * (scale // s), lo_closed, hi_closed))
    return out


def _direct_sumset(pieces: list[tuple], m: int) -> list[tuple]:
    """The m-fold sumset of scaled ``pieces`` by enumeration: every m-multiset
    summed (ends add; an end is closed only if all its summands' are), sorted
    by lower cut and merged.  A cut is a (value, flag) key: a lower end at
    (lo, not lo_closed), an upper end at (hi, hi_closed); a piece touches the
    one before it iff its lower cut is at most that one's upper cut."""
    sums = []
    for combo in combinations_with_replacement(pieces, m):
        los, his, lo_flags, hi_flags = zip(*combo)
        sums.append((sum(los), sum(his), all(lo_flags), all(hi_flags)))
    sums.sort(key=lambda p: (p[0], not p[2]))
    merged: list[tuple] = []
    for lo, hi, lo_closed, hi_closed in sums:
        if merged and (lo, not lo_closed) <= (merged[-1][1], merged[-1][3]):
            last = merged[-1]
            if (hi, hi_closed) > (last[1], last[3]):
                merged[-1] = (last[0], hi, last[2], hi_closed)
        else:
            merged.append((lo, hi, lo_closed, hi_closed))
    return merged


def _decomposes(a: IntervalSet, m: int, t: Fraction, pieces: list[tuple], scale: int) -> bool:
    """Does decompose_sum give m values of ``a`` summing exactly to t?  The
    sum is taken over the lcm of the values' denominators; a value p/q lies
    in the scaled piece (lo, hi, ...) iff lo * q <= p * scale <= hi * q, each
    inequality strict at an open end."""
    values = [v.as_integer_ratio() for v in decompose_sum(a, m, t)]
    if len(values) != m:
        return False
    common = math.lcm(*(q for _, q in values))
    total = sum(p * (common // q) for p, q in values)
    if total * t.denominator != t.numerator * common:
        return False
    for p, q in values:
        x = p * scale
        if not any(
            (lo * q < x or lo_closed and lo * q == x) and (x < hi * q or hi_closed and x == hi * q)
            for lo, hi, lo_closed, hi_closed in pieces
        ):
            return False
    return True


def _sample_sums_in(sums: IntervalSet, a: IntervalSet, m: int) -> bool:
    """Is every sum of m member samples of ``a`` a member of ``sums``?

    A piece's samples are those of lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3
    and lo + 2 (hi - lo) / 3 that it holds.  They are taken on plain ints: at
    scale 6 D, D the lcm of a's denominators, every one is an int.  Offset by
    their minimum and divided by the gcd g of the offsets, samples s_i make the
    shift-OR L_0 = 1, L_j = OR_i (L_{j-1} << s_i) have bit p set iff some m
    samples sum to m * min + p * g, in at most m * (max - min) / g bits, and
    every multiset of samples is judged at once.  L_m must lie inside the mask
    of totals that ``sums`` allows, built from each piece's closure flags; an
    end of ``sums`` off that grid is rounded inward.
    """
    scale = 6 * _common_denominator(a)
    samples = set()
    for iv in a.intervals:
        lo = iv.lo.numerator * (scale // iv.lo.denominator)
        hi = iv.hi.numerator * (scale // iv.hi.denominator)
        third = (hi - lo) // 3
        for x in (lo, hi, (lo + hi) // 2, lo + third, hi - third):
            if lo < x < hi or (x == lo and iv.lo_closed) or (x == hi and iv.hi_closed):
                samples.add(x)
    low = min(samples)
    step = math.gcd(*(x - low for x in samples)) or 1
    shifts = [(x - low) // step for x in samples]
    reach = 1
    for _ in range(m):
        reach = functools.reduce(operator.or_, [reach << s for s in shifts])
    allowed = 0
    for iv in sums.intervals:
        # an end x stands for the total (x * scale - m * low) / step, n / d here
        n, d = iv.lo.numerator * scale - m * low * iv.lo.denominator, iv.lo.denominator * step
        first = max((n - iv.lo_closed) // d + 1, 0)
        n, d = iv.hi.numerator * scale - m * low * iv.hi.denominator, iv.hi.denominator * step
        last = min((n - (not iv.hi_closed)) // d, reach.bit_length() - 1)
        if first <= last:
            allowed |= ((1 << (last - first + 1)) - 1) << first
    return not reach & ~allowed


def check_search_oracle(max_n: int) -> list[CheckResult]:
    """Propagating search vs the 2^n sweep, existence only, every n <= max_n."""
    out = []
    for k, l in ((2, 2), (2, 3), (3, 3)):
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
