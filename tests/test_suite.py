import ast
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from offrado import intervals, suite
from offrado.intervals import Interval, IntervalSet, decompose_sum, m_fold_sumset, normalize
from offrado.suite import _sample_sums_in, check_sumset_oracle, random_interval_set

property_settings = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def _interval_samples(iv):
    """The samples the sumset oracle takes from one piece, as Fractions: those
    of lo, hi, the midpoint and the two third points that the piece holds."""
    candidates = {
        iv.lo, iv.hi, (iv.lo + iv.hi) / 2,
        iv.lo + (iv.hi - iv.lo) / 3, iv.lo + 2 * (iv.hi - iv.lo) / 3,
    }
    return sorted(x for x in candidates if iv.contains(x))


def fraction_verdict(sums, a, m):
    """The member-sample route as a plain Fraction loop: every multiset of
    samples is summed and judged, stopping at the first miss."""
    samples = sorted({x for iv in a.intervals for x in _interval_samples(iv)})
    return all(sums.contains(sum(c)) for c in combinations_with_replacement(samples, m))


def member_sample_verdict(sums, a, m, rng):
    """The member-sample route as the oracle once ran it: every multiset when
    there are at most 2000, else 2000 random m-tuples drawn from ``rng``."""
    samples = sorted({x for iv in a.intervals for x in _interval_samples(iv)})
    if len(samples) ** m <= 2000:
        combos = combinations_with_replacement(samples, m)
    else:
        combos = (tuple(rng.choice(samples) for _ in range(m)) for _ in range(2000))
    return all(sums.contains(sum(c)) for c in combos)


def sampled_before(a, m):
    """Whether the old route drew random tuples for this instance."""
    samples = {x for iv in a.intervals for x in _interval_samples(iv)}
    return len(samples) ** m > 2000


def top_opened(sums):
    """``sums`` with its top interval's upper end opened (a point is dropped)."""
    top = sums.intervals[-1]
    rest = list(sums.intervals[:-1])
    if top.lo == top.hi:
        return normalize(rest)
    return normalize(rest + [Interval(top.lo, top.hi, top.lo_closed, False)])


@pytest.fixture(scope="module")
def instances():
    """300 seeded (seed, a, m, m-fold sumset of a), drawn like the oracle's."""
    out = []
    for seed in range(300):
        gen = random.Random(seed)
        a = random_interval_set(gen)
        m = gen.randint(1, 4)
        out.append((seed, a, m, m_fold_sumset(a, m)))
    return out


def same_verdict(sums, a, m):
    verdict = _sample_sums_in(sums, a, m)
    assert verdict == fraction_verdict(sums, a, m), (a, m, sums)
    return verdict


class TestSampleSums:
    def test_true_sumsets_agree_with_fraction_loop(self, instances):
        branches = {True: 0, False: 0}
        for seed, a, m, sums in instances:
            assert same_verdict(sums, a, m)
            branches[sampled_before(a, m)] += 1
        assert branches[True] >= 20 and branches[False] >= 100, branches

    def test_wrong_sumsets_agree_with_fraction_loop(self, instances):
        rejected = 0
        for seed, a, m, sums in instances:
            wrong = [top_opened(sums)]
            if len(sums.intervals) > 1:
                wrong += [IntervalSet(sums.intervals[:i] + sums.intervals[i + 1:])
                          for i in range(len(sums.intervals))]
            for bad in wrong:
                if bad != sums:
                    rejected += not same_verdict(bad, a, m)
        assert rejected >= 300, rejected

    def test_wrong_sumsets_rejected_when_exhaustive(self, instances):
        # every instance: the route judges every multiset of samples
        for seed, a, m, sums in instances:
            top = a.intervals[-1]
            if top.hi_closed:  # m * max(a) is a sample sum on the closed end
                assert not _sample_sums_in(top_opened(sums), a, m), seed
            for i in range(len(sums.intervals)):
                # each interval of the sumset holds the sum of some m samples
                dropped = IntervalSet(sums.intervals[:i] + sums.intervals[i + 1:])
                assert not _sample_sums_in(dropped, a, m), (seed, i)

    def test_mixed_denominators_judged_exactly(self):
        a = normalize([Interval.point(Fraction(1, 3)), Interval.point(Fraction(1, 2))])
        sums = m_fold_sumset(a, 2)
        assert _sample_sums_in(sums, a, 2)
        near = normalize([Interval.point(Fraction(2, 3)), Interval.point(Fraction(5, 6))])
        assert not _sample_sums_in(near, a, 2)


@st.composite
def point_sets(draw):
    """1 to 40 distinct points (one sample each), m in 1..4, and a sumset
    holding every total.  Both are drawn evenly, so n = 1 and powers of two
    come up, as do the wide shift-ORs of many samples at m = 4."""
    n = draw(st.sampled_from(range(1, 41)))
    m = draw(st.sampled_from(range(1, 5)))
    gen = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = [Fraction(v, 6) for v in gen.sample(range(120), n)]
    a = normalize([Interval.point(v) for v in values])
    cover = normalize([Interval(m * min(values), m * max(values), True, True)])
    return a, m, cover


@st.composite
def unrelated_sumsets(draw):
    """A seeded ``a`` (a random interval set and up to 12 points) and m, and
    a sumset not built from them: a second random interval set or the true
    sumset, plus intervals whose open or closed ends lie exactly on sums of m
    samples."""
    gen = random.Random(draw(st.integers(0, 2**32 - 1)))
    points = [Interval.point(Fraction(gen.randint(0, 90), gen.randint(1, 9)))
              for _ in range(draw(st.integers(0, 12)))]
    a = normalize(list(random_interval_set(gen).intervals) + points)
    m = draw(st.integers(1, 4))
    samples = sorted({x for iv in a.intervals for x in _interval_samples(iv)})
    totals = sorted({(m - 1) * x + y for x in samples for y in samples})
    if draw(st.booleans()):
        pieces = list(m_fold_sumset(a, m).intervals)
    else:
        pieces = list(random_interval_set(gen, max_denominator=draw(st.integers(1, 12))).intervals)
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.sampled_from(totals)) for _ in range(2))
        if lo == hi:
            pieces.append(Interval.point(lo))
        else:
            pieces.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return a, m, normalize(pieces)


@st.composite
def sampled_sets(draw):
    """1 to 4 pieces (points, and intervals with each end open or closed,
    their ends over denominators 1 to 12 in [-3, 10]), m in 1..5, every total
    of m samples as a Fraction, and wrong sumsets: the true one with one end
    opened, one piece dropped, or one total cut out, and an unrelated set, a
    random interval set plus up to 3 intervals whose ends lie on totals."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, 12))
        lo = Fraction(draw(st.integers(-3 * q, 10 * q)), q)
        if draw(st.booleans()):
            pieces.append(Interval.point(lo))
        else:
            q = draw(st.integers(1, 12))
            hi = lo + Fraction(draw(st.integers(1, 4 * q)), q)
            pieces.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    a = normalize(pieces)
    m = draw(st.integers(1, 5))
    samples = {x for iv in a.intervals for x in _interval_samples(iv)}
    totals = {0}
    for _ in range(m):
        totals = {t + x for t in totals for x in samples}
    totals = sorted(totals)
    sums = m_fold_sumset(a, m)
    wrong = []
    for i, piece in enumerate(sums.intervals):
        rest = list(sums.intervals[:i] + sums.intervals[i + 1:])
        wrong.append(normalize(rest))
        if piece.lo < piece.hi:
            wrong.append(normalize(rest + [Interval(piece.lo, piece.hi, False, piece.hi_closed)]))
            wrong.append(normalize(rest + [Interval(piece.lo, piece.hi, piece.lo_closed, False)]))
    cut = draw(st.sampled_from(totals))  # the true sumset holds it
    holed = []
    for piece in sums.intervals:
        if not piece.contains(cut):
            holed.append(piece)
            continue
        if piece.lo < cut:
            holed.append(Interval(piece.lo, cut, piece.lo_closed, False))
        if cut < piece.hi:
            holed.append(Interval(cut, piece.hi, False, piece.hi_closed))
    wrong.append(normalize(holed))
    gen = random.Random(draw(st.integers(0, 2**32 - 1)))
    unrelated = list(random_interval_set(gen, max_denominator=draw(st.integers(1, 12))).intervals)
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.sampled_from(totals)) for _ in range(2))
        if lo == hi:
            unrelated.append(Interval.point(lo))
        else:
            unrelated.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    wrong.append(normalize(unrelated))
    return a, m, totals, [sums] + wrong


class TestSampleSumsDraws:
    @property_settings
    @given(point_sets())
    def test_point_set_covers_are_exact(self, case):
        # The cover holds every total, so the Fraction loop accepts it by
        # construction (running it takes 20 s at n = 40, m = 4).  m * min and
        # m * max are totals, so opening either end of the cover must fail.
        a, m, cover = case
        assert _sample_sums_in(cover, a, m)
        (hull,) = cover.intervals
        if hull.lo < hull.hi:
            for lo_closed, hi_closed in ((False, True), (True, False)):
                opened = IntervalSet((Interval(hull.lo, hull.hi, lo_closed, hi_closed),))
                assert not _sample_sums_in(opened, a, m)

    @property_settings
    @given(unrelated_sumsets())
    def test_integer_membership_is_exact(self, case):
        a, m, sums = case
        same_verdict(sums, a, m)

    def test_old_oracle_draw_stream_is_accepted(self):
        # The instances check_sumset_oracle(500) drew while its
        # member-sample route still took random tuples from the same rng.
        rng = random.Random(20250810)
        for trial in range(500):
            a = random_interval_set(rng)
            m = rng.randint(1, 4)
            sums = m_fold_sumset(a, m)
            assert member_sample_verdict(sums, a, m, rng), trial
            assert _sample_sums_in(sums, a, m), trial

    @property_settings
    @given(sampled_sets())
    def test_int_samples_match_the_fraction_loop(self, case):
        a, m, totals, candidates = case
        assert _sample_sums_in(candidates[0], a, m)
        for sums in candidates:
            assert _sample_sums_in(sums, a, m) == all(sums.contains(t) for t in totals), sums


def reference_random_interval_set(rng, max_intervals=4, max_denominator=8):
    """random_interval_set as it was built on Fractions: hi as lo plus the
    drawn width, and a point when the two compare equal."""
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


def same_draws(seed, instances, **kwargs):
    """Both builders on one seed draw equal sets and leave equal rng states
    after every instance and the oracle's draw of m."""
    new, old = random.Random(seed), random.Random(seed)
    for trial in range(instances):
        assert random_interval_set(new, **kwargs) == reference_random_interval_set(old, **kwargs), trial
        assert new.getstate() == old.getstate(), trial
        assert new.randint(1, 4) == old.randint(1, 4)


class TestDrawStream:
    def test_oracle_instances_match_the_fraction_builder(self):
        same_draws(20250810, 500)

    @property_settings
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 8, 12)))
    def test_drawn_seeds_match_the_fraction_builder(self, seed, max_denominator):
        same_draws(seed, 5, max_denominator=max_denominator)


def opened_top_sumset(a, m):
    return top_opened(m_fold_sumset(a, m))


def dropped_last_sumset(a, m):
    sums = m_fold_sumset(a, m)
    return IntervalSet(sums.intervals[:-1])


def moved_thousandth(sign):
    def decompose(a, m, t):
        values = list(decompose_sum(a, m, t))
        if m > 1:
            values[0] += sign * Fraction(1, 1000)
            values[1] -= sign * Fraction(1, 1000)
        return tuple(values)
    return decompose


def one_short(a, m, t):
    return decompose_sum(a, m, t)[:-1]


def unextended_merge(pairs):
    """intervals._merge with a bug: a touching pair never extends the piece
    before it, so the part past that piece's end is lost."""
    merged = []
    for lo, hi in pairs:
        if not (merged and lo <= merged[-1][1]):
            merged.append((lo, hi))
    return merged


def oracle_failures():
    (result,) = check_sumset_oracle(500)
    return 0 if result.ok else int(result.detail.split()[0])


class TestOracleStrength:
    """Each mutant of the code under test must make the 500-instance oracle
    fail.  The sumset mutants must fail route 1 alone, with route 2 forced to
    accept."""

    @pytest.mark.parametrize("mutant", [opened_top_sumset, dropped_last_sumset])
    def test_sumset_mutants_fail_route_1(self, monkeypatch, mutant):
        monkeypatch.setattr(suite, "m_fold_sumset", mutant)
        assert oracle_failures() > 0
        monkeypatch.setattr(suite, "_sample_sums_in", lambda sums, a, m: True)
        assert oracle_failures() > 0

    @pytest.mark.parametrize("mutant", [moved_thousandth(1), moved_thousandth(-1), one_short])
    def test_decomposition_mutants_fail_route_3(self, monkeypatch, mutant):
        monkeypatch.setattr(suite, "decompose_sum", mutant)
        assert oracle_failures() > 0

    def test_a_merge_bug_is_visible_to_route_1(self, monkeypatch):
        # m_fold_sumset merges with intervals._merge; route 1 merges by its own rule
        monkeypatch.setattr(intervals, "_merge", unextended_merge)
        monkeypatch.setattr(suite, "_sample_sums_in", lambda sums, a, m: True)
        assert oracle_failures() > 0


class TestOracleRoutesShareNoCode:
    """Routes 1 and 3 judge m_fold_sumset and decompose_sum without the
    interval algebra those use, found in the suite's source."""

    ROUTES = ("check_sumset_oracle", "_scaled_pieces", "_direct_sumset", "_decomposes")
    ALGEBRA = {"normalize", "_merge", "_int_keys", "_add_keys", "_m_fold_keys", "contains"}

    def test_routes_call_no_interval_algebra(self):
        tree = ast.parse(Path(suite.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        called = set()
        for name in self.ROUTES:
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Call):
                    func = node.func
                    called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
        assert {"m_fold_sumset", "decompose_sum", "_direct_sumset", "_decomposes"} <= called
        assert not called & self.ALGEBRA, called & self.ALGEBRA

    def test_interval_sums_live_only_in_the_tests(self):
        assert not hasattr(Interval, "add")
