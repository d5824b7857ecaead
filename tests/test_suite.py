import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from offrado import suite
from offrado.intervals import Interval, IntervalSet, m_fold_sumset, normalize
from offrado.suite import _interval_samples, _sample_sums_in, check_sumset_oracle, random_interval_set

property_settings = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def member_sample_verdict(sums, a, m, rng):
    """The member-sample route as a plain Fraction loop: every combination is
    summed and judged, stopping at the first miss."""
    samples = sorted({x for iv in a.intervals for x in _interval_samples(iv)})
    if len(samples) ** m <= 2000:
        combos = combinations_with_replacement(samples, m)
    else:
        combos = (tuple(rng.choice(samples) for _ in range(m)) for _ in range(2000))
    return all(sums.contains(sum(c)) for c in combos)


def exhaustive(a, m):
    samples = {x for iv in a.intervals for x in _interval_samples(iv)}
    return len(samples) ** m <= 2000


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


def same_verdict_and_draws(sums, a, m, seed):
    old_rng, new_rng = random.Random(seed), random.Random(seed)
    old = member_sample_verdict(sums, a, m, old_rng)
    new = _sample_sums_in(sums, a, m, new_rng)
    assert new == old, (seed, a, m, sums)
    assert new_rng.getstate() == old_rng.getstate(), (seed, a, m, sums)
    return new


class TestSampleSums:
    def test_true_sumsets_agree_with_fraction_loop(self, instances):
        branches = {True: 0, False: 0}
        for seed, a, m, sums in instances:
            assert same_verdict_and_draws(sums, a, m, seed)
            branches[exhaustive(a, m)] += 1
        assert branches[True] >= 100 and branches[False] >= 20, branches

    def test_wrong_sumsets_agree_with_fraction_loop(self, instances):
        # A miss stops the walk early, so the draws taken must match too.
        rejected = 0
        for seed, a, m, sums in instances:
            wrong = [top_opened(sums)]
            if len(sums.intervals) > 1:
                wrong += [IntervalSet(sums.intervals[:i] + sums.intervals[i + 1:])
                          for i in range(len(sums.intervals))]
            for bad in wrong:
                if bad != sums:
                    rejected += not same_verdict_and_draws(bad, a, m, seed)
        assert rejected >= 300, rejected

    def test_wrong_sumsets_rejected_when_exhaustive(self, instances):
        for seed, a, m, sums in instances:
            if not exhaustive(a, m):
                continue
            top = a.intervals[-1]
            if top.hi_closed:  # m * max(a) is a sample sum on the closed end
                assert not _sample_sums_in(top_opened(sums), a, m, random.Random(seed)), seed
            for i in range(len(sums.intervals)):
                # each interval of the sumset holds the sum of some m samples
                dropped = IntervalSet(sums.intervals[:i] + sums.intervals[i + 1:])
                assert not _sample_sums_in(dropped, a, m, random.Random(seed)), (seed, i)

    def test_mixed_denominators_judged_exactly(self):
        a = normalize([Interval.point(Fraction(1, 3)), Interval.point(Fraction(1, 2))])
        sums = m_fold_sumset(a, 2)
        assert _sample_sums_in(sums, a, 2, random.Random(0))
        near = normalize([Interval.point(Fraction(2, 3)), Interval.point(Fraction(5, 6))])
        assert not _sample_sums_in(near, a, 2, random.Random(0))


@st.composite
def point_sets(draw):
    """1 to 40 distinct points (one sample each), m in 1..4, and a sumset
    holding every total, so the walk never stops early.  Both are drawn
    evenly, so n = 1 and powers of two come up; random tuples are drawn from
    7 or more samples when m = 4, from 13 or more when m = 3."""
    n = draw(st.sampled_from(range(1, 41)))
    m = draw(st.sampled_from(range(1, 5)))
    gen = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = [Fraction(v, 6) for v in gen.sample(range(120), n)]
    a = normalize([Interval.point(v) for v in values])
    cover = normalize([Interval(m * min(values), m * max(values), True, True)])
    return a, m, cover


@st.composite
def unrelated_sumsets(draw):
    """A seeded ``a`` (a random interval set and up to 12 points, so that
    random tuples are drawn often) and m, and a sumset not built from them: a
    second random interval set or the true sumset, plus intervals whose open
    or closed ends lie exactly on sums of m samples."""
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
    return a, m, normalize(pieces), draw(st.integers(0, 2**32 - 1))


class TestSampleSumsDraws:
    @property_settings
    @given(point_sets(), st.integers(0, 2**32 - 1))
    def test_inline_draws_match_rng_choice(self, case, seed):
        a, m, cover = case
        old_rng, new_rng = random.Random(seed), random.Random(seed)
        assert member_sample_verdict(cover, a, m, old_rng)
        assert _sample_sums_in(cover, a, m, new_rng)
        assert new_rng.getstate() == old_rng.getstate()

    @property_settings
    @given(unrelated_sumsets())
    def test_integer_membership_is_exact(self, case):
        a, m, sums, seed = case
        same_verdict_and_draws(sums, a, m, seed)

    def test_oracle_draw_stream_matches_reference(self, monkeypatch):
        # The oracle's report reads "all instances agree" whatever it draws,
        # so the pinned reproduce output cannot see a changed draw stream.
        def recorded(route, log):
            def run(sums, a, m, rng):
                verdict = route(sums, a, m, rng)
                log.append((verdict, rng.getstate()))
                return verdict
            return run

        logs = {}
        for name, route in (("new", _sample_sums_in), ("reference", member_sample_verdict)):
            logs[name] = []
            monkeypatch.setattr(suite, "_sample_sums_in", recorded(route, logs[name]))
            assert check_sumset_oracle(500, seed=20250810)[0].ok
        assert len(logs["new"]) == 500
        for trial, (new, old) in enumerate(zip(logs["new"], logs["reference"])):
            assert new == old, trial
