import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from offrado.intervals import Interval, IntervalSet, m_fold_sumset, normalize
from offrado.suite import _interval_samples, _sample_sums_in, random_interval_set


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
