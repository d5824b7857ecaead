import random
import time
import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from offrado import search
from offrado.equations import Color, ProblemSpec, SolutionWitness, check_witness, formula_discrete
from offrado.intervals import lower_bound_coloring
from offrado.propagation import propagate_masks, solution_clauses
from offrado.search import (
    DiscreteColoring,
    brute_force_colorable,
    compute_rado,
    enumerate_solutions,
    is_valid_discrete,
    search_valid,
)


def witness_values(w):
    return sorted(v for v, m in w.left for _ in range(m))


class TestEnumerate:
    def test_m2_n4_exact_order(self):
        got = [(witness_values(w), w.x0) for w in enumerate_solutions(2, 4)]
        assert got == [([1, 1], 2), ([1, 2], 3), ([1, 3], 4), ([2, 2], 4)]

    def test_infeasible_is_empty(self):
        assert list(enumerate_solutions(3, 2)) == []

    def test_m2_n5_count(self):
        assert len(list(enumerate_solutions(2, 5))) == 6

    def test_each_once_and_consistent(self):
        seen = set()
        for w in enumerate_solutions(3, 12, Color.BLUE):
            key = (tuple(witness_values(w)), w.x0)
            assert key not in seen
            seen.add(key)
            assert sum(key[0]) == w.x0 <= 12
            assert w.color is Color.BLUE


class TestIsValid:
    def test_schur_coloring(self):
        spec = ProblemSpec(2, 2)
        c = DiscreteColoring.from_sets(4, red={1, 4}, blue={2, 3})
        assert is_valid_discrete(c, spec).is_valid

    def test_integer_restriction_of_two_block(self):
        spec = ProblemSpec(2, 3)
        c = DiscreteColoring.from_sets(6, red={1, 6}, blue={2, 3, 4, 5})
        assert is_valid_discrete(c, spec).is_valid

    def test_all_red_fails_at_once(self):
        spec = ProblemSpec(2, 2)
        c = DiscreteColoring.from_sets(5, red={1, 2, 3, 4, 5}, blue=set())
        verdict = is_valid_discrete(c, spec)
        assert not verdict.is_valid
        assert verdict.witness == SolutionWitness.from_values(Color.RED, [1, 1], 2)

    def test_off_diagonal_asymmetry(self):
        # blue pairs solving the red equation are harmless when l = 3
        spec = ProblemSpec(2, 3)
        c = DiscreteColoring.from_sets(4, red={1, 4}, blue={2, 3})
        # blue has 2 with 2+2=4 red, fine; and 1+3=4: mixed. Valid.
        assert is_valid_discrete(c, spec).is_valid

    def test_requires_total(self):
        with pytest.raises(ValueError):
            is_valid_discrete(DiscreteColoring(3, 0, 0), ProblemSpec(2, 2))

    def test_names_the_witness_without_walking_the_solutions(self, monkeypatch):
        # red {1..4} holds no 5-solution; blue {5..200} holds 5 * 30 = 150, the
        # least one, and a walk in enumeration order reaches it only after
        # every sorted 30-tuple that starts lower
        def walk(*args):
            raise AssertionError("the re-check walked the solutions")

        monkeypatch.setattr(search, "solution_clauses", walk)
        c = DiscreteColoring.from_sets(200, range(1, 5), range(5, 201))
        verdict = is_valid_discrete(c, ProblemSpec(5, 30))
        assert verdict.witness.as_json() == {"color": "blue", "left": [["5", 30]], "x0": "150"}


def first_monochromatic(coloring, spec):
    """The first all-red k-solution, else the first all-blue l-solution, in
    lexicographic order of the sorted left side, by a plain walk; or None."""
    for color in (Color.RED, Color.BLUE):
        members = set(coloring.values_of(color))
        for left in combinations_with_replacement(range(1, coloring.n + 1), spec.arity(color)):
            if sum(left) <= coloring.n and members.issuperset((*left, sum(left))):
                return SolutionWitness.from_values(color, left, sum(left))
    return None


@st.composite
def total_colorings(draw):
    k = draw(st.integers(2, 5))
    l = draw(st.integers(k, 5))
    n = draw(st.integers(1, 18))
    red = draw(st.sets(st.integers(1, n)))
    return ProblemSpec(k, l), DiscreteColoring.from_sets(n, red, set(range(1, n + 1)) - red)


@settings(derandomize=True, deadline=None, database=None)
@given(total_colorings())
def test_is_valid_discrete_matches_a_plain_solution_walk(case):
    spec, coloring = case
    verdict = is_valid_discrete(coloring, spec)
    expected = first_monochromatic(coloring, spec)
    assert verdict.is_valid == (expected is None)
    assert verdict.witness == expected


def _has_solution(members: set[int], m: int, n: int) -> bool:
    """Whether some m members of ``members`` (repeats allowed) sum to a member,
    by plain set sums: the reference of the bitset re-check."""
    sums = {0}
    for _ in range(m):
        sums = {s + x for s in sums for x in members if s + x <= n}
    return not sums.isdisjoint(members)


def set_sum_witness(coloring, spec):
    """``is_valid_discrete`` on set sums: the first color whose members hit
    their own m-fold sums names its first clause inside that color."""
    for color, own in ((Color.RED, coloring.red), (Color.BLUE, coloring.blue)):
        m = spec.arity(color)
        if _has_solution(set(coloring.values_of(color)), m, coloring.n):
            return next(
                clause.witness()
                for clause in solution_clauses(color, m, 1, coloring.n)
                if clause.mask & ~own == 0
            )
    return None


@st.composite
def wide_total_colorings(draw):
    """Total colorings of {1..n}, n <= 60: random sets, or two red end blocks
    around a blue middle with up to three points flipped, which are often
    valid or close to it."""
    k = draw(st.integers(2, 6))
    l = draw(st.integers(k, 6))
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        red = draw(st.sets(st.integers(1, n)))
    else:
        a = draw(st.integers(0, n))
        b = draw(st.integers(a + 1, n + 1))
        red = set(range(1, a + 1)) | set(range(b, n + 1))
        red ^= draw(st.sets(st.integers(1, n), max_size=3))
    return ProblemSpec(k, l), DiscreteColoring.from_sets(n, red, set(range(1, n + 1)) - red)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(wide_total_colorings())
def test_bitset_recheck_matches_set_sums(case):
    spec, coloring = case
    for color, own in ((Color.RED, coloring.red), (Color.BLUE, coloring.blue)):
        m = spec.arity(color)
        expected = _has_solution(set(coloring.values_of(color)), m, coloring.n)
        assert search._sums_hit(own, m, coloring.n) is expected
    assert is_valid_discrete(coloring, spec).witness == set_sum_witness(coloring, spec)


def propagate(spec, start):
    """Close a partial coloring under the kernel's unit forcing, every colored
    id pending: the closed coloring, or the monochromatic handle that stops it."""
    pending = [i for i in range(1, start.n + 1) if (start.red | start.blue) >> i & 1]
    system = search._system(spec.k, spec.l, start.n)
    red, blue, _, conflict = propagate_masks(system, start.red, start.blue, pending)
    return conflict if conflict is not None else DiscreteColoring(start.n, red, blue)


class TestPropagate:
    def test_red_start_forces_small_chain(self):
        result = propagate(ProblemSpec(2, 3), DiscreteColoring.from_sets(6, {1}, ()))
        assert isinstance(result, DiscreteColoring)
        assert 2 in result.values_of(Color.BLUE)  # 1+1=2
        assert 6 in result.values_of(Color.RED)   # 2+2+2=6
        assert 3 in result.values_of(Color.BLUE)  # 3+3=6

    def test_red_start_conflicts_at_seven(self):
        # over {1..7} the chain closes: 2,7,3 go blue and 2+2+3=7 is all blue
        result = propagate(ProblemSpec(2, 3), DiscreteColoring.from_sets(7, {1}, ()))
        assert not isinstance(result, DiscreteColoring)
        assert result.color is Color.BLUE
        parts = result.parts()
        witness = SolutionWitness.from_values(Color.BLUE, parts, sum(parts))
        assert witness.color is Color.BLUE and check_witness(ProblemSpec(2, 3), witness)
        assert all(result.own >> int(v) & 1 for v in {witness.x0, *dict(witness.left)})

    def test_blue_start_forces_l_red(self):
        result = propagate(ProblemSpec(2, 3), DiscreteColoring.from_sets(5, (), {1}))
        assert isinstance(result, DiscreteColoring)
        assert 3 in result.values_of(Color.RED)  # 1+1+1=3

    def test_empty_is_fixpoint(self):
        start = DiscreteColoring(7, 0, 0)
        assert propagate(ProblemSpec(2, 3), start) == start

    def test_monotone_and_idempotent(self):
        spec = ProblemSpec(2, 3)
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 9)
            rolls = {i: rng.random() for i in range(1, n + 1)}
            red = {i for i, roll in rolls.items() if roll < 0.3}
            blue = {i for i, roll in rolls.items() if 0.3 <= roll < 0.5}
            c = DiscreteColoring.from_sets(n, red, blue)
            out = propagate(spec, c)
            if not isinstance(out, DiscreteColoring):
                continue
            assert out.red & c.red == c.red and out.blue & c.blue == c.blue
            assert propagate(spec, out) == out


def red_bits(coloring):
    """Bit i-1 set iff integer i is red; None stays None."""
    if coloring is None:
        return None
    return sum(1 << (i - 1) for i in coloring.values_of(Color.RED))


def least_valid_red_bits(n, k, l):
    """Plain loop over all 2^n colorings in increasing red bitmask: the first
    with no red k-solution and no blue l-solution, or None."""

    def has_solution(values, m):
        members = set(values)
        return any(sum(c) in members for c in combinations_with_replacement(values, m))

    for bits in range(1 << n):
        red = [i for i in range(1, n + 1) if bits >> (i - 1) & 1]
        blue = [i for i in range(1, n + 1) if not bits >> (i - 1) & 1]
        if not has_solution(red, k) and not has_solution(blue, l):
            return bits
    return None


class TestSearchValid:
    def test_schur_boundary(self):
        spec = ProblemSpec(2, 2)
        found = search_valid(4, spec)
        assert found is not None and is_valid_discrete(found, spec).is_valid
        assert search_valid(5, spec) is None

    def test_known_392_boundary(self):
        spec = ProblemSpec(3, 4)
        assert search_valid(13, spec) is not None
        assert search_valid(14, spec) is None

    def test_brute_force_mode_agrees(self):
        for k, l in ((2, 2), (2, 3), (3, 3)):
            spec = ProblemSpec(k, l)
            for n in range(1, 13):
                fast = search_valid(n, spec)
                slow = search_valid(n, spec, propagation=False)
                assert (fast is None) == (slow is None), (k, l, n)
                if slow is not None:
                    assert is_valid_discrete(slow, spec).is_valid

    @pytest.mark.parametrize("spec", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_brute_force_is_least_valid_red_bitmask(self, spec, monkeypatch):
        default = search._SWEEP_CHUNK
        assert default & (default - 1) == 0, "a chunk is a power of two"
        for n in range(1, 13):
            expected = least_valid_red_bits(n, *spec)
            for chunk in (1, 2, 16, default):
                monkeypatch.setattr(search, "_SWEEP_CHUNK", chunk)
                got = red_bits(brute_force_colorable(n, ProblemSpec(*spec)))
                assert got == expected, (spec, n, chunk)

    def test_brute_force_least_across_chunks(self, monkeypatch):
        monkeypatch.setattr(search, "_SWEEP_CHUNK", 16)
        beyond_first_chunk = 0
        for k, l in ((2, 2), (2, 3), (3, 3)):
            for n in range(1, 13):
                expected = least_valid_red_bits(n, k, l)
                assert red_bits(brute_force_colorable(n, ProblemSpec(k, l))) == expected, (k, l, n)
                beyond_first_chunk += expected is not None and expected >= 16
        assert beyond_first_chunk >= 3  # the answer really sits in a later chunk

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_colorable(27, ProblemSpec(2, 2))


class TestComputeRado:
    @pytest.mark.parametrize("k,l,expected", [(2, 2, 5), (2, 4, 11), (4, 4, 19)])
    def test_values(self, k, l, expected):
        report = compute_rado(ProblemSpec(k, l))
        assert report.value == expected
        assert report.formula_value == expected
        assert not report.formula_mismatch
        assert report.extremal.n == expected - 1
        assert is_valid_discrete(report.extremal, ProblemSpec(k, l)).is_valid

    def test_cap_exhaustion_reported(self):
        report = compute_rado(ProblemSpec(2, 2), max_n=4)
        assert report.value is None and report.extremal is None

    def test_scan_records_every_n(self):
        report = compute_rado(ProblemSpec(2, 2), max_n=8, scan=True)
        assert report.scan == tuple((n, n <= 4) for n in range(1, 9))
        assert report.value == 5

    def test_no_propagation_counts_more_nodes(self):
        fast = compute_rado(ProblemSpec(3, 4))
        slow = compute_rado(ProblemSpec(3, 4), propagation=False)
        assert slow.value == fast.value == 14
        assert slow.stats.nodes_explored > fast.stats.nodes_explored

    def test_report_json_shape(self):
        report = compute_rado(ProblemSpec(2, 2))
        doc = report.as_json()
        assert doc["value"] == 5
        assert doc["extremal"]["n"] == 4
        assert set(doc["extremal"]["red"]) | set(doc["extremal"]["blue"]) == {1, 2, 3, 4}
        assert doc["stats"]["nodes_explored"] > 0


ALL_SPECS = [(k, l) for k in range(2, 11) for l in range(k, 11)]


def decided(report):
    return report.value, report.extremal, report.formula_mismatch, report.max_n


def record_searches(monkeypatch) -> list[int]:
    """Patch ``search.search_valid`` to note each n it is asked about."""
    searched = []
    real = search.search_valid

    def recording(n, *args, **kwargs):
        searched.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(search, "search_valid", recording)
    return searched


class TestTwoPointSearch:
    """The default search visits the formula value and the n below it; the
    scan walks every n.  By downward closure they must agree."""

    @pytest.mark.parametrize("k,l", ALL_SPECS)
    def test_agrees_with_the_scan(self, k, l):
        spec = ProblemSpec(k, l)
        f = formula_discrete(k, l)
        for cap in (None, 1, f - 2, f - 1, f, f + 5):
            scanned = compute_rado(spec, max_n=cap, scan=True)
            assert decided(compute_rado(spec, max_n=cap)) == decided(scanned), cap
            if f <= 14:  # the 2^n sweep has its own extremal: the least red bitmask
                slow = compute_rado(spec, max_n=cap, propagation=False)
                swept = compute_rado(spec, max_n=cap, propagation=False, scan=True)
                assert decided(slow) == decided(swept), cap

    @pytest.mark.parametrize(
        "k,l,propagation",
        [(2, 2, True), (2, 7, True), (5, 6, True), (8, 8, True), (2, 5, False), (3, 4, False)],
    )
    def test_two_searches_when_the_formula_holds(self, monkeypatch, k, l, propagation):
        f = formula_discrete(k, l)
        searched = record_searches(monkeypatch)
        report = compute_rado(ProblemSpec(k, l), propagation=propagation)
        assert report.value == f and searched == [f, f - 1]

    @pytest.mark.parametrize("k,l", [(2, 4), (2, 5), (3, 4), (4, 5), (2, 10)])
    @pytest.mark.parametrize(
        "wrong",
        [
            pytest.param(lambda f: f - 7, id="f-7"),
            pytest.param(lambda f: f - 1, id="f-1"),
            pytest.param(lambda f: f + 1, id="f+1"),
            pytest.param(lambda f: f + 9, id="f+9"),
            pytest.param(lambda f: 1, id="1"),
            pytest.param(lambda f: f + 50, id="above-the-cap"),
        ],
    )
    def test_gallop_when_the_formula_is_wrong(self, monkeypatch, k, l, wrong):
        f = formula_discrete(k, l)
        patched = wrong(f)
        spec = ProblemSpec(k, l)
        monkeypatch.setattr(search, "formula_discrete", lambda k, l: patched)
        searched = record_searches(monkeypatch)
        for cap in (None, f + 5):
            scanned = compute_rado(spec, max_n=cap, scan=True)
            searched.clear()
            report = compute_rado(spec, max_n=cap)
            assert decided(report) == decided(scanned)
            assert report.formula_value == patched
            assert report.formula_mismatch == (report.value is not None and report.value != patched)
            # galloping then bisecting: logarithmic in the distance, not linear
            assert len(searched) <= 2 * abs(patched - f).bit_length() + 3
            assert all(1 <= n <= report.max_n for n in searched)
            assert len(set(searched)) == len(searched)


property_settings = settings(derandomize=True, deadline=None, database=None)


@st.composite
def partial_colorings(draw):
    """(n, red, blue) with n in 0..16 and each point red, blue or uncolored."""
    n = draw(st.integers(0, 16))
    colors = draw(st.lists(st.sampled_from([Color.RED, Color.BLUE, None]), min_size=n, max_size=n))
    red = {i for i, c in enumerate(colors, 1) if c is Color.RED}
    blue = {i for i, c in enumerate(colors, 1) if c is Color.BLUE}
    return n, red, blue


class TestDiscreteColoring:
    def test_from_sets_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            DiscreteColoring.from_sets(3, red={1}, blue={1})
        with pytest.raises(ValueError, match="overlap"):
            DiscreteColoring.from_sets(3, red={2.0}, blue={2})
        # int() would truncate 2.5 to 2, so the range check must refuse it
        for bad in ({4}, {0}, {2.5}, {"2"}, {None}, {float("nan")}):
            with pytest.raises(ValueError, match="must lie in"):
                DiscreteColoring.from_sets(3, red=bad, blue=set())
        # the range is checked before the constructor sees any overlap
        with pytest.raises(ValueError, match="must lie in"):
            DiscreteColoring.from_sets(3, red={1, 4}, blue={1})

    def test_json_round_trip(self):
        c = DiscreteColoring.from_sets(4, red={1, 4}, blue={2, 3})
        assert DiscreteColoring.from_json(c.as_json()) == c

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": "5", "red": [], "blue": []},
            {"n": 5.0, "red": [], "blue": []},
            {"n": True, "red": [1], "blue": []},
            {"n": 2, "red": [True], "blue": [2]},
            {"n": 2, "red": [1.0], "blue": [2]},
        ],
    )
    def test_from_json_rejects_non_integers(self, doc):
        with pytest.raises(ValueError):
            DiscreteColoring.from_json(doc)

    def test_from_json_rejects_extra_keys(self):
        # as the spec, coloring and certificate readers do
        with pytest.raises(ValueError, match="exactly n, red, blue"):
            DiscreteColoring.from_json({"n": 2, "red": [1], "blue": [2], "green": []})

    @property_settings
    @given(partial_colorings())
    def test_from_sets_agrees_with_its_sets(self, drawn):
        n, red, blue = drawn
        c = DiscreteColoring.from_sets(n, red, blue)
        assert c.values_of(Color.RED) == tuple(sorted(red))
        assert c.values_of(Color.BLUE) == tuple(sorted(blue))
        assert c.is_total == (len(red) + len(blue) == n)

    @property_settings
    @given(st.integers(0, 2**300) | st.sets(st.integers(0, 3000)).map(lambda s: sum(1 << i for i in s)))
    def test_members_reads_every_set_bit(self, mask):
        # the one bit reader of values_of and _sums_hit, against a shift per bit
        assert search._members(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    def test_from_sets_tests_the_range_without_listing_it(self):
        # a set of {1..10^7} took about 600 MB; the masks take about 2.5 MB
        tracemalloc.start()
        try:
            c = DiscreteColoring.from_sets(10**7, [1], [2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (c.n, c.red, c.blue) == (10**7, 2, 4)
        assert peak < 16 * 2**20, peak
        # nor scanned: `x in range(...)` walks the range for a float x, about
        # 0.7 s per member near 10^7
        start = time.perf_counter()
        c = DiscreteColoring.from_sets(10**7, [float(10**7 - i) for i in range(5)], [1])
        assert time.perf_counter() - start < 1.0
        assert c.values_of(Color.RED) == tuple(range(10**7 - 4, 10**7 + 1))

    @property_settings
    @given(partial_colorings())
    def test_json_round_trip_is_an_identity(self, drawn):
        c = DiscreteColoring.from_sets(*drawn)
        assert DiscreteColoring.from_json(c.as_json()) == c

    @property_settings
    @given(partial_colorings())
    def test_constructor_rejects_overlap_bit_0_and_bit_n_plus_1(self, drawn):
        n, red, blue = drawn
        c = DiscreteColoring.from_sets(n, red, blue)
        if n >= 1:
            with pytest.raises(ValueError, match="overlap"):
                DiscreteColoring(n, c.red | 2, c.blue | 2)
        with pytest.raises(ValueError, match="must lie in"):
            DiscreteColoring(n, c.red | 1, c.blue)
        with pytest.raises(ValueError, match="must lie in"):
            DiscreteColoring(n, c.red, c.blue | 1 << (n + 1))


class TestCrossModule:
    def test_two_block_integer_restriction_valid(self):
        for k in range(2, 7):
            for l in range(k, 7):
                spec = ProblemSpec(k, l)
                coloring = lower_bound_coloring(spec)
                n = k * l + k - 2  # S - 1
                red = {i for i in range(1, n + 1) if coloring.red.contains(i)}
                blue = {i for i in range(1, n + 1) if coloring.blue.contains(i)}
                assert red | blue == set(range(1, n + 1))
                restricted = DiscreteColoring.from_sets(n, red, blue)
                assert is_valid_discrete(restricted, spec).is_valid
