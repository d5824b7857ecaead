import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from offrado import search
from offrado.equations import Color, ProblemSpec, SolutionWitness
from offrado.intervals import lower_bound_coloring
from offrado.search import (
    Conflict,
    DiscreteColoring,
    brute_force_colorable,
    compute_rado,
    enumerate_solutions,
    is_valid_discrete,
    propagate,
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
            is_valid_discrete(DiscreteColoring.empty(3), ProblemSpec(2, 2))


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


class TestPropagate:
    def test_red_start_forces_small_chain(self):
        spec = ProblemSpec(2, 3)
        start = DiscreteColoring.empty(6).assign(1, Color.RED)
        result = propagate(start, spec)
        assert isinstance(result, DiscreteColoring)
        assert result.color_of(2) is Color.BLUE  # 1+1=2
        assert result.color_of(6) is Color.RED   # 2+2+2=6
        assert result.color_of(3) is Color.BLUE  # 3+3=6

    def test_red_start_conflicts_at_seven(self):
        # over {1..7} the chain closes: 2,7,3 go blue and 2+2+3=7 is all blue
        spec = ProblemSpec(2, 3)
        start = DiscreteColoring.empty(7).assign(1, Color.RED)
        result = propagate(start, spec)
        assert isinstance(result, Conflict)
        assert result.witness.color is Color.BLUE

    def test_blue_start_forces_l_red(self):
        spec = ProblemSpec(2, 3)
        start = DiscreteColoring.empty(5).assign(1, Color.BLUE)
        result = propagate(start, spec)
        assert isinstance(result, DiscreteColoring)
        assert result.color_of(3) is Color.RED  # 1+1+1=3

    def test_empty_is_fixpoint(self):
        spec = ProblemSpec(2, 3)
        start = DiscreteColoring.empty(7)
        assert propagate(start, spec) == start

    def test_monotone_and_idempotent(self):
        spec = ProblemSpec(2, 3)
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 9)
            c = DiscreteColoring.empty(n)
            for i in range(1, n + 1):
                roll = rng.random()
                if roll < 0.3:
                    c = c.assign(i, Color.RED)
                elif roll < 0.5:
                    c = c.assign(i, Color.BLUE)
            out = propagate(c, spec)
            if isinstance(out, Conflict):
                continue
            for i in range(1, n + 1):
                if c.color_of(i) is not None:
                    assert out.color_of(i) is c.color_of(i)
            assert propagate(out, spec) == out


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
        with pytest.raises(ValueError):
            DiscreteColoring.from_sets(3, red={1}, blue={1})
        with pytest.raises(ValueError):
            DiscreteColoring.from_sets(3, red={4}, blue=set())

    def test_swapped(self):
        c = DiscreteColoring.from_sets(3, red={1}, blue={2, 3})
        assert c.swapped() == DiscreteColoring.from_sets(3, red={2, 3}, blue={1})

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

    @property_settings
    @given(partial_colorings())
    def test_from_sets_agrees_with_its_sets(self, drawn):
        n, red, blue = drawn
        c = DiscreteColoring.from_sets(n, red, blue)
        assert c.values_of(Color.RED) == tuple(sorted(red))
        assert c.values_of(Color.BLUE) == tuple(sorted(blue))
        for i in range(1, n + 1):
            expected = Color.RED if i in red else Color.BLUE if i in blue else None
            assert c.color_of(i) is expected
        assert c.is_total == (len(red) + len(blue) == n)

    @property_settings
    @given(partial_colorings())
    def test_assign_chain_equals_from_sets(self, drawn):
        n, red, blue = drawn
        c = DiscreteColoring.empty(n)
        for i in sorted(red | blue):
            c = c.assign(i, Color.RED if i in red else Color.BLUE)
        target = DiscreteColoring.from_sets(n, red, blue)
        assert c == target and hash(c) == hash(target)

    @property_settings
    @given(partial_colorings())
    def test_swap_twice_and_json_round_trip_are_identities(self, drawn):
        c = DiscreteColoring.from_sets(*drawn)
        assert c.swapped() == DiscreteColoring.from_sets(drawn[0], drawn[2], drawn[1])
        assert c.swapped().swapped() == c
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
