import random
from fractions import Fraction

import pytest

from offrado.equations import (
    Color,
    ProblemSpec,
    SolutionWitness,
    Verdict,
    check_witness,
    formula_continuous,
    formula_degenerate_k1,
    formula_discrete,
)
from offrado.certificates import build_k2_certificate, residue_params
from offrado.checker import CertificateCheck, CheckFailure, certificate_from_json
from offrado.intervals import Interval, IntervalSet, lower_bound_coloring
from offrado.search import DiscreteColoring, SearchReport, SearchStats
from offrado.suite import CheckResult
from offrado.serialize import canonical_json, exact_fraction, format_rational, parse_rational


def read_back(witness_json):
    """A witness read from JSON by the certificate reader, the only one: it
    stands in for the contradiction of the (2,3) certificate's red branch,
    the first node of the schema pass."""
    doc = build_k2_certificate(3)
    doc["root"][0]["contradiction"] = witness_json
    nodes, points, _ = certificate_from_json(doc)[2]
    color, left, x0 = nodes[0][4]
    value = [Fraction(*key) for key in points]
    return SolutionWitness(color, tuple((value[p], m) for p, m in left), value[x0])


class TestFormulaDiscrete:
    @pytest.mark.parametrize(
        "k,l,expected",
        [(2, 2, 5), (2, 3, 7), (3, 3, 11), (3, 4, 14), (2, 4, 11), (2, 5, 13)],
    )
    def test_known_values(self, k, l, expected):
        assert formula_discrete(k, l) == expected

    def test_diagonal_matches_quadratic(self):
        # both piecewise branches agree with k^2+k-1 when k = l
        for k in range(2, 13):
            assert formula_discrete(k, k) == k * k + k - 1

    @pytest.mark.parametrize("k,l", [(1, 5), (0, 2), (3, 2), (2, 1)])
    def test_rejects_bad_arities(self, k, l):
        with pytest.raises(ValueError):
            formula_discrete(k, l)


class TestFormulaContinuous:
    @pytest.mark.parametrize(
        "k,l,gamma,expected",
        [(2, 3, 1, 7), (2, 2, 1, 5), (2, 3, 2, 14), (3, 4, Fraction(1, 2), 7)],
    )
    def test_values(self, k, l, gamma, expected):
        assert formula_continuous(k, l, gamma) == expected

    def test_homogeneous_scaling(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.randint(2, 9)
            l = rng.randint(k, 12)
            gamma = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            assert (
                formula_continuous(k, l, gamma)
                == gamma * formula_continuous(k, l, 1)
            )

    def test_discrete_vs_continuous(self):
        # Equal for k >= 3 and for (2,2) and (2,3); the discrete value is
        # strictly larger for k = 2, l >= 4 (3l-2 > 2l+1 only once l > 3).
        for k in range(3, 8):
            for l in range(k, 10):
                assert formula_discrete(k, l) == formula_continuous(k, l)
        assert formula_discrete(2, 2) == formula_continuous(2, 2)
        assert formula_discrete(2, 3) == formula_continuous(2, 3)
        for l in range(4, 12):
            assert formula_discrete(2, l) > formula_continuous(2, l)

    @pytest.mark.parametrize("gamma", [0, -1, Fraction(-3, 2)])
    def test_rejects_nonpositive_gamma(self, gamma):
        with pytest.raises(ValueError):
            formula_continuous(2, 3, gamma)

    def test_rejects_float_gamma(self):
        with pytest.raises(TypeError):
            formula_continuous(2, 3, 0.5)


class TestDegenerateK1:
    @pytest.mark.parametrize("l,expected", [(5, 5), (1, 1), (9, 9)])
    def test_values(self, l, expected):
        assert formula_degenerate_k1(l) == expected

    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            formula_degenerate_k1(0)


class TestProblemSpec:
    def test_invariants(self):
        spec = ProblemSpec(2, 3)
        assert spec.gamma == 1
        assert spec.arity(Color.RED) == 2
        assert spec.arity(Color.BLUE) == 3
        with pytest.raises(ValueError):
            ProblemSpec(1, 3)
        with pytest.raises(ValueError):
            ProblemSpec(3, 2)
        with pytest.raises(ValueError):
            ProblemSpec(2, 3, 0)

    def test_json_round_trip(self):
        spec = ProblemSpec(3, 7, Fraction(2, 5))
        assert ProblemSpec.from_json(spec.as_json()) == spec


class TestSolutionWitness:
    def test_canonical_multiset(self):
        a = SolutionWitness.from_values(Color.RED, [Fraction(3, 2), 1], Fraction(5, 2))
        b = SolutionWitness.from_values(Color.RED, [1, Fraction(3, 2)], Fraction(5, 2))
        c = SolutionWitness(Color.RED, ((Fraction(1), 1), (Fraction(3, 2), 1)), Fraction(5, 2))
        assert a == b == c
        assert a.total_multiplicity == 2

    def test_merges_repeated_values(self):
        w = SolutionWitness(Color.BLUE, ((Fraction(2), 1), (Fraction(2), 2)), Fraction(6))
        assert w.left == ((Fraction(2), 3),)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            SolutionWitness(Color.RED, ((Fraction(1), 0),), Fraction(1))

    def test_json_round_trip(self):
        w = SolutionWitness(Color.BLUE, ((Fraction(3, 2), 2), (Fraction(2), 1)), Fraction(5))
        assert read_back(w.as_json()) == w

    @pytest.mark.parametrize("left", [[["1", True]], [["1", 1], ["2", True]]])
    def test_from_json_rejects_boolean_multiplicity(self, left):
        # a JSON true read as multiplicity 1 would not survive the round trip
        with pytest.raises(ValueError, match="malformed left entry"):
            read_back({"color": "red", "left": left, "x0": "3"})


class TestCheckWitness:
    def test_half_step_red_pair(self):
        spec = ProblemSpec(2, 3)
        w = SolutionWitness.from_values(Color.RED, [1, Fraction(3, 2)], Fraction(5, 2))
        assert check_witness(spec, w)

    def test_blue_endpoint_solution(self):
        for k in range(2, 6):
            for l in range(k, 7):
                spec = ProblemSpec(k, l)
                w = SolutionWitness(
                    Color.BLUE, ((Fraction(1), l - 1), (Fraction(2 * k), 1)),
                    Fraction(2 * k + l - 1),
                )
                assert check_witness(spec, w)

    def test_wrong_sum_fails(self):
        spec = ProblemSpec(2, 2)
        w = SolutionWitness(Color.RED, ((Fraction(1), 2),), Fraction(3))
        assert not check_witness(spec, w)

    def test_wrong_arity_fails(self):
        spec = ProblemSpec(2, 3)
        w = SolutionWitness(Color.BLUE, ((Fraction(1), 2),), Fraction(2))
        assert not check_witness(spec, w)

    def test_below_gamma_fails(self):
        spec = ProblemSpec(2, 2, 2)
        w = SolutionWitness(Color.RED, ((Fraction(1), 2),), Fraction(2))
        assert not check_witness(spec, w)

    def test_permutation_invariant(self):
        spec = ProblemSpec(3, 3)
        rng = random.Random(11)
        values = [Fraction(2), Fraction(5, 2), Fraction(7, 2)]
        x0 = sum(values)
        results = set()
        for _ in range(10):
            rng.shuffle(values)
            results.add(check_witness(spec, SolutionWitness.from_values(Color.RED, values, x0)))
        assert results == {True}


class TestVerdict:
    def test_witness_iff_found(self):
        assert Verdict().is_valid and Verdict().as_json() == {"status": "Valid"}
        w = SolutionWitness.from_values(Color.RED, [1, 1], 2)
        assert not Verdict(w).is_valid
        assert Verdict(w).as_json() == {"status": "WitnessFound", "witness": w.as_json()}


def _witness():
    return SolutionWitness(Color.RED, ((Fraction(1), 1), (1, 1)), 2)


# a factory per public record type, each called twice, and one field name
RECORDS = {
    "ProblemSpec": (lambda: ProblemSpec(2, 3, "1/2"), "gamma"),
    "SolutionWitness": (_witness, "x0"),
    "Verdict": (lambda: Verdict(_witness()), "witness"),
    "Interval": (lambda: Interval(1, 2), "hi"),
    "IntervalSet": (lambda: IntervalSet([Interval(1, 2), Interval.point(3)]), "intervals"),
    "ContinuousColoring": (lambda: lower_bound_coloring(ProblemSpec(2, 3)), "red"),
    "DiscreteColoring": (lambda: DiscreteColoring.from_sets(4, {1, 4}, {2, 3}), "n"),
    "SearchStats": (lambda: SearchStats(3, 4, 0.5), "nodes_explored"),
    "SearchReport": (
        lambda: SearchReport(ProblemSpec(2, 2), 5, None, SearchStats(3, 4, 0.5), 5, 10), "value"
    ),
    "CheckFailure": (lambda: CheckFailure(("1=red",), 0, "why"), "reason"),
    "CertificateCheck": (lambda: CertificateCheck(CheckFailure((), None, "why")), "failure"),
    "ResidueParams": (lambda: residue_params(3, 5), "residue"),
    "CheckResult": (lambda: CheckResult("name", True, "detail"), "ok"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_hash_by_value(name):
    make, field = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


class TestRationalStrings:
    @pytest.mark.parametrize("text,value", [("7", 7), ("3/2", Fraction(3, 2)), ("-4/6", Fraction(-2, 3))])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1.5", "", "a", "1/0", "1/-2", "1e3", "2 /3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format(self):
        assert format_rational(Fraction(14, 2)) == "7"
        assert format_rational(Fraction(3, 2)) == "3/2"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert parse_rational(format_rational(q)) == q

    def test_exact_fraction_passes_a_fraction_through(self):
        q = Fraction(3, 2)
        assert exact_fraction(q) is q

    def test_exact_fraction_copies_a_fraction_subclass(self):
        class Sub(Fraction):
            pass

        q = exact_fraction(Sub(3, 2))
        assert type(q) is Fraction and q == Fraction(3, 2)

    @pytest.mark.parametrize("value", [0.5, True])
    def test_exact_fraction_rejects_floats_and_bools(self, value):
        with pytest.raises(TypeError):
            exact_fraction(value)

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'
