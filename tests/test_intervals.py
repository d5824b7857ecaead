import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from offrado.equations import Color, ProblemSpec, SolutionWitness, Verdict, check_witness
from offrado.intervals import (
    ContinuousColoring,
    _first_sum_member,
    _int_keys,
    _scale_of,
    Interval,
    IntervalSet,
    boundary_witnesses,
    coloring_as_json,
    coloring_from_json,
    decompose_sum,
    lower_bound_coloring,
    m_fold_sumset,
    normalize,
    scale_coloring,
    verify_coloring,
)
from offrado.serialize import format_rational


def iv(lo, hi, code="[)"):
    return Interval(Fraction(lo), Fraction(hi), code[0] == "[", code[1] == "]")


def add(p, q):
    """The sum of two intervals with Fraction endpoints: the ends add, and an
    end is closed only when both contributing ends are."""
    return Interval(p.lo + q.lo, p.hi + q.hi, p.lo_closed and q.lo_closed, p.hi_closed and q.hi_closed)


def minkowski_sum(a, b):
    """{x + y : x in a, y in b}, with Fraction endpoints: the reference the
    int-keyed m_fold_sumset is compared against."""
    return normalize([add(ia, ib) for ia in a.intervals for ib in b.intervals])


def reference_m_fold(a, m):
    acc = a
    for _ in range(m - 1):
        acc = minkowski_sum(acc, a)
    return acc


def reference_decompose(a, m, t):
    """decompose_sum as it ran on Fractions: the first m-multiset of intervals
    whose summed range holds t, then each value the representative of what
    its slot can still take."""
    chosen = None
    for combo in combinations_with_replacement(a.intervals, m):
        total = combo[0]
        for piece in combo[1:]:
            total = add(total, piece)
        if total.contains(t):
            chosen = list(combo)
            break
    if chosen is None:
        raise ValueError(f"{format_rational(t)} is not in the {m}-fold sumset")
    values = []
    target = t
    while len(chosen) > 1:
        piece = chosen.pop(0)
        rest = chosen[0]
        for more in chosen[1:]:
            rest = add(rest, more)
        reflected = Interval(target - rest.hi, target - rest.lo, rest.hi_closed, rest.lo_closed)
        v = piece.intersect(reflected).representative()
        values.append(v)
        target -= v
    assert chosen[0].contains(target)
    values.append(target)
    return tuple(values)


def reference_intersect(a, b):
    """Every pair of pieces intersected, then merged."""
    pieces = [both for x in a.intervals for y in b.intervals if (both := x.intersect(y)) is not None]
    return normalize(pieces)


def outcome(f, *args):
    """f's result, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def interval_sets(draw, max_denominator=12):
    """1 to 4 pieces: points, and intervals with each end open or closed,
    their ends over denominators 1 to ``max_denominator`` in [-3, 10]."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(1, max_denominator))
        lo = Fraction(draw(st.integers(-3 * q, 10 * q)), q)
        if draw(st.booleans()):
            pieces.append(Interval.point(lo))
        else:
            q = draw(st.integers(1, max_denominator))
            hi = lo + Fraction(draw(st.integers(1, 4 * q)), q)
            pieces.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return normalize(pieces)


interval_properties = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@interval_properties
@given(interval_sets(), st.integers(1, 5))
def test_m_fold_matches_fraction_reference(a, m):
    assert m_fold_sumset(a, m) == reference_m_fold(a, m)


@interval_properties
@given(interval_sets(), st.integers(1, 5))
def test_decompose_matches_fraction_reference(a, m):
    # every representative and closed end of the sumset holds a decomposition;
    # an open end lies outside it, so both raise the same message there
    ts = set()
    for piece in reference_m_fold(a, m).intervals:
        ts |= {piece.representative(), piece.lo, piece.hi}
    for t in sorted(ts):
        assert outcome(decompose_sum, a, m, t) == outcome(reference_decompose, a, m, t), t


@interval_properties
@given(interval_sets(), interval_sets())
def test_intersect_matches_the_pairwise_reference(a, b):
    assert a.intersect(b) == reference_intersect(a, b)
    assert b.intersect(a) == reference_intersect(a, b)


@interval_properties
@given(interval_sets(), st.integers(1, 5))
def test_first_sum_member_matches_the_interval_intersection(a, m):
    bad = m_fold_sumset(a, m).intersect(a)
    expected = bad.intervals[0].representative() if not bad.is_empty else None
    assert _first_sum_member(a, m) == expected


@interval_properties
@given(interval_sets(max_denominator=4))
def test_int_keys_hold_the_members_of_the_set(a):
    # every point of the 1/(2 scale) grid over the hull, and one step past
    # each end: x is a member iff some folded key pair has L <= 2 x scale < H
    # (denominators up to 4, so the grid has at most a few hundred points)
    scale = _scale_of(a)
    keys = _int_keys(a, scale)
    first, last = 2 * scale * a.intervals[0].lo, 2 * scale * a.intervals[-1].hi
    for n in range(int(first) - 1, int(last) + 2):
        assert a.contains(Fraction(n, 2 * scale)) == any(lo <= n < hi for lo, hi in keys), n


def reference_verify(coloring, spec):
    """verify_coloring as it ran on Intervals: each class's m-fold sumset
    built and intersected with the class, the first piece's representative
    decomposed."""
    for color in (Color.RED, Color.BLUE):
        cls = coloring.class_of(color)
        if cls.is_empty:
            continue
        bad = m_fold_sumset(cls, spec.arity(color)).intersect(cls)
        if not bad.is_empty:
            x0 = bad.intervals[0].representative()
            values = decompose_sum(cls, spec.arity(color), x0)
            return Verdict(SolutionWitness.from_values(color, values, x0))
    return Verdict()


@st.composite
def colorings(draw):
    """A coloring of a domain in [1, 13] cut on a 1/q grid, q in 1..6, into
    1 to 7 red or blue pieces, some cut points split off as points of their
    own color, and a spec with 2 <= k <= l <= 4 and gamma the domain's start."""
    q = draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(q, 13 * q), min_size=2, max_size=8)))
    closed = [draw(st.booleans()) for _ in cuts]  # an inner cut closes its left piece or its right
    split = [False] + [draw(st.booleans()) for _ in cuts[2:]] + [False]  # or is a piece itself
    pieces = []
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if split[i]:
            pieces.append(Interval.point(Fraction(a, q)))
        lo_closed = closed[0] if i == 0 else not (closed[i] or split[i])
        pieces.append(Interval(Fraction(a, q), Fraction(b, q), lo_closed, closed[i + 1] and not split[i + 1]))
    red = [draw(st.booleans()) for _ in pieces]
    domain = Interval(pieces[0].lo, pieces[-1].hi, pieces[0].lo_closed, pieces[-1].hi_closed)
    coloring = ContinuousColoring(
        domain,
        normalize([p for p, r in zip(pieces, red) if r]),
        normalize([p for p, r in zip(pieces, red) if not r]),
    )
    k = draw(st.integers(2, 4))
    return coloring, ProblemSpec(k, draw(st.integers(k, 4)), domain.lo)


@interval_properties
@given(colorings())
def test_verify_coloring_matches_the_interval_reference(case):
    coloring, spec = case
    assert verify_coloring(coloring, spec) == reference_verify(coloring, spec)


class TestInterval:
    def test_membership_respects_closure(self):
        half = iv(1, 2)
        assert half.contains(1) and half.contains(Fraction(3, 2))
        assert not half.contains(2)
        closed = iv(1, 2, "[]")
        assert closed.contains(2)
        open_both = iv(1, 2, "()")
        assert not open_both.contains(1) and not open_both.contains(2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            iv(2, 1)
        with pytest.raises(ValueError):
            iv(1, 1, "[)")
        Interval.point(1)  # degenerate closed point is fine

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Interval(0.5, 2)

    def test_add_closure_rule(self):
        assert add(iv(1, 2), iv(1, 2)) == iv(2, 4)
        assert add(Interval.point(1), iv(3, 4)) == iv(4, 5)
        assert add(iv(1, 2, "[]"), iv(1, 2, "[]")) == iv(2, 4, "[]")
        assert add(iv(1, 2, "(]"), iv(1, 2, "[)")) == iv(2, 4, "()")


class TestNormalize:
    def test_adjacent_merge(self):
        assert normalize([iv(1, 2), iv(2, 3)]) == IntervalSet((iv(1, 3),))

    def test_sorting(self):
        assert normalize([iv(5, 6), iv(1, 2)]) == IntervalSet((iv(1, 2), iv(5, 6)))

    def test_closed_open_adjacency(self):
        assert normalize([iv(1, 2, "[]"), iv(2, 3, "()")]) == IntervalSet((iv(1, 3),))

    def test_true_gap_is_kept(self):
        out = normalize([iv(1, 2), iv(2, 3, "()")])
        assert len(out.intervals) == 2  # the single point 2 is genuinely missing

    def test_idempotent_and_membership_preserving(self):
        rng = random.Random(20250810)
        for _ in range(40):
            raw = []
            for _ in range(rng.randint(1, 5)):
                q = rng.randint(1, 8)
                a = Fraction(rng.randint(0, 40), q)
                b = a + Fraction(rng.randint(0, 20), q)
                if a == b:
                    raw.append(Interval.point(a))
                else:
                    raw.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
            out = normalize(raw)
            assert normalize(out.intervals) == out
            for _ in range(25):
                x = Fraction(rng.randint(-10, 70), rng.randint(1, 64))
                assert out.contains(x) == any(piece.contains(x) for piece in raw)

    def test_canonical_constructor_rejects_mess(self):
        with pytest.raises(ValueError):
            IntervalSet((iv(1, 2), iv(2, 3)))  # mergeable neighbors
        with pytest.raises(ValueError):
            IntervalSet((iv(5, 6), iv(1, 2)))  # unsorted


class TestMinkowski:
    def test_single_pair(self):
        a = normalize([iv(1, 2)])
        assert minkowski_sum(a, a) == normalize([iv(2, 4)])

    def test_four_pairs_merge(self):
        a = normalize([iv(1, 2), iv(5, 6)])
        assert minkowski_sum(a, a) == normalize([iv(2, 4), iv(6, 8), iv(10, 12)])

    def test_point_translation(self):
        assert minkowski_sum(
            IntervalSet((Interval.point(1),)), normalize([iv(3, 4)])
        ) == normalize([iv(4, 5)])

    def test_m_fold_basics(self):
        a = normalize([iv(1, 2)])
        assert m_fold_sumset(a, 2) == normalize([iv(2, 4)])
        assert m_fold_sumset(a, 1) == a
        with pytest.raises(ValueError):
            m_fold_sumset(a, 0)

    def test_m_fold_two_blocks(self):
        a = normalize([iv(1, 2), iv(5, 6)])
        expected = normalize([iv(3, 6), iv(7, 10), iv(11, 14), iv(15, 18)])
        got = m_fold_sumset(a, 3)
        assert got == expected
        # confirm by grid brute force at denominator 4
        grid = [
            Fraction(n, 4)
            for n in range(0, 30 * 4)
            if a.contains(Fraction(n, 4))
        ]
        sums = {x + y + z for x, y, z in combinations_with_replacement(grid, 3)}
        for s in sums:
            assert got.contains(s)
        for piece in got.intervals:
            assert any(piece.contains(s) for s in sums)

    def test_m_fold_mid_block(self):
        a = normalize([iv(2, 6)])  # k=2, l=3 middle block
        assert m_fold_sumset(a, 3) == normalize([iv(6, 18)])


class TestDecompose:
    def test_any_valid_pair(self):
        a = normalize([iv(1, 2)])
        values = decompose_sum(a, 2, 3)
        assert sum(values) == 3 and len(values) == 2
        assert all(a.contains(v) for v in values)

    def test_forced_points(self):
        a = IntervalSet((Interval.point(1),))
        assert decompose_sum(a, 3, 3) == (1, 1, 1)

    def test_closed_boundary(self):
        a = normalize([iv(2, 6)])
        assert decompose_sum(a, 3, 6) == (2, 2, 2)

    def test_outside_sumset_raises(self):
        a = normalize([iv(1, 2)])
        with pytest.raises(ValueError):
            decompose_sum(a, 2, 10)


class TestVerifyColoring:
    def test_two_block_coloring_is_valid(self):
        spec = ProblemSpec(2, 3)
        coloring = lower_bound_coloring(spec)
        assert coloring.red == normalize([iv(1, 2), iv(6, 7)])
        assert coloring.blue == normalize([iv(2, 6)])
        assert verify_coloring(coloring, spec).is_valid

    def test_all_red_interval_fails(self):
        spec = ProblemSpec(2, 2)
        coloring = ContinuousColoring(
            iv(1, 5, "[]"), normalize([iv(1, 5, "[]")]), IntervalSet()
        )
        verdict = verify_coloring(coloring, spec)
        assert not verdict.is_valid
        w = verdict.witness
        assert w.color is Color.RED and check_witness(spec, w)
        assert all(coloring.red.contains(v) for v in {w.x0, *dict(w.left)})

    def test_endpoint_moved_red_fails(self):
        # closing 7 into the red class creates the red solution 1 + 6 = 7
        spec = ProblemSpec(2, 3)
        coloring = ContinuousColoring(
            iv(1, 7, "[]"),
            normalize([iv(1, 2), iv(6, 7, "[]")]),
            normalize([iv(2, 6)]),
        )
        verdict = verify_coloring(coloring, spec)
        assert not verdict.is_valid
        assert verdict.witness == type(verdict.witness).from_values(Color.RED, [1, 6], 7)

    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            ContinuousColoring(iv(1, 3), normalize([iv(1, 2, "[]")]), normalize([iv(2, 3)]))
        with pytest.raises(ValueError):
            ContinuousColoring(iv(1, 3), normalize([iv(1, 2)]), normalize([iv(2, 4)]))

    def test_domain_below_gamma_rejected(self):
        spec = ProblemSpec(2, 2, 2)
        coloring = lower_bound_coloring(ProblemSpec(2, 2))
        with pytest.raises(ValueError):
            verify_coloring(coloring, spec)

    def test_swapped_coloring_guards_other_equations(self):
        spec = ProblemSpec(2, 3)
        coloring = lower_bound_coloring(spec)
        swapped = ContinuousColoring(coloring.domain, coloring.blue, coloring.red)
        assert not verify_coloring(swapped, spec).is_valid


class TestLowerBoundColoring:
    @pytest.mark.parametrize(
        "k,l,gamma,red,blue",
        [
            (2, 3, 1, [(1, 2), (6, 7)], [(2, 6)]),
            (3, 3, 1, [(1, 3), (9, 11)], [(3, 9)]),
            (2, 3, 2, [(2, 4), (12, 14)], [(4, 12)]),
            (2, 2, 1, [(1, 2), (4, 5)], [(2, 4)]),
        ],
    )
    def test_blocks(self, k, l, gamma, red, blue):
        coloring = lower_bound_coloring(ProblemSpec(k, l, gamma))
        assert coloring.red == normalize([iv(a, b) for a, b in red])
        assert coloring.blue == normalize([iv(a, b) for a, b in blue])

    def test_valid_through_medium_range(self):
        for k in range(2, 7):
            for l in range(k, 7):
                spec = ProblemSpec(k, l)
                assert verify_coloring(lower_bound_coloring(spec), spec).is_valid


class TestScaling:
    def test_identity_and_inverse(self):
        c = lower_bound_coloring(ProblemSpec(2, 3))
        assert scale_coloring(c, 1) == c
        assert scale_coloring(scale_coloring(c, 2), Fraction(1, 2)) == c

    def test_matches_direct_construction(self):
        base = lower_bound_coloring(ProblemSpec(2, 3))
        assert scale_coloring(base, 2) == lower_bound_coloring(ProblemSpec(2, 3, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_coloring(lower_bound_coloring(ProblemSpec(2, 2)), 0)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(2), Fraction(3, 7)])
    def test_verdict_equivariance(self, gamma):
        spec = ProblemSpec(2, 3)
        good = lower_bound_coloring(spec)
        scaled_spec = ProblemSpec(spec.k, spec.l, gamma)
        assert verify_coloring(scale_coloring(good, gamma), scaled_spec).is_valid
        bad = ContinuousColoring(
            iv(1, 7, "[]"),
            normalize([iv(1, 2), iv(6, 7, "[]")]),
            normalize([iv(2, 6)]),
        )
        scaled_verdict = verify_coloring(scale_coloring(bad, gamma), scaled_spec)
        assert not scaled_verdict.is_valid


class TestBoundaryWitnesses:
    @pytest.mark.parametrize(
        "k,l,red_left,blue_left,end",
        [
            (2, 3, [1, 6], [2, 2, 3], 7),
            (3, 3, [1, 1, 9], [3, 3, 5], 11),
            (2, 2, [1, 4], [2, 3], 5),
        ],
    )
    def test_examples(self, k, l, red_left, blue_left, end):
        spec = ProblemSpec(k, l)
        red_w, blue_w = boundary_witnesses(spec)
        assert sorted(v for v, m in red_w.left for _ in range(m)) == red_left
        assert sorted(v for v, m in blue_w.left for _ in range(m)) == blue_left
        assert red_w.x0 == blue_w.x0 == end
        assert check_witness(spec, red_w) and check_witness(spec, blue_w)

    def test_monochromatic_under_extension(self):
        for k in range(2, 8):
            for l in range(k, 8):
                spec = ProblemSpec(k, l)
                coloring = lower_bound_coloring(spec)
                end = coloring.domain.hi
                red_w, blue_w = boundary_witnesses(spec)
                assert all(coloring.red.contains(v) for v, _ in red_w.left)
                assert all(coloring.blue.contains(v) for v, _ in blue_w.left)
                assert red_w.x0 == blue_w.x0 == end


class TestColoringJson:
    def test_round_trip_identity(self):
        for spec in (ProblemSpec(2, 3), ProblemSpec(3, 5, Fraction(1, 2))):
            coloring = lower_bound_coloring(spec)
            doc = coloring_as_json(coloring)
            assert coloring_from_json(doc) == coloring
            assert coloring_as_json(coloring_from_json(doc)) == doc

    def test_document_shape(self):
        doc = coloring_as_json(lower_bound_coloring(ProblemSpec(2, 3)))
        assert doc == {
            "gamma": "1",
            "end": "7",
            "end_inclusive": False,
            "red": [["1", "2", "[)"], ["6", "7", "[)"]],
            "blue": [["2", "6", "[)"]],
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("gamma"),
            lambda d: d.update(end_inclusive="no"),
            lambda d: d["red"].append(["2", "3", "[)"]),  # overlaps blue
            lambda d: d["red"].__setitem__(0, ["1", "2", "[x"]),
            lambda d: d["red"].__setitem__(0, ["1", "2", []]),  # unhashable codes
            lambda d: d["red"].__setitem__(0, ["1", "2", {}]),
            lambda d: d.update(gamma="1.5"),
        ],
    )
    def test_schema_violations(self, mutate):
        doc = coloring_as_json(lower_bound_coloring(ProblemSpec(2, 3)))
        mutate(doc)
        with pytest.raises(ValueError):
            coloring_from_json(doc)


def reference_partition_error(domain, red, blue):
    """The partition rule as ``ContinuousColoring`` first checked it: the
    classes intersected pair by pair, then their union compared with the
    domain.  The message it raises, or None."""
    if not reference_intersect(red, blue).is_empty:
        return "red and blue classes overlap"
    if normalize(red.intervals + blue.intervals) != IntervalSet((domain,)):
        return "red and blue classes do not partition the domain"
    return None


@st.composite
def drawn_classes(draw):
    """A domain and two classes on the half grid: a partition of the domain,
    then up to three of its pieces, or new points, moved, reclosed or
    recolored, so valid partitions, overlaps and gaps all occur.  A piece is
    [lo, hi, lo_closed, hi_closed, red]."""
    cuts = sorted(draw(st.sets(st.integers(0, 12), min_size=2, max_size=7)))
    closed = [draw(st.booleans()) for _ in cuts]  # an inner cut closes its left piece or its right
    pieces = [
        [Fraction(a, 2), Fraction(b, 2), closed[0] if i == 0 else not closed[i], closed[i + 1], draw(st.booleans())]
        for i, (a, b) in enumerate(zip(cuts, cuts[1:]))
    ]
    domain = Interval(pieces[0][0], pieces[-1][1], pieces[0][2], pieces[-1][3])
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            point = Fraction(draw(st.integers(-1, 13)), 2)
            pieces.append([point, point, True, True, True])
        piece, field = draw(st.sampled_from(pieces)), draw(st.integers(0, 4))
        if field < 2:
            piece[field] += draw(st.sampled_from((Fraction(-1, 2), Fraction(1, 2))))
        else:
            piece[field] = not piece[field]
    kept = [p for p in pieces if p[0] < p[1] or (p[0] == p[1] and p[2] and p[3])]
    red = normalize([Interval(*p[:4]) for p in kept if p[4]])
    blue = normalize([Interval(*p[:4]) for p in kept if not p[4]])
    return domain, red, blue


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(drawn_classes())
def test_partition_check_matches_the_pairwise_reference(drawn):
    try:
        ContinuousColoring(*drawn)
    except ValueError as exc:
        assert str(exc) == reference_partition_error(*drawn)
    else:
        assert reference_partition_error(*drawn) is None



def test_reading_2000_alternating_intervals_per_class_takes_under_a_second():
    red = [[str(2 * i + 1), str(2 * i + 2), "[)"] for i in range(2000)]
    blue = [[str(2 * i + 2), str(2 * i + 3), "[)"] for i in range(2000)]
    doc = {"gamma": "1", "end": "4001", "end_inclusive": False, "red": red, "blue": blue}
    start = time.perf_counter()
    coloring = coloring_from_json(doc)
    assert time.perf_counter() - start < 1.0  # the pairwise check took about 30 s
    assert len(coloring.red.intervals) == len(coloring.blue.intervals) == 2000
