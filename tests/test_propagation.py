"""Invariants of the propagation kernel: the generator against reference
enumerations, the sumset propagator against the reference clause kernel, and
outputs pinned to the values the Fraction-based clause builders produced
(node counts, extremal colorings), with certificate files pinned and archived."""

import gc
import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from offrado.certificates import UnprovedError, certify_upper, verify_certificate
from offrado.cli import main
from offrado.equations import Color, ProblemSpec, SolutionWitness
from offrado.propagation import (
    Clause, ClauseSystem, Satisfiable, SumsetHandle, SumsetSystem, dpll, propagate_masks,
    rado_clauses, solution_clauses,
)
from offrado.search import (
    SearchStats, _system, compute_rado, enumerate_solutions,
    is_valid_discrete, search_valid,
)

DATA = Path(__file__).parent / "data"


def reference_solutions(m, n, color):
    """Multisets of {1..n} with sum <= n in lexicographic order, built the way
    the discrete search used to build them."""

    def rec(prefix, lo, total):
        if len(prefix) == m:
            yield SolutionWitness.from_values(color, prefix, total)
            return
        remaining = m - len(prefix)
        v = lo
        while total + v * remaining <= n:
            prefix.append(v)
            yield from rec(prefix, v, total + v)
            prefix.pop()
            v += 1

    yield from rec([], 1, 0)


def reference_grid(k, l, d):
    """Grid solutions as the prover used to index them: index i is 1 + i/d."""
    top = (k * l + k - 1 - 1) * d
    out = []
    for color, m in ((Color.RED, k), (Color.BLUE, l)):

        def emit(prefix, lo, index_sum):
            if len(prefix) == m:
                x0 = (m - 1) * d + index_sum
                values = [1 + Fraction(i, d) for i in prefix]
                out.append(SolutionWitness.from_values(color, values, 1 + Fraction(x0, d)))
                return
            remaining = m - len(prefix)
            i = lo
            while (m - 1) * d + index_sum + i * remaining <= top:
                prefix.append(i)
                emit(prefix, i, index_sum + i)
                prefix.pop()
                i += 1

        emit([], 0, 0)
    return out


class TestGenerator:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_integer_witnesses_match_reference(self, m):
        for n in range(1, 21):
            color = Color.RED if n % 2 else Color.BLUE
            expected = list(reference_solutions(m, n, color))
            assert [c.witness() for c in solution_clauses(color, m, 1, n)] == expected, (m, n)
            assert list(enumerate_solutions(m, n, color)) == expected, (m, n)

    @pytest.mark.parametrize("k,l,d", [(2, 2, 2), (2, 3, 4), (3, 3, 2), (3, 4, 3)])
    def test_grid_witnesses_match_reference(self, k, l, d):
        top = (k * l + k - 1) * d
        got = [c.witness(d) for c in rado_clauses(k, l, d, top)]
        assert got == reference_grid(k, l, d)

    @pytest.mark.parametrize("m,lo,top", [(1, 1, 9), (2, 1, 15), (3, 2, 30), (4, 3, 40)])
    def test_entries_and_mask_are_the_distinct_ids(self, m, lo, top):
        for c in solution_clauses(Color.RED, m, lo, top):
            assert sum(c.left) == c.x0 <= top and min(c.left) >= lo
            assert c.mask == sum(1 << v for v in {*c.left, c.x0})

    def test_enumeration_is_lazy(self):
        # the full list of 10-part multisets with sum <= 200 has billions of entries
        first = next(enumerate_solutions(10, 200))
        assert first == SolutionWitness.from_values(Color.RED, [1] * 10, 10)

    def test_smaller_domain_is_an_order_preserving_sublist(self):
        whole = rado_clauses(3, 5, 1, 30)
        for n in (1, 7, 18, 29):
            assert [c for c in whole if c.x0 <= n] == rado_clauses(3, 5, 1, n)


# (k, l) -> value, nodes explored, propagations, red half of the extremal coloring.
# The search visits n = f and n = f - 1 only, so nodes and propagations count
# those two searches.  Propagations count the forcings made before each
# conflict, which depends on the kernel's forcing order; values, nodes and
# colorings do not.
PINNED_SEARCH = {
    (2, 10): (29, 3, 64, [1, 3, 5, 7, 9, 20, 22, 24, 26, 28]),
    (3, 7): (23, 7, 43, [1, 2, 8, 9, 14, 15, 21, 22]),
    (4, 5): (23, 3, 32, [1, 2, 3, 20, 21, 22]),
    (4, 6): (27, 5, 40, [1, 2, 3, 13, 14, 24, 25, 26]),
    (5, 5): (29, 3, 39, [1, 2, 3, 4, 25, 26, 27, 28]),
    (5, 6): (34, 3, 44, [1, 2, 3, 4, 30, 31, 32, 33]),
}
# (k, l) -> value, nodes explored, red half of the extremal coloring.  The
# values and colorings up to (7, 7) are the clause kernel's, found by scanning
# every n; the rest equal a full scan's, which takes about 13 s at (30, 30).
PINNED_LARGE = {
    (6, 6): (41, 3, [1, 2, 3, 4, 5, 36, 37, 38, 39, 40]),
    (6, 7): (47, 3, [1, 2, 3, 4, 5, 42, 43, 44, 45, 46]),
    (7, 7): (55, 3, [1, 2, 3, 4, 5, 6, 49, 50, 51, 52, 53, 54]),
    (12, 12): (155, 3, [*range(1, 12), *range(144, 155)]),
    (20, 20): (419, 3, [*range(1, 20), *range(400, 419)]),
    (30, 30): (929, 3, [*range(1, 30), *range(900, 929)]),
}


@pytest.mark.parametrize("k,l", list(PINNED_SEARCH))
def test_search_counts_and_extremal_coloring_pinned(k, l):
    value, nodes, propagations, red = PINNED_SEARCH[k, l]
    report = compute_rado(ProblemSpec(k, l))
    assert (report.value, report.stats.nodes_explored, report.stats.propagations) == (
        value, nodes, propagations,
    )
    assert report.extremal.as_json() == {
        "n": value - 1,
        "red": red,
        "blue": [i for i in range(1, value) if i not in red],
    }
    assert is_valid_discrete(report.extremal, ProblemSpec(k, l)).is_valid


@pytest.mark.parametrize("k,l", list(PINNED_LARGE))
def test_large_search_pinned(k, l):
    value, nodes, red = PINNED_LARGE[k, l]
    report = compute_rado(ProblemSpec(k, l))
    assert (report.value, report.stats.nodes_explored) == (value, nodes)
    assert [i for i in range(1, value) if report.extremal.red >> i & 1] == red
    assert report.extremal.blue == (1 << value) - 2 - report.extremal.red


def test_search_work_does_not_grow_with_the_scan_cap(monkeypatch):
    # the search starts at the formula value whatever the cap, and no n lists its clauses
    built = Counter()
    new = Clause.__new__

    def counting_new(cls, *args, **kwargs):
        built["Clause"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Clause, "__new__", counting_new)
    report = compute_rado(ProblemSpec(2, 10), max_n=200)
    assert (report.value, report.stats.nodes_explored) == (29, 3)
    assert built["Clause"] == 0
    next(solution_clauses(Color.RED, 2, 1, 2))
    assert built["Clause"] == 1  # the count does see a construction


@pytest.mark.parametrize(
    "argv,digest,payload",
    [
        (
            ["4", "6"],
            "5c21c74e2216211e7fb564ff89609d3e5e00292eebfa6c98626c0c48cc14521e",
            ("27", 2, 19, "1 2 3 4 5 6 7 8 11 13 18 21 24 26 27"),
        ),
        (
            ["5", "5"],
            "b2810b44bdaaf5084b629c107bff2189686dd425f256d260637d64cd70b290d6",
            ("29", 2, 12, "1 5 6 11 21 25 29"),
        ),
        (
            ["2", "5", "--grid-denominator", "4"],
            "fd4aea6b4efccf4eb5c9a14a67794a8fe95105186fa7756ca6117dca48674c07",
            ("11", 2, 26, "1 5/4 3/2 7/4 2 9/4 5/2 11/4 3 7/2 9/2 5 6 13/2 8 9 19/2 10 11"),
        ),
        (
            ["3", "4", "--grid-denominator", "3"],
            "b900e14c226163c997974baeca704d6cadef2de1bb12cd475f1aa5118c7a9fe9",
            ("14", 2, 18, "1 4/3 3 11/3 4 13/3 14/3 5 16/3 8 25/3 26/3 9 10 12 14"),
        ),
    ],
    ids=["4-6", "5-5", "2-5-d4", "3-4-d3"],
)
def test_certificate_files_pinned(capsys, tmp_path, argv, digest, payload):
    path = tmp_path / "cert.json"
    assert main(["certify-upper", *argv, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # the numbers on stdout are read back from the document that was written
    end, branches, steps, points = payload
    assert json.loads(capsys.readouterr().out)["payload"] == {
        "file": str(path), "domain_end": end, "branches": branches, "steps": steps,
        "points_used": points.split(),
    }


@pytest.mark.parametrize(
    "name,digest,end,branches,steps",
    [
        ("4-6", "0a5c4a2f87d3b4a21c5635ac5af74afa853d2b6f938acea8dae98917f555bb98", "27", 2, 19),
        ("5-5", "dab3e051bf36746899c985eed3845cd19ffc6b5b7b1d993c61d6595ee6032d44", "29", 2, 24),
        ("2-5-d4", "883680f1bb4c22c2ce99a3b600c638333b40b92e2458bb0d882ab7414d823da7", "11", 2, 28),
        ("3-4-d3", "f4ed3b18c1c8b566f2285ecf4e6c152ba4a02311215d6353f9def883aedeafcc", "14", 2, 37),
    ],
    ids=["4-6", "5-5", "2-5-d4", "3-4-d3"],
)
def test_archived_certificate_files_still_verify(capsys, name, digest, end, branches, steps):
    # written by the clause-kernel grid prover, before the sumset kernel
    # changed the forcing order; a verifier must keep accepting them
    path = DATA / f"certificate-{name}.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert main(["verify-certificate", "--file", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"verified": True, "domain_end": end, "branches": branches, "steps": steps}


def test_no_command_builds_the_reference_kernel(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the reference clause kernel was built")

    monkeypatch.setattr(ClauseSystem, "__init__", refuse)
    for spec, d in (((6, 7), 1), ((12, 12), 1), ((2, 5), 4), ((3, 4), 3)):
        cert, _ = certify_upper(ProblemSpec(*spec), grid_denominator=d if d > 1 else None)
        assert verify_certificate(cert).ok
    assert compute_rado(ProblemSpec(4, 5)).value == 23
    assert propagate_masks(_system(2, 3, 7), 1 << 1, 0, [1])[3] is not None
    with pytest.raises(AssertionError, match="reference"):
        ClauseSystem(3, [])


def integer_system(k, l, n):
    return SumsetSystem(k, l, 1, n)


@st.composite
def kernel_states(draw):
    """(k, l, n, red, blue): a spec with 2 <= k <= l <= 4 and a partial coloring
    of {1..n} as bitmasks."""
    k = draw(st.integers(2, 4))
    l = draw(st.integers(k, 4))
    n = draw(st.integers(1, 16))
    colors = draw(st.lists(st.sampled_from([Color.RED, Color.BLUE, None]), min_size=n, max_size=n))
    red = sum(1 << i for i, c in enumerate(colors, 1) if c is Color.RED)
    blue = sum(1 << i for i, c in enumerate(colors, 1) if c is Color.BLUE)
    return k, l, n, red, blue


@settings(derandomize=True, deadline=None, database=None)
@given(kernel_states())
def test_propagation_is_sound_and_reaches_its_fixpoint(state):
    k, l, n, red, blue = state
    clauses = rado_clauses(k, l, 1, n)
    pending = [i for i in range(1, n + 1) if (red | blue) >> i & 1]
    red, blue, forcings, conflict = ClauseSystem(n + 1, clauses).propagate(red, blue, pending)
    assert red & blue == 0

    def own(clause):
        return red if clause.color is Color.RED else blue

    for v, clause in forcings:
        bit = 1 << v
        assert clause.mask & bit
        assert (red if clause.color is Color.BLUE else blue) & bit  # the opposite color
        assert clause.mask & ~bit & ~own(clause) == 0
    if conflict is not None:
        assert conflict.mask & ~own(conflict) == 0
        return
    for clause in clauses:
        if clause.mask & (blue if clause.color is Color.RED else red):
            continue  # satisfied
        free = clause.mask & ~own(clause)
        assert free & (free - 1), clause  # at least two entries still free


@st.composite
def sumset_states(draw):
    """(k, l, lo, top, red, blue): a spec with 2 <= k <= l <= 4, the ids lo..top
    of the integers (lo = 1) or of the 1/lo grid (lo = 2, 3), and a partial
    coloring of them as bitmasks."""
    k = draw(st.integers(2, 4))
    l = draw(st.integers(k, 4))
    lo = draw(st.sampled_from([1, 2, 3]))
    top = draw(st.integers(lo, lo + 20))
    size = top - lo + 1
    # mostly uncolored, so that most states propagate before any conflict
    palette = st.sampled_from([Color.RED, Color.BLUE, None, None, None, None])
    colors = draw(st.lists(palette, min_size=size, max_size=size))
    red = sum(1 << i for i, c in enumerate(colors, lo) if c is Color.RED)
    blue = sum(1 << i for i, c in enumerate(colors, lo) if c is Color.BLUE)
    return k, l, lo, top, red, blue


def first_clause(handle, lo, top):
    """The first clause in generator order whose entries other than the
    handle's var all lie in its mask, and that contains the var."""
    need = 0 if handle.var is None else 1 << handle.var
    for clause in solution_clauses(handle.color, handle.arity, lo, top):
        if clause.mask & ~handle.own == need:
            return clause
    return None


@settings(derandomize=True, deadline=None, database=None)
@given(sumset_states())
def test_sumset_propagation_matches_the_clause_kernel(state):
    k, l, lo, top, red, blue = state
    pending = [i for i in range(lo, top + 1) if (red | blue) >> i & 1]
    expected = ClauseSystem(top + 1, rado_clauses(k, l, lo, top)).propagate(red, blue, pending)
    red, blue, forcings, conflict = propagate_masks(SumsetSystem(k, l, lo, top), red, blue, pending)
    assert (conflict is None) == (expected[3] is None)
    if conflict is None:
        assert (red, blue) == expected[:2]
    assert red & blue == 0

    handles = forcings + ([(None, conflict)] if conflict else [])
    for var, handle in handles:
        own = red if handle.color is Color.RED else blue
        assert handle.var == var and handle.arity == (k if handle.color is Color.RED else l)
        assert handle.own & ~own == 0
        if var is not None:
            assert (blue if handle.color is Color.RED else red) >> var & 1  # the opposite color
            assert first_clause(handle._replace(var=None), lo, top) is None  # own holds no solution
        witness = handle.witness(lo)
        # a real solution: arity parts summing to x0, on ids lo..top
        parts = [v * lo for v, mult in witness.left for _ in range(mult)]
        assert witness.color is handle.color and len(parts) == handle.arity
        assert all(p.denominator == 1 and lo <= p <= top for p in (*parts, witness.x0 * lo))
        ids = {int(p) for p in (*parts, witness.x0 * lo)}
        assert sum(parts) == witness.x0 * lo
        # ... with every entry but the var in the handle's mask, and the var in it
        assert all(handle.own >> i & 1 for i in ids - {var})
        assert var is None or var in ids
        clause = first_clause(handle, lo, top)
        assert handle.clause() == clause
        assert witness == clause.witness(lo)


class TestDpll:
    def test_model_masks_match_the_search(self):
        system = integer_system(2, 2, 4)
        with pytest.raises(Satisfiable) as model:
            dpll(system, 1, Color.RED, 4, Counter())
        found = search_valid(4, ProblemSpec(2, 2))
        masks = tuple(sum(1 << i for i in found.values_of(c)) for c in (Color.RED, Color.BLUE))
        assert model.value.args == masks

    def test_root_trees_have_the_search_node_count(self):
        system = integer_system(2, 2, 5)
        effort = Counter()
        refutations = [dpll(system, 1, c, 5, effort) for c in (Color.RED, Color.BLUE)]
        stats = SearchStats()
        assert search_valid(5, ProblemSpec(2, 2), stats=stats) is None
        assert sum(map(len, refutations)) == effort["nodes"] == stats.nodes_explored
        assert effort["forcings"] == stats.propagations

    def test_depth_exhaustion_is_none(self):
        # 5 = red leaves propagation stuck, so closing needs splits
        system = integer_system(3, 3, 11)
        assert dpll(system, 5, Color.RED, 0, Counter()) is None
        nodes = dpll(system, 5, Color.RED, 64, Counter())
        assert nodes is not None and nodes[0][4] is None and len(nodes) > 1

    def test_deep_searches_run_under_a_low_recursion_limit(self):
        # dpll keeps its open branches on an explicit stack: (3, 100) splits
        # 65 deep and the colorable 1/1 grid of (2, 100) 48 deep, yet both
        # give their pinned results with 40 frames to spare above this test
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            report = compute_rado(ProblemSpec(3, 100))
            with pytest.raises(UnprovedError) as info:
                certify_upper(ProblemSpec(2, 100), 1)
        finally:
            sys.setrecursionlimit(limit)
        red = [*(x for i in range(17) for x in (6 * i + 1, 6 * i + 2)), *range(103, 296, 6), 300, 301]
        assert (report.value, report.stats.nodes_explored, report.stats.propagations) == (302, 68, 256)
        assert [i for i in range(1, 302) if report.extremal.red >> i & 1] == red
        assert report.extremal.blue == (1 << 302) - 2 - report.extremal.red
        assert str(info.value) == (
            "no closing chain for the red branch of (k=2, l=100): "
            "the 1/1 grid has a valid coloring with 1 = red"
        )


def test_no_clause_data_left_in_reference_cycles():
    # a recursive nested closure is a cycle that keeps its clause system alive
    # until the cyclic collector runs; with DEBUG_SAVEALL it lands in gc.garbage
    gc.collect()
    gc.disable()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compute_rado(ProblemSpec(4, 5))
        assert propagate_masks(_system(2, 3, 7), 1 << 1, 0, [1])[3] is not None
        certify_upper(ProblemSpec(3, 4))
        gc.collect()
        kinds = (Clause, ClauseSystem, SumsetSystem, SumsetHandle)
        leaked = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, kinds))
        assert not leaked
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()


def test_clause_generation_leaves_no_cyclic_garbage():
    # a recursive generator nested inside solution_clauses would be a cycle of
    # function, cells and tuple on every call; DEBUG_SAVEALL keeps any cycle
    gc.collect()
    gc.disable()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compute_rado(ProblemSpec(4, 5))
        certify_upper(ProblemSpec(3, 4))
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
