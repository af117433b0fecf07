import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from exptree import analysis
from exptree.analysis import (
    _classes,
    _entropy_digits,
    _exceeds,
    core_entropy,
    expansivity_report,
    same_map,
    spectral_radius_exact,
    spectral_radius_power,
    transition_matrix,
    tree_equivalent,
)
from exptree.errors import (
    ConvergenceFailureError,
    NotATreeError,
    NotExpansiveError,
    PeriodicBaseError,
)
from exptree.partition import Plain, PreSingular, itinerary_entry, validate_base
from exptree.realization import addresses_of
from exptree.sequences import address, canonicalize
from exptree.treebuild import build_tree

from oracles import numpy_spectral_radius


def addr(pre, per):
    return canonicalize(pre, per)


def sympy_spectral_radius(A):
    """Reference radius: the largest real root of the characteristic
    polynomial, isolated exactly by sympy and evaluated to 30 digits."""
    import sympy

    n = A.shape[0]
    if n == 0:
        return 0.0
    M = sympy.Matrix(A.tolist())
    lam = sympy.symbols("lam")
    poly = M.charpoly(lam)
    roots = sympy.real_roots(poly.as_expr(), lam)
    if not roots:
        return 0.0
    return float(max(sympy.Float(r.evalf(30)) for r in roots))


def plain(pre, per):
    return Plain(canonicalize(pre, per))


@st.composite
def small_matrices(draw):
    """Nonnegative integer matrices up to 10x10 with entries 0..3; rows at
    and after ``split`` are zero left of it, so a split > 0 makes the
    matrix block upper-triangular and reducible."""
    n = draw(st.integers(min_value=1, max_value=10))
    row = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    A = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int64)
    split = draw(st.integers(min_value=0, max_value=n - 1))
    A[split:, :split] = 0
    return A


@st.composite
def wide_bases(draw):
    """Strictly preperiodic bases with a nonzero leading entry, preperiod
    up to 6, period up to 12 and entries in [-6, 6]."""
    entries = st.integers(-6, 6)
    pre = [draw(entries.filter(bool))] + draw(st.lists(entries, max_size=5))
    s = canonicalize(pre, draw(st.lists(entries, min_size=1, max_size=12)))
    assume(not s.is_periodic())
    return s


quiet = pytest.mark.filterwarnings("ignore::exptree.errors.NormalizationWarning")


class TestTreeEquivalent:
    def test_reflexive(self, P_a, tree_a):
        assert tree_equivalent(tree_a, build_tree(P_a))

    def test_different_trees(self, tree_a, tree_b):
        assert not tree_equivalent(tree_a, tree_b)

    def test_reversed_cyclic_order_detected(self, tree_b):
        ids = tree_b.vertex_by_itinerary()
        w = ids[plain([], [0])]
        flipped = list(tree_b.cyclic_order)
        flipped[w] = tuple(reversed(flipped[w]))
        other = tree_b.__class__(
            partition=tree_b.partition,
            vertices=tree_b.vertices,
            edges=tree_b.edges,
            dynamics=tree_b.dynamics,
            singular_point=tree_b.singular_point,
            sectors=tree_b.sectors,
            cyclic_order=tuple(flipped),
        )
        assert not tree_equivalent(tree_b, other)


class TestSameMap:
    def test_examples(self, P_a, P_b):
        assert same_map(P_a.base, P_a.base)
        assert same_map(P_b.base, P_b.base)

    def test_different_itinerary(self, P_a):
        with pytest.raises(PeriodicBaseError):
            same_map(P_a.base, addr([], [1]))
        assert not same_map(P_a.base, addr([0, 2], [1]))

    def test_presingular_second_base(self, P_a):
        # 0,0(1) maps onto the partition boundary: itinerary *nu, not nu.
        assert not same_map(P_a.base, P_a.base.prepend(0))

    @quiet
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wide_bases())
    def test_siblings_on_wide_bases(self, s):
        # Every base realizing the kneading sequence is the same map and
        # builds an equivalent tree.
        P = validate_base(s)
        tree = build_tree(P)
        siblings = addresses_of(P, P.kneading).addresses
        assert s in siblings
        for s2 in siblings:
            assert same_map(s, s2), f"{s} vs {s2}"
            assert tree_equivalent(tree, build_tree(validate_base(s2))), f"{s} vs {s2}"


class TestExpansivity:
    def test_examples(self, tree_a, tree_b):
        ids_a = tree_a.vertex_by_itinerary()
        rep_a = expansivity_report(tree_a)
        pair = tuple(sorted((ids_a[plain([0], [1])], ids_a[plain([], [1])])))
        assert rep_a.depths[pair] == 0
        ids_b = tree_b.vertex_by_itinerary()
        rep_b = expansivity_report(tree_b)
        pair = tuple(sorted((ids_b[plain([], [0])], ids_b[plain([0], [0, 1])])))
        assert rep_b.depths[pair] == 2
        assert all(i < j for i, j in rep_b.depths)

    def test_depths_match_entry_by_entry(self, tree_a, tree_b, acceptance_corpus):
        trees = [tree_a, tree_b, *acceptance_corpus.trees[:20]]
        assert any(
            isinstance(v.itinerary, PreSingular) and v.itinerary.prefix
            for tree in trees
            for v in tree.vertices
        )
        for tree in trees:
            P, its = tree.partition, [v.itinerary for v in tree.vertices]
            want = {}
            for i, j in combinations(range(len(its)), 2):
                n = 0
                while itinerary_entry(P, its[i], n + 1) == itinerary_entry(P, its[j], n + 1):
                    n += 1
                want[i, j] = n
            rep = expansivity_report(tree)
            assert rep.depths == want
            assert rep.max_depth == max(want.values())

    def test_not_expansive_detected(self, tree_a):
        clone = tree_a.__class__(
            partition=tree_a.partition,
            vertices=(
                tree_a.vertices[0],
                tree_a.vertices[1],
                tree_a.vertices[1].__class__(
                    2, tree_a.vertices[1].itinerary, tree_a.vertices[1].kind
                ),
            ),
            edges=tree_a.edges,
            dynamics=tree_a.dynamics,
            singular_point=tree_a.singular_point,
            sectors=tree_a.sectors,
            cyclic_order=tree_a.cyclic_order,
        )
        with pytest.raises(NotExpansiveError):
            expansivity_report(clone)


class TestTransitionMatrix:
    def test_golden_a(self, tree_a):
        tm = transition_matrix(tree_a)
        assert tm.matrix.tolist() == [[1, 1], [1, 1]]

    def test_golden_b_row_map(self, tree_b):
        ids = tree_b.vertex_by_itinerary()
        v_t = ids[PreSingular(())]
        w = ids[plain([], [0])]
        nu = ids[plain([0], [0, 1])]
        s1 = ids[plain([], [0, 1])]
        s2 = ids[plain([], [1, 0])]
        e = lambda a, b: tuple(sorted((a, b)))
        rows = transition_matrix(tree_b).row_map()
        assert rows[e(nu, w)] == {e(s1, w)}
        assert rows[e(s1, w)] == {e(v_t, w), e(s2, v_t)}
        assert rows[e(v_t, w)] == {e(nu, w)}
        assert rows[e(s2, v_t)] == {e(nu, w), e(s1, w)}

    def test_row_sums_are_path_lengths(self, acceptance_corpus):
        # Path lengths recomputed through an independent graph library.
        import networkx as nx

        for tree in acceptance_corpus.trees[:15]:
            G = nx.Graph(tree.edges)
            tm = transition_matrix(tree)
            for i, (u, v) in enumerate(tm.edges):
                want = nx.shortest_path_length(
                    G, tree.dynamics[u], tree.dynamics[v]
                )
                assert tm.matrix[i].sum() == want

    def test_fixed_edge_row(self, acceptance_corpus):
        # An edge whose endpoints are both fixed covers exactly itself.
        for tree in acceptance_corpus.trees:
            tm = transition_matrix(tree)
            for i, (u, v) in enumerate(tm.edges):
                if tree.dynamics[u] == u and tree.dynamics[v] == v:
                    row = tm.matrix[i]
                    assert row.sum() == 1 and row[i] == 1


class TestEntropy:
    def test_golden_a(self, tree_a):
        assert abs(core_entropy(tree_a) - math.log(2)) < 1e-9

    def test_golden_b_against_cubic_root(self, tree_b):
        # Spectral radius is the real root of x^3 = x + 2.
        import sympy

        x = sympy.Symbol("x")
        root = max(sympy.real_roots(x**3 - x - 2))
        want = float(sympy.log(root).evalf(30))
        assert abs(core_entropy(tree_b) - want) < 1e-9
        assert abs(want - 0.4196) < 1e-3

    def test_permutation_matrix_entropy_zero(self):
        A = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert spectral_radius_power(A) == pytest.approx(1.0, abs=1e-12)

    def test_power_handles_oscillation(self):
        A = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert spectral_radius_power(A) == pytest.approx(math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([[1, 1], [0, 1]], 1.0),  # Jordan block: two classes of radius 1
            ([[0, 1], [0, 0]], 0.0),  # nilpotent: every class block is zero
            (np.zeros((0, 0), dtype=np.int64), 0.0),
            (np.roll(np.eye(8, dtype=np.int64), 1, axis=1), 1.0),  # 8-cycle
            # Block upper-triangular: class {0, 1} has radius 2, {2, 3} radius 1.
            ([[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]], 2.0),
        ],
    )
    def test_power_on_hand_matrices(self, rows, want):
        A = np.array(rows, dtype=np.int64)
        assert spectral_radius_power(A) == pytest.approx(want, abs=1e-12)
        assert spectral_radius_power(A.tolist()) == pytest.approx(want, abs=1e-12)
        assert numpy_spectral_radius(A) == pytest.approx(want, abs=1e-7)

    def test_power_takes_integral_floats_only(self):
        assert spectral_radius_power(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
        for bad in ([[0.5, 0.5], [0.5, 0.5]], [[-1]]):
            with pytest.raises(ValueError, match="nonnegative integers"):
                spectral_radius_power(np.array(bad))

    # Reducible transition matrices; on the first (8 edges in classes of
    # 2 and 6, radius the golden ratio) the whole-matrix bracket stays
    # open, so it needs the split into classes.
    @pytest.mark.parametrize("base", ["0,3,-3(0,3,-1)", "0,2(1,-1)"])
    def test_power_on_reducible_trees(self, base):
        A = transition_matrix(build_tree(validate_base(address(base)))).matrix
        rho_p = spectral_radius_power(A)
        assert abs(rho_p - spectral_radius_exact(A)) < 1e-9
        assert abs(rho_p - numpy_spectral_radius(A)) < 1e-7

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(small_matrices())
    def test_power_on_random_matrices(self, A):
        rho = spectral_radius_power(A)
        assert abs(rho - spectral_radius_exact(A)) < 1e-9
        assert abs(rho - numpy_spectral_radius(A)) < 1e-7

    @quiet
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wide_bases())
    def test_power_on_wide_base_trees(self, s):
        A = transition_matrix(build_tree(validate_base(s))).matrix
        assert abs(spectral_radius_power(A) - spectral_radius_exact(A)) < 1e-9

    def test_power_squares_only_while_exact(self):
        # Rows of A + I all sum to 85, so the all-ones vector is the Perron
        # vector and closes the bracket at once: 85^2 for (A + I)^2.
        A = np.full((12, 12), 7, dtype=np.int64)
        assert spectral_radius_power(A) == pytest.approx(84.0, rel=1e-9)

    def test_power_refuses_entries_beyond_its_index_budget(self):
        # A + I and its square hold 3001 + 3001^2 indices, within 2^24.
        assert spectral_radius_power([[3000]]) == pytest.approx(3000.0, rel=1e-9)
        for A in ([[10**4]], [[2**70]]):
            with pytest.raises(ValueError, match="spectral_radius_exact"):
                spectral_radius_power(A)
        assert spectral_radius_exact([[2**70]]) == 2.0**70

    @pytest.mark.parametrize("max_iter", [0, -5, 1.5, 2.0, None, True, False])
    def test_max_iter_must_be_a_positive_integer(self, tree_b, max_iter):
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            spectral_radius_power([[1, 1], [1, 0]], max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            core_entropy(tree_b, max_iter=max_iter)

    @pytest.mark.parametrize("limit", ["x", None, -5, 1.5, True])
    def test_exact_size_limit_must_be_a_non_negative_integer(self, tree_b, limit):
        # max_iter=1 leaves the bracket open on 0(0,1), so the limit is read.
        with pytest.raises(
            ValueError, match="exact_size_limit must be a non-negative integer"
        ):
            core_entropy(tree_b, max_iter=1, exact_size_limit=limit)

    def test_exact_size_limit_takes_zero_and_numpy_integers(self, tree_b):
        with pytest.raises(ConvergenceFailureError):
            core_entropy(tree_b, max_iter=1, exact_size_limit=0)
        got = core_entropy(tree_b, max_iter=1, exact_size_limit=np.int64(12))
        assert got == core_entropy(tree_b, max_iter=1)

    def test_max_iter_may_be_a_numpy_integer(self):
        assert spectral_radius_power([[1, 1], [1, 1]], max_iter=np.int64(7)) == 2.0

    def test_iteration_cap_counts_steps_of_the_shift(self):
        # max_iter=1 allows one application of A + I and no squaring.
        assert spectral_radius_power(np.array([[1, 1], [1, 1]]), max_iter=1) == 2.0
        with pytest.raises(ConvergenceFailureError):
            spectral_radius_power(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]), max_iter=1)

    def test_iteration_cap_falls_back_to_exact(self, tree_b, monkeypatch):
        calls = []

        def exact(A):
            calls.append(np.shape(A))
            return spectral_radius_exact(A)

        monkeypatch.setattr(analysis, "spectral_radius_exact", exact)
        A = transition_matrix(tree_b).matrix
        assert core_entropy(tree_b, max_iter=1) == math.log(spectral_radius_exact(A))
        assert calls == [A.shape]

    def test_iteration_cap_raises_past_the_exact_size_limit(self, monkeypatch):
        # One class of 13 edges: one application of A + I does not close it.
        tree = build_tree(validate_base(address("0(0,1,0,1,0,1,2)")))
        calls = []
        monkeypatch.setattr(analysis, "spectral_radius_exact", calls.append)
        with pytest.raises(ConvergenceFailureError, match="13-index class"):
            core_entropy(tree, max_iter=1)
        assert calls == []
        monkeypatch.undo()
        h = core_entropy(tree, max_iter=1, exact_size_limit=13)
        assert h == pytest.approx(core_entropy(tree), abs=1e-9)

    def test_rows_name_an_image_that_is_no_vertex(self, tree_a):
        fields = {f: getattr(tree_a, f) for f in tree_a.__dataclass_fields__}
        bad = tree_a.__class__(**{**fields, "dynamics": (7,) * len(tree_a.vertices)})
        with pytest.raises(NotATreeError, match="no vertex 7"):
            core_entropy(bad)

    def test_three_routes_agree(self, acceptance_corpus):
        for tree in acceptance_corpus.trees[:25]:
            A = transition_matrix(tree).matrix
            rho_p = spectral_radius_power(A)
            rho_e = spectral_radius_exact(A)
            rho_n = numpy_spectral_radius(A)
            assert abs(rho_p - rho_e) < 1e-9
            assert abs(rho_e - rho_n) < 1e-7
            assert core_entropy(tree) >= 0.0

    def test_bad_tolerance(self, tree_a):
        with pytest.raises(ValueError):
            core_entropy(tree_a, tol=0.0)

    def test_nan_tolerance(self, tree_a):
        # NaN fails every comparison, so it would never meet the stop rule.
        with pytest.raises(ValueError, match="positive"):
            core_entropy(tree_a, tol=float("nan"))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
    def test_power_rejects_a_tolerance_that_is_not_positive(self, tol):
        # A NaN or negative tolerance never meets the stop rule, so the
        # iteration would run to its cap and report a convergence failure.
        A = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
        with pytest.raises(ValueError, match="tolerance must be positive"):
            spectral_radius_power(A, tol=tol)

    # Bases whose entropy lies within about 1e-12 of a ninth-decimal
    # rounding boundary; the true values are the log of the largest real
    # root of the characteristic polynomial, from sympy to 25 digits.
    @pytest.mark.parametrize(
        "base, h_true",
        [
            ("0,0(1,1,0,1,1,0,0,0,1,0,1,1,0,1,1,1)", 0.4591445914998866381668849),
            (
                "0(1,1,1,1,1,1,1,0,0,1,1,0,0,0,0,0,0,0,0,0,1,0,0,0,1)",
                0.6875569655000289349015502,
            ),
        ],
    )
    def test_entropy_near_a_rounding_boundary_is_within_its_bound(self, base, h_true):
        tree = build_tree(validate_base(address(base)))
        assert abs(core_entropy(tree) - h_true) < 1e-12


class TestExactRadius:
    @pytest.mark.parametrize(
        "rows, want",
        [
            ([], 0.0),
            ([[0, 0], [0, 0]], 0.0),
            ([[0, 1, 1], [0, 0, 1], [0, 0, 0]], 0.0),  # nilpotent
            ([[1, 1], [0, 1]], 1.0),  # Jordan block
            # Two equal classes: a repeated Perron root.
            ([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 2.0),
            ([[7] * 12] * 12, 84.0),
        ],
    )
    def test_hand_matrices(self, rows, want):
        assert spectral_radius_exact(rows) == want
        n = len(rows)
        assert spectral_radius_exact(np.array(rows, dtype=np.int64).reshape(n, n)) == want

    @pytest.mark.parametrize(
        "bad",
        [[[0.5]], [[-1]], [[1, 2]], [[1], [1, 1]], [[float("inf")]], [[float("nan")]]]
        # Not rows of real numbers: each once raised a bare TypeError.
        + [[["1"]], [[None]], [[1 + 0j]], [[[1]]], 5, [[1, "a"], [0, 1]], np.array([["1"]])],
    )
    def test_takes_square_nonnegative_integer_matrices_only(self, bad):
        for radius in (spectral_radius_exact, spectral_radius_power):
            with pytest.raises(ValueError, match="square and its entries nonnegative integers"):
                radius(bad)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(small_matrices())
    def test_agrees_with_sympy_on_random_matrices(self, A):
        assert abs(spectral_radius_exact(A) - sympy_spectral_radius(A)) < 1e-12

    def test_agrees_with_sympy_on_acceptance_matrices(self, acceptance_corpus):
        checked = 0
        for tree in acceptance_corpus.trees:
            if len(tree.edges) > 12:
                continue
            A = transition_matrix(tree).matrix
            assert abs(spectral_radius_exact(A) - sympy_spectral_radius(A)) < 1e-12
            checked += 1
        assert checked


def reachable(rows, s):
    seen, stack = {s}, [s]
    while stack:
        for w in rows[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@st.composite
def digraphs(draw):
    """Rows of arcs on 0 to 12 vertices, with empty rows, self-loops and
    repeated arcs; half of them also hold a cycle through every vertex,
    which makes the graph strongly connected."""
    n = draw(st.integers(0, 12))
    arcs = st.lists(st.integers(0, max(n - 1, 0)), max_size=4) if n else st.just([])
    rows = draw(st.lists(arcs, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        for i, row in enumerate(rows):
            row.insert(draw(st.integers(0, len(row))), (i + 1) % n)
    return rows


class TestClasses:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(digraphs())
    def test_mutual_reachability(self, rows):
        reach = [reachable(rows, i) for i in range(len(rows))]
        want = {tuple(sorted(j for j in reach[i] if i in reach[j])) for i in range(len(rows))}
        got = _classes(rows)
        assert all(C == sorted(C) for C in got)
        assert sorted(map(tuple, got)) == sorted(want)

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([], []),
            ([[]], [[0]]),
            ([[0, 0]], [[0]]),
            ([[1], []], [[0], [1]]),
            ([[1, 1], [0], []], [[0, 1], [2]]),
            ([[1], [2], [0, 0, 1]], [[0, 1, 2]]),
        ],
    )
    def test_hand_graphs(self, rows, want):
        assert sorted(_classes(rows)) == want


class TestCertifiedDigits:
    # The bases of the rounding-boundary test and their true entropies.
    NEAR = [
        ("0,0(1,1,0,1,1,0,0,0,1,0,1,1,0,1,1,1)", 0.4591445914998866381668849),
        ("0(1,1,1,1,1,1,1,0,0,1,1,0,0,0,0,0,0,0,0,0,1,0,0,0,1)", 0.6875569655000289349015502),
    ]

    def test_digits_are_the_rounded_entropy_away_from_boundaries(
        self, tree_a, tree_b, acceptance_corpus
    ):
        for tree in (tree_a, tree_b, *acceptance_corpus.trees):
            h = core_entropy(tree)
            lo, hi, text = _entropy_digits(tree)
            assert lo <= h <= hi and hi - lo < 1e-11
            assert text == f"{h:.9f}"

    @pytest.mark.parametrize("base, h_true", NEAR)
    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 1.0, 1e3])
    def test_digits_near_a_boundary(self, base, h_true, tol):
        lo, hi, text = _entropy_digits(build_tree(validate_base(address(base))), tol)
        places = len(text.partition(".")[2])
        assert lo <= h_true <= hi
        assert text == f"{h_true:.{places}f}"

    @pytest.mark.parametrize(
        "A, j, d, want",
        [
            ([[2]], 693147180, 9, True),  # log 2 = 0.6931471805599...
            ([[2]], 693147181, 9, False),
            ([[2]], 0, 0, True),
            ([[2]], 1, 0, False),
            ([[0]], 0, 9, False),
            ([[1, 1], [0, 1]], 0, 9, False),  # radius 1
        ],
    )
    def test_exceeds_on_hand_matrices(self, A, j, d, want):
        assert _exceeds(A, j, d) is want

    @pytest.mark.parametrize("j, want", [(692, True), (693, False)])
    def test_exceeds_doubles_its_precision_while_undecided(self, monkeypatch, j, want):
        # log 2 = 0.6931...; the first round (s = 64) is made to decide nothing.
        above, scales = analysis._above, []

        def undecided_at_first(M, p):
            scales.append(M[0][0].bit_length() - 2)  # M = [[2 << s]]
            if len(scales) <= 2:
                return len(scales) == 2  # below at p, above at q
            return above(M, p)

        monkeypatch.setattr(analysis, "_above", undecided_at_first)
        assert _exceeds([[2]], j, 3) is want
        assert scales[:3] == [64, 64, 128]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_matrices())
    def test_exceeds_agrees_with_sympy(self, A):
        import sympy

        rho = sympy_spectral_radius(A)
        assume(rho > 1.0)
        h = math.log(rho)
        j = math.floor(h * 10**6 - 0.5)  # the boundary just below h
        assume(abs(h * 10**6 - 0.5 - j) > 1e-6)
        assert _exceeds(A.tolist(), j, 6) and not _exceeds(A.tolist(), j + 1, 6)


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's exptree."""
    import exptree

    src = str(Path(exptree.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestLazyNumpy:
    def test_queries_without_a_matrix_skip_numpy(self):
        code = (
            "import sys, exptree\n"
            "s = exptree.address('0(0,1)')\n"
            "P = exptree.validate_base(s)\n"
            "exptree.itinerary(P, exptree.address('(1)'))\n"
            "assert exptree.same_map(s, s)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        run = _fresh_interpreter(code)
        assert run.returncode == 0, run.stderr

    def test_core_entropy_skips_numpy_and_sympy(self):
        code = (
            "import sys, exptree as ex\n"
            "tree = ex.build_tree(ex.validate_base(ex.address('0(0,1)')))\n"
            "assert abs(ex.core_entropy(tree) - 0.4196) < 1e-3\n"
            "loaded = {'numpy', 'sympy'} & set(sys.modules)\n"
            "assert not loaded, f'{sorted(loaded)} imported'\n"
        )
        run = _fresh_interpreter(code)
        assert run.returncode == 0, run.stderr

    def test_runs_with_numpy_and_sympy_missing(self):
        # A None entry in sys.modules makes any import of that name fail.
        code = (
            "import sys\n"
            "sys.modules['numpy'] = sys.modules['sympy'] = None\n"
            "import exptree as ex\n"
            "from exptree.cli import main\n"
            "assert main(['tree', '0(0,1)']) == 0\n"
            "assert main(['entropy', '0(0,1)']) == 0\n"
            "assert main(['verify', '--count', '5', '--seed', '1']) == 0\n"
            "tree = ex.build_tree(ex.validate_base(ex.address('0(0,1)')))\n"
            "assert abs(ex.core_entropy(tree, max_iter=1) - 0.419617625) < 1e-9\n"
        )
        run = _fresh_interpreter(code)
        assert run.returncode == 0, run.stderr
