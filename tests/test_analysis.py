import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from exptree import analysis
from exptree.analysis import (
    core_entropy,
    expansivity_report,
    same_map,
    spectral_radius_exact,
    spectral_radius_power,
    transition_matrix,
    tree_equivalent,
)
from exptree.errors import ConvergenceFailureError, NotExpansiveError, PeriodicBaseError
from exptree.partition import Plain, PreSingular, validate_base
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

    @pytest.mark.parametrize("bad", [[[0.5]], [[-1]], [[1, 2]], [[1], [1, 1]]])
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
