"""Derived invariants and decision procedures on abstract Hubbard trees.

Trees are compared through itinerary-keyed canonical forms: itineraries
are intrinsic labels (recomputable from sector data and the dynamics),
so structural equality of the keyed data decides equivalence.  The core
entropy is the logarithm of the spectral radius of the edge transition
matrix of the tree self-map; edge images are arcs, so each matrix row
marks the edges of one tree path.

The spectral radius is the largest over the strongly connected classes
of the matrix's graph (on a reducible matrix the whole-matrix bracket
need not close); each class radius is certified by the Collatz-Wielandt
bracket of power iteration on ``(A_C + I)^k``, closed to relative width
``1e-3 * tol``.  ``k`` is a power of two chosen so that the power of an
integer matrix is exact in float64 (entries below ``2^53``); a class
then takes a few numpy calls.  ``spectral_radius_exact`` is the
reference.

numpy is imported by the functions that build or read a matrix, so a
caller that never does (``same_map``, say) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceFailureError, NotExpansiveError, PeriodicBaseError
from .partition import (
    Itinerary,
    Plain,
    itinerary,
    itinerary_entry,
    validate_base,
)
from .sequences import ExtAddress, _decision_length
from .treebuild import AbstractHubbardTree, _min_rotation

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ExpansivityReport",
    "TransitionMatrix",
    "core_entropy",
    "expansivity_report",
    "same_map",
    "spectral_radius_exact",
    "spectral_radius_power",
    "transition_matrix",
    "tree_equivalent",
]


def _canonical_form(T: AbstractHubbardTree):
    key = {v.id: str(v.itinerary) for v in T.vertices}
    edges = frozenset(frozenset((key[a], key[b])) for a, b in T.edges)
    dyn = {key[i]: key[img] for i, img in enumerate(T.dynamics)}
    sectors = {k: frozenset(key[i] for i in ids) for k, ids in T.sectors}
    orders = {}
    for i, order in enumerate(T.cyclic_order):
        if order is None:
            continue
        orders[key[i]] = _min_rotation(tuple(key[j] for j in order))
    return (frozenset(key.values()), edges, dyn, sectors, key[T.singular_point], orders)


def tree_equivalent(T1: AbstractHubbardTree, T2: AbstractHubbardTree) -> bool:
    """Equivalence of abstract Hubbard trees.

    True iff the itinerary-labeled vertex sets, edges, dynamics, sector
    labels and rotation-normalized cyclic orders all coincide.
    """
    return _canonical_form(T1) == _canonical_form(T2)


def same_map(s1: ExtAddress, s2: ExtAddress) -> bool:
    """Do two preperiodic base addresses belong to the same map?

    True iff the itinerary of ``s2`` with respect to ``s1`` equals the
    kneading sequence of ``s1``.  Both addresses must be strictly
    preperiodic (:class:`PeriodicBaseError` otherwise).
    """
    P1 = validate_base(s1)
    if s2.is_periodic():
        raise PeriodicBaseError(f"address {s2} is purely periodic")
    return itinerary(P1, s2) == P1.kneading


@dataclass(frozen=True)
class ExpansivityReport:
    """First-separation depths: for each unordered vertex pair, the least
    ``n`` with differing itinerary entries at position ``n + 1``."""

    depths: dict[tuple[int, int], int]
    max_depth: int


def _sequence_params(it: Itinerary, nu_pre: int, nu_per: int) -> tuple[int, int]:
    if isinstance(it, Plain):
        return len(it.seq.preperiod), len(it.seq.period)
    return len(it.prefix) + 1 + nu_pre, nu_per


def expansivity_report(T: AbstractHubbardTree) -> ExpansivityReport:
    """Separation depths for all marked-point pairs of the tree.

    Raises :class:`NotExpansiveError` if some pair of vertices never
    separates, which cannot happen for built trees but is checked for
    externally supplied ones.
    """
    P = T.partition
    nu_pre = len(P.kneading.seq.preperiod)
    nu_per = len(P.kneading.seq.period)
    depths: dict[tuple[int, int], int] = {}
    for i in range(len(T.vertices)):
        for j in range(i + 1, len(T.vertices)):
            a = T.vertices[i].itinerary
            b = T.vertices[j].itinerary
            pa, qa = _sequence_params(a, nu_pre, nu_per)
            pb, qb = _sequence_params(b, nu_pre, nu_per)
            for n in range(_decision_length(max(pa, pb), qa, qb)):
                if itinerary_entry(P, a, n + 1) != itinerary_entry(P, b, n + 1):
                    depths[(i, j)] = n
                    break
            else:
                raise NotExpansiveError(
                    f"vertices {a} and {b} have identical itineraries"
                )
    return ExpansivityReport(depths, max(depths.values(), default=0))


@dataclass(frozen=True)
class TransitionMatrix:
    """Edge transition matrix: entry ``(e, f)`` is 1 iff the image arc of
    edge ``e`` covers edge ``f``."""

    matrix: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def row_map(self) -> dict[tuple[int, int], set[tuple[int, int]]]:
        """Edge-to-covered-edges view, independent of row order."""
        import numpy as np

        out = {}
        for i, e in enumerate(self.edges):
            out[e] = {self.edges[j] for j in np.nonzero(self.matrix[i])[0]}
        return out


def transition_matrix(T: AbstractHubbardTree) -> TransitionMatrix:
    """Markov matrix of the tree self-map over the edges.

    The image of an edge ``(u, v)`` is the tree path from the image of
    ``u`` to the image of ``v``; the row of ``(u, v)`` marks every edge
    on that path.
    """
    import numpy as np

    edges = T.edges
    index = {frozenset(e): i for i, e in enumerate(edges)}
    mat = np.zeros((len(edges), len(edges)), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        path = T.path(T.dynamics[u], T.dynamics[v])
        for a, b in zip(path, path[1:]):
            mat[i, index[frozenset((a, b))]] = 1
    return TransitionMatrix(mat, edges)


def spectral_radius_power(
    A: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> float:
    """Spectral radius of a nonnegative matrix, certified per class.

    The radius is the largest over the diagonal blocks ``A_C`` of the
    strongly connected classes of the matrix's graph (0 for a zero
    block).  The shift ``B = A_C + I`` is primitive, so nothing
    oscillates.  ``B`` is squared to ``M = B^k``, ``k`` a power of two,
    while the next power of an integer matrix stays exact in float64: a
    square is taken only if ``r^(2k) < 2^53``, ``r`` the largest row sum
    of ``B`` rounded up, and only if ``2k <= max_iter``.  Power iteration
    on ``M`` from the all-ones vector gives at every step the
    Collatz-Wielandt bracket
    ``min_i (Mx)_i/x_i <= (rho(A_C) + 1)^k <= max_i (Mx)_i/x_i``, whose
    k-th roots are ``lo`` and ``hi``.  It stops at
    ``hi - lo <= 1e-3 * tol * lo`` with the midpoint minus 1, which is
    within ``5e-4 * tol * (rho + 1)`` of the class radius.
    ``max_iter`` counts applications of ``B`` (one step of ``M`` is
    ``k`` of them); :class:`ConvergenceFailureError` is raised if a
    class needs more.
    """
    import numpy as np

    n = A.shape[0]
    # Reachability closure: after j squarings ``reach`` covers every
    # path of length <= 2^j; it is closed once a square adds nothing.
    reach = (A != 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        nxt = reach @ reach
        if (nxt == reach).all():
            break
        reach = nxt
    if reach.all():
        blocks = [A]
    else:
        # Each distinct row of mutual reachability marks one class.
        rows = {row.tobytes(): row for row in reach & reach.T}
        blocks = [A[np.ix_(C, C)] for C in map(np.flatnonzero, rows.values())]
    rho = 0.0
    for block in blocks:
        if not block.any():
            continue
        m = len(block)
        M = block + np.eye(m)
        r = math.ceil(M.sum(axis=1).max())
        k = 1
        while r ** (2 * k) < 2**53 and 2 * k <= max_iter:
            M = M @ M
            k *= 2
        x = np.ones(m)
        for _ in range(max_iter // k):
            y = M @ x
            ratios = y / x
            lo, hi = ratios.min() ** (1 / k), ratios.max() ** (1 / k)
            if hi - lo <= 1e-3 * tol * lo:
                break
            x = y / y.max()
        else:
            raise ConvergenceFailureError(
                f"Collatz-Wielandt bracket of a {m}-index class still open "
                f"after {max_iter} applications of A_C + I"
            )
        rho = max(rho, float((lo + hi) / 2) - 1.0)
    return rho


def spectral_radius_exact(A: np.ndarray) -> float:
    """Spectral radius via the characteristic polynomial.

    The matrix is a nonnegative integer matrix, so its spectral radius is
    its largest real eigenvalue; the roots are isolated exactly with
    sympy and evaluated to high precision.
    """
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


def core_entropy(
    T: AbstractHubbardTree,
    tol: float = 1e-9,
    max_iter: int = 200_000,
    exact_size_limit: int = 12,
) -> float:
    """Core entropy: log of the spectral radius of the transition matrix.

    Uses the certified bracket of :func:`spectral_radius_power`; when
    that hits its iteration cap and the matrix is small enough, falls
    back to exact root isolation.
    A spectral radius at most 1 yields entropy 0.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    A = transition_matrix(T).matrix
    try:
        rho = spectral_radius_power(A, tol, max_iter)
    except ConvergenceFailureError:
        if A.shape[0] <= exact_size_limit:
            rho = spectral_radius_exact(A)
        else:
            raise
    return math.log(rho) if rho > 1.0 else 0.0
