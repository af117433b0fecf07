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
bracket of power iteration on ``(A_C + I)^2``, in pure Python on sparse
integer rows, closed to relative width ``1e-3 * tol``.
``spectral_radius_exact`` is the reference.

numpy is imported only by ``transition_matrix``, ``row_map`` and, with
sympy, by the exact fallback of ``core_entropy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, truediv
from typing import TYPE_CHECKING, Sequence

from .errors import ConvergenceFailureError, NotExpansiveError, PeriodicBaseError
from .partition import (
    Itinerary,
    Plain,
    itinerary,
    itinerary_entry,
    validate_base,
)
from .sequences import ExtAddress, _decision_length, _min_rotation
from .treebuild import AbstractHubbardTree

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
    A: np.ndarray | Sequence[Sequence[int]],
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> float:
    """Spectral radius of a nonnegative integer matrix, certified per class.

    ``A`` (an ndarray or rows; other entries raise ``ValueError``) becomes
    sparse rows, row ``i`` listing column ``j`` ``A[i, j]`` times.  The radius
    is the largest over the blocks ``A_C`` of the strongly connected classes
    (0 for a zero block).  ``B = A_C + I`` is primitive: power iteration on
    ``M = B^k`` from the all-ones vector, one ``itemgetter`` per row, brackets
    ``(rho(A_C) + 1)^k`` between the least and the largest ``(Mx)_i/x_i``
    (Collatz-Wielandt), read every 4 steps and at the last.  ``k = 2``, an
    exact square of index multisets, if ``max_iter >= 2``, else 1.  It stops
    once the k-th roots satisfy ``hi - lo <= 1e-3 * tol * lo``, with the
    midpoint minus 1, within ``5e-4 * tol * (rho + 1)`` of the class radius.
    A class needing more than ``max_iter`` applications of ``B`` raises
    :class:`ConvergenceFailureError`.
    """
    if any(a < 0 or a != int(a) for row in A for a in row):
        raise ValueError("matrix entries must be nonnegative integers")
    rows = [[j for j, a in enumerate(row) for _ in range(int(a))] for row in A]
    return _radius(rows, tol, max_iter)


def _radius(rows: list[list[int]], tol: float, max_iter: int) -> float:
    """:func:`spectral_radius_power` on sparse rows of column indices.

    Each class iterates the square ``(A_C + I)^2``, formed once as index
    lists with repeats, rather than ``A_C + I``: half the products, each
    on longer rows, which leaves core entropy about a fifth faster on the
    benchmark's bases, with the same printed values."""
    k = 2 if max_iter >= 2 else 1
    rho = 0.0
    for C in _classes(rows):
        local = {j: c for c, j in enumerate(C)}
        B = [[local[j] for j in rows[i] if j in local] + [c] for c, i in enumerate(C)]
        if B == [[0]]:
            continue  # zero block
        if k == 2:
            B = [[j for i in row for j in B[i]] for row in B]
        # Every row has two indices or more, so each getter returns a tuple.
        steps = [itemgetter(*row) for row in B]
        x = [1.0] * len(B)
        last = max_iter // k
        for t in range(1, last + 1):
            y = [sum(step(x)) for step in steps]
            if t % 4 and t < last:
                x = y
                continue
            ratios = list(map(truediv, y, x))
            lo, hi = min(ratios) ** (1 / k), max(ratios) ** (1 / k)
            if hi - lo <= 1e-3 * tol * lo:
                break
            top = max(y)
            x = [v / top for v in y]
        else:
            raise ConvergenceFailureError(
                f"Collatz-Wielandt bracket of a {len(B)}-index class still open "
                f"after {max_iter} applications of A_C + I"
            )
        rho = max(rho, (lo + hi) / 2 - 1.0)
    return rho


def _classes(rows: list[list[int]]) -> list[list[int]]:
    """Strongly connected classes of the graph ``i -> j in rows[i]``, by
    Tarjan's algorithm without recursion from a virtual root ``n`` with an
    arc to every vertex.  A finished vertex's index rises to ``n + 1``."""
    n = len(rows)
    index, low, stack, classes = {n: 0}, {n: 0}, [n], []
    work = [(n, iter(range(n)))]
    while work:
        v, arcs = work[-1]
        for w in arcs:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                work.append((w, iter(rows[w])))
                break
            low[v] = min(low[v], index[w])
        else:
            work.pop()
            if low[v] < index[v]:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            else:
                cut = stack.index(v)
                classes.append(stack[cut:])
                index.update(dict.fromkeys(stack[cut:], n + 1))
                del stack[cut:]
    return classes[:-1]  # the virtual root's class comes last


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

    The rows, edge indices along ``T.path``, go to the certified bracket
    of :func:`spectral_radius_power`.  If that hits its iteration cap on a
    small enough matrix, exact root isolation on :func:`transition_matrix`
    decides.  A spectral radius at most 1 yields entropy 0.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    index = {e: i for i, (a, b) in enumerate(T.edges) for e in ((a, b), (b, a))}
    paths = (T.path(T.dynamics[u], T.dynamics[v]) for u, v in T.edges)
    rows = [[index[e] for e in zip(p, p[1:])] for p in paths]
    try:
        rho = _radius(rows, tol, max_iter)
    except ConvergenceFailureError:
        if len(rows) > exact_size_limit:
            raise
        rho = spectral_radius_exact(transition_matrix(T).matrix)
    return math.log(rho) if rho > 1.0 else 0.0
