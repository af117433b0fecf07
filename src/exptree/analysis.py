"""Derived invariants and decision procedures on abstract Hubbard trees.

Trees are compared through itinerary-keyed canonical forms: itineraries
are intrinsic labels (recomputable from sector data and the dynamics),
so structural equality of the keyed data decides equivalence.  The core
entropy is the logarithm of the spectral radius of the edge transition
matrix of the tree self-map; edge images are arcs, so each matrix row
marks the edges of one tree path, read by climbing the tree's rooted
table with the index of each vertex's edge to its parent.

The spectral radius is the largest over the strongly connected classes
of the matrix's graph (on a reducible matrix the whole-matrix bracket
need not close), found by Kosaraju's two searches; each class radius is
certified by the Collatz-Wielandt bracket of power iteration on
``(A_C + I)^2``, in pure Python on sparse integer rows, closed to
relative width ``1e-3 * tol``.  ``spectral_radius_exact``, exact integer
bisection on the signs of leading principal minors, is the reference;
the same exact test decides a printed decimal of the entropy whose
rounding boundary lies inside the bracket.  Only ``transition_matrix``,
which returns an ndarray, imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from operator import itemgetter, mul, truediv
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ConvergenceFailureError,
    NotATreeError,
    NotExpansiveError,
    PeriodicBaseError,
)
from .partition import STAR, Plain, itinerary, validate_base
from .sequences import ExtAddress, _min_rotation, _words
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


def expansivity_report(T: AbstractHubbardTree) -> ExpansivityReport:
    """Separation depths for all marked-point pairs of the tree: the first
    place where their words (:func:`~exptree.sequences._words`) differ; a
    pre-singular word is the prefix, the star, then the kneading sequence.
    Raises :class:`NotExpansiveError` if some pair of vertices never
    separates, which cannot happen for built trees but is checked for
    externally supplied ones.
    """
    nu = T.partition.kneading.seq
    its = [v.itinerary for v in T.vertices]
    words = _words([
        (it.seq.preperiod, it.seq.period) if isinstance(it, Plain)
        else (it.prefix + (STAR,) + nu.preperiod, nu.period)
        for it in its
    ])
    depths: dict[tuple[int, int], int] = {}
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            n = next((n for n, (x, y) in enumerate(zip(a, words[j])) if x != y), None)
            if n is None:
                raise NotExpansiveError(
                    f"vertices {its[i]} and {its[j]} have identical itineraries"
                )
            depths[(i, j)] = n
    return ExpansivityReport(depths, max(depths.values(), default=0))


@dataclass(frozen=True)
class TransitionMatrix:
    """Edge transition matrix: entry ``(e, f)`` is 1 iff the image arc of
    edge ``e`` covers edge ``f``."""

    matrix: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def row_map(self) -> dict[tuple[int, int], set[tuple[int, int]]]:
        """Edge-to-covered-edges view, independent of row order."""
        edges = self.edges
        return {e: {f for f, a in zip(edges, row) if a} for e, row in zip(edges, self.matrix)}


def _edge_rows(T: AbstractHubbardTree) -> list[list[int]]:
    """Row ``i``: the edges on the path between the images of edge ``i``'s ends.

    The rows climb the rooted table as ``T.path`` does, taking at each
    vertex the index of its edge to its parent (the last such edge listed),
    and raise what ``path`` raises on a forest or an unknown vertex."""
    table = T._rooted
    pos, end, parent = table.pos, table.end, table.parent
    up: dict[int, int] = {}  # vertex -> index of its edge to its parent
    for i, (a, b) in enumerate(T.edges):
        if parent[a] == b:
            up[a] = i
        elif parent[b] == a:
            up[b] = i
    dyn, rows = T.dynamics, []
    for u, v in T.edges:
        a, b = dyn[u], dyn[v]
        if a not in pos or b not in pos:
            raise NotATreeError(f"no vertex {a if a not in pos else b}")
        row, x, at = [], a, pos[b]
        while not pos[x] <= at < end[x]:
            if (p := parent[x]) is None:
                raise NotATreeError(f"no path between vertices {a} and {b}")
            row.append(up[x])
            x = p
        down = []
        while b != x:
            down.append(up[b])
            b = parent[b]
        row += reversed(down)
        rows.append(row)
    return rows


def transition_matrix(T: AbstractHubbardTree) -> TransitionMatrix:
    """Markov matrix of the tree self-map over the edges.

    The image of an edge ``(u, v)`` is the tree path from the image of
    ``u`` to the image of ``v``; the row of ``(u, v)`` marks every edge
    on that path.
    """
    import numpy as np

    rows = _edge_rows(T)
    mat = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for i, row in enumerate(rows):
        mat[i, row] = 1
    return TransitionMatrix(mat, T.edges)


def _integer_rows(A: np.ndarray | Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of ``A`` as lists of ints; ``ValueError`` unless ``A`` is
    square rows of nonnegative integers (no NaN, infinity or non-number)."""
    try:
        if all(len(row) == len(A) and all(a >= 0 and a == int(a) for a in row) for row in A):
            return [[int(a) for a in row] for row in A]
    except (OverflowError, TypeError):
        pass
    raise ValueError("matrix must be square and its entries nonnegative integers")


_INDEX_BUDGET = 1 << 24  # the most indices spectral_radius_power expands
# The entropy's stops: the most applications of A_C + I per class, and the
# most rows that spectral_radius_exact decides once they run out.
_MAX_ITER, _EXACT_SIZE_LIMIT = 200_000, 12


def _check_stops(tol: float, max_iter: int) -> None:
    """``ValueError`` unless ``tol > 0`` and ``max_iter`` is a positive integer (no bool)."""
    if not tol > 0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    if type(max_iter) is bool or not (isinstance(max_iter, Integral) and max_iter > 0):
        raise ValueError("max_iter must be a positive integer")


def _check_size_limit(exact_size_limit: int) -> None:
    """``ValueError`` unless ``exact_size_limit`` is a non-negative integer (no bool)."""
    if type(exact_size_limit) is bool or not (
        isinstance(exact_size_limit, Integral) and exact_size_limit >= 0
    ):
        raise ValueError(
            f"exact_size_limit must be a non-negative integer, got {exact_size_limit!r}"
        )


def spectral_radius_power(
    A: np.ndarray | Sequence[Sequence[int]],
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> float:
    """Spectral radius of a nonnegative integer matrix, certified per class.

    ``A`` (an ndarray or square rows; other input raises ``ValueError``) becomes
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
    :class:`ConvergenceFailureError`.  ``ValueError`` is raised for a ``tol``
    not above 0, a ``max_iter`` that is not a positive integer (or a ``bool``),
    and entries so large that ``A + I`` and ``(A + I)^2`` hold over ``2^24``
    indices.  That budget still allows about 390 MB of peak memory (``[[4000]]``,
    16.0M indices, 383 MB on CPython 3.11): use :func:`spectral_radius_exact`
    for large entries.
    """
    _check_stops(tol, max_iter)
    A = _integer_rows(A)
    lengths = [sum(row) + 1 for row in A]  # of the rows of A + I
    size = sum(lengths) + sum(sum(map(mul, row, lengths)) + n for row, n in zip(A, lengths))
    if size > _INDEX_BUDGET:
        raise ValueError(
            f"power iteration would expand {size} indices; use spectral_radius_exact"
        )
    rows = [[j for j, a in enumerate(row) for _ in range(a)] for row in A]
    return _radius(rows, tol, max_iter)[0]


def _radius(rows: list[list[int]], tol: float, max_iter: int) -> tuple[float, float, float]:
    """:func:`spectral_radius_power` on sparse rows of column indices, with
    a bracket ``(rho, lo, hi)``, ``lo <= rho(A) <= hi``: each class's
    Collatz-Wielandt bounds, widened by the rounding of the sums behind them.

    Each class iterates the square ``(A_C + I)^2``, formed once as index
    lists with repeats, rather than ``A_C + I``: half the products, each
    on longer rows, which leaves core entropy about a fifth faster on the
    benchmark's bases, with the same printed values.  The usual single
    class of every row needs no relabelling."""
    k = 2 if max_iter >= 2 else 1
    rho = low = high = 0.0
    for C in _classes(rows):
        if len(C) == len(rows):
            B = [row + [i] for i, row in enumerate(rows)]
        else:
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
        # A sum of m floats is off by at most (m - 1) units of its last place.
        slack = (max(map(len, B)) + 8) * 2.0**-52
        low, high = max(low, lo * (1 - slack) - 1.0), max(high, hi * (1 + slack) - 1.0)
    return rho, low, high


def _classes(rows: list[list[int]]) -> list[list[int]]:
    """Strongly connected classes of the graph ``i -> j in rows[i]``, each
    sorted, by Kosaraju's two passes without recursion: the vertices in
    the order the search of the graph finishes them, then the classes as
    the trees of a search of the reversed graph in the reverse of that
    order."""
    n = len(rows)
    seen, finished = [False] * n, []
    work = [(n, iter(range(n)))]  # a virtual root with an arc to every vertex
    while work:
        v, arcs = work[-1]
        for w in arcs:
            if not seen[w]:
                seen[w] = True
                work.append((w, iter(rows[w])))
                break
        else:
            work.pop()
            finished.append(v)
    finished.pop()  # the virtual root
    back: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            back[j].append(i)
    classes = []
    for s in reversed(finished):  # seen[v] now means "not yet in a class"
        if not seen[s]:
            continue
        seen[s] = False
        C, stack = [s], [s]
        while stack:
            for w in back[stack.pop()]:
                if seen[w]:
                    seen[w] = False
                    C.append(w)
                    stack.append(w)
        classes.append(sorted(C))
    return classes


def _above(A: list[list[int]], p: int) -> bool:
    """Is every leading principal minor of ``pI - A`` positive?  For ``A >= 0``
    that holds iff ``p > rho(A)``: ``pI - A`` is then a nonsingular M-matrix
    (Fiedler & Ptak 1962; Berman & Plemmons, ch. 6).  The minors' signs are
    those of the fraction-free (Bareiss) pivots."""
    M, prev = [[p * (i == j) - a for j, a in enumerate(row)] for i, row in enumerate(A)], 1
    while M:  # Bareiss: eliminate the first row and column, pivot d
        (d, *top), *M = M
        if d <= 0:
            return False
        M, prev = [[(d * a - r[0] * b) // prev for a, b in zip(r[1:], top)] for r in M], d
    return True


def spectral_radius_exact(A: np.ndarray | Sequence[Sequence[int]]) -> float:
    """Spectral radius of a nonnegative integer matrix ``A``, as for
    :func:`spectral_radius_power`, by exact integer bisection.  For ``A >= 0``,
    reducible or not, ``x > rho(A)`` iff every leading principal minor of
    ``xI - A`` is positive (:func:`_above`); at ``x = p/2^64``, iff those of
    ``pI - 2^64 A`` are.  A nonzero radius lies in ``[1, R]``, ``R`` the
    largest row sum, so it is 0 if ``x = 1/2`` passes; else ``p`` is bisected
    over ``[2^63, (R + 1) 2^64]`` to width 1 and the midpoint rounded."""
    A = [[a << 64 for a in row] for row in _integer_rows(A)]
    lo, hi = 1 << 63, max(map(sum, A), default=0) + (1 << 64)
    if _above(A, lo):
        return 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _above(A, mid) else (mid, hi)
    return (lo + hi) / (1 << 65)


def _dense(rows: list[list[int]]) -> list[list[int]]:
    """The 0/1 matrix of edge rows."""
    return [[int(j in r) for j in range(len(rows))] for r in rows]


def _bracket(
    rows: list[list[int]], tol: float, max_iter: int, exact_size_limit: int
) -> tuple[float, float, float]:
    """``(rho, lo, hi)`` as :func:`_radius` gives it; if that hits its
    iteration cap on at most ``exact_size_limit`` rows,
    :func:`spectral_radius_exact` on the same rows, made dense, decides."""
    try:
        return _radius(rows, tol, max_iter)
    except ConvergenceFailureError:
        if len(rows) > exact_size_limit:
            raise
        rho = spectral_radius_exact(_dense(rows))
        return rho, rho * (1 - 2.0**-50), rho * (1 + 2.0**-50)


def core_entropy(
    T: AbstractHubbardTree,
    tol: float = 1e-9,
    max_iter: int = _MAX_ITER,
    exact_size_limit: int = _EXACT_SIZE_LIMIT,
) -> float:
    """Core entropy: log of the spectral radius of the transition matrix.

    The rows, edge indices along the tree's paths, go to the certified
    bracket of :func:`spectral_radius_power`.  If that hits its iteration
    cap on a small enough matrix, :func:`spectral_radius_exact` on the same
    rows, made dense, decides.  A spectral radius at most 1 yields entropy 0.
    The last bits depend on the interpreter, as CPython compensates
    :func:`sum` of floats from 3.12 on: compare ``repr`` on one interpreter
    only.  The decimals that ``exptree entropy`` prints do not change.
    A ``tol`` not above 0, a ``max_iter`` that is not a positive integer
    or an ``exact_size_limit`` that is not a non-negative integer (a
    ``bool`` is neither) raises ``ValueError``.
    """
    _check_stops(tol, max_iter)
    _check_size_limit(exact_size_limit)
    rho = _bracket(_edge_rows(T), tol, max_iter, exact_size_limit)[0]
    return math.log(rho) if rho > 1.0 else 0.0


def _entropy_digits(T: AbstractHubbardTree, tol: float = 1e-9) -> tuple[float, float, str]:
    """A bracket ``(lo, hi)`` of :func:`core_entropy` (at its defaults but
    ``tol``) and the entropy's decimals, rounded to at most 9 places, each
    one decided.

    The places are the most for which the bracket holds at most one
    rounding boundary ``b``; the entropy rounds down below ``b`` and up
    above it.  If ``b`` is in the bracket, :func:`_exceeds` decides the
    side.  At 0 places every boundary in the bracket is decided so."""
    rows = _edge_rows(T)
    _, rho_lo, rho_hi = _bracket(rows, tol, _MAX_ITER, _EXACT_SIZE_LIMIT)
    # The margin covers log's rounding and that of the products below.
    lo = math.log(rho_lo) - 1e-13 if rho_lo > 1.0 else 0.0
    hi = math.log(rho_hi) + 1e-13 if rho_hi > 1.0 else 0.0
    for d in range(9, -1, -1):
        # Boundary j is (j + 1/2) / 10^d: the entropy rounds to j / 10^d
        # below it and to (j + 1) / 10^d above it.
        bounds = range(math.ceil(lo * 10**d - 0.5), math.floor(hi * 10**d - 0.5) + 1)
        if len(bounds) < 2 or d == 0:
            break
    k = bounds.stop
    for j in bounds:
        if not _exceeds(_dense(rows), j, d):
            k = j
            break
    return lo, hi, f"{k // 10**d}.{k % 10**d:0{d}d}" if d else str(k)


def _exceeds(A: list[list[int]], j: int, d: int) -> bool:
    """Is ``log rho(A)`` above the rounding boundary ``b = (j + 1/2) / 10^d``,
    ``j >= 0``?  ``e^b``, correctly rounded by :mod:`decimal`, is put
    strictly between ``p/2^s`` and ``q/2^s``, and :func:`_above` is run at
    both ends, ``s`` doubling until one decides.  ``rho(A)`` is algebraic
    and ``e^b`` transcendental for rational ``b`` (Lindemann-Weierstrass),
    so the two differ and the loop ends."""
    from decimal import Context, Decimal
    from fractions import Fraction

    b, s = Decimal(10 * j + 5).scaleb(-d - 1), 64
    while True:
        prec = s // 3 + 8  # 10^-prec is below 2^-s
        e, err = Fraction(Context(prec=prec).exp(b)), Fraction(1, 10 ** (prec - 1))
        p = math.floor(e * (1 - err) * 2**s)
        q = math.ceil(e * (1 + err) * 2**s)
        scaled = [[a << s for a in row] for row in A]
        if _above(scaled, p):
            return False
        if not _above(scaled, q):
            return True
        s *= 2
