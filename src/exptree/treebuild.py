"""Construction of the abstract exponential Hubbard tree.

The vertex set consists of the forward orbit of the singular point
``*nu`` under the shift together with the middle points of all triods of
orbit members: the branch points of the tree the orbit spans.
Betweenness of vertices is decided by the triod algorithm (``w`` lies on
the arc ``[u, v]`` iff the middle point of ``[u, w, v]`` is ``w``).

One step of the triod map never reads the odd member out: it shifts the
two members that share a first symbol ``s`` and replaces the third by
``nu``.  ``*nu`` starts with the star, which differs from every ``s``,
so a triple with exactly two members in sector ``s`` has the middle
point of those two with ``*nu``; a triple with three different first
symbols stops at once, with middle point ``*nu``.  Every middle point
is therefore ``*nu`` or the middle point of a star triple: a triple
inside ``V_s + {*nu}`` for one sector ``s``, the block of ``s``.

The build inserts the orbit points one by one into a tree rooted at
``*nu``, as in the construction of Bruin, Kaffl and Schleicher
(*Existence of quadratic Hubbard trees*, Fund. Math. 2009).  A point
``z`` walks down from ``*nu``: at a vertex ``v`` each child ``c`` (at
``*nu`` only those of ``z``'s sector) is tried with ``b = middle(v, c,
z)``; ``z`` passes ``c`` by when ``b`` is ``v``, descends to ``c`` when
``b`` is ``c``, and otherwise ``b`` splits the edge ``v-c`` and ``z``
hangs at ``b``; a point no child takes hangs at ``v``.  Every triple
asked is a star triple, and the edges are the pairs of a parent and a
child.  A split at a vertex already in the tree would close a cycle, so
it raises at once.  One triod map per build answers the triples on
integer ids of canonical keys, so the orbit is read off its shift table
and the vertices are sorted by words of their keys.  ``nu`` is an
asymptotic value, whose one preimage is ``*nu``: in a shift-invariant
set a vertex has a strict shift ``nu`` iff some vertex other than ``*nu``
maps to ``nu`` (the one just before ``nu`` on its orbit), so the formal
points ``S_nu`` are read off the dynamics.

Insertion trusts that the middle points are the medians of the tree it
grows.  :func:`check_tree_invariants` certifies that with checks on
each vertex and its neighbors, and no pass over triples: the dynamics is
the shift, the sectors are the branches at ``*nu``, ``nu`` is an
endpoint, every vertex off the orbit has degree at least three, and the
dynamics is locally injective at every vertex, within its block (at
``*nu`` once per sector): no neighbor's image is the vertex's image, and
the first steps from the image towards the neighbors' images are
distinct.  Then:

1. a locally injective map of a tree is injective, so ``sigma`` maps the
   subtree of each block homeomorphically onto its image;
2. so the tree's median commutes with ``sigma`` on triples of one block,
   and ``*nu``, which separates the sectors, is the median of any triple
   that spans three of them, or of two members of one sector with
   ``*nu`` when the third lies in another;
3. so the median of any triple follows the triod map's steps: its first
   symbol is the majority vote and its shift the median of the next
   state, and its itinerary is the map's vote word, the stop case and the
   cycles of states included;
4. so the tree's medians are the middle points, and ``V``, which holds
   the median of any three of its vertices, is closed under triods; a
   vertex off the orbit is a branch point, the median of three orbit
   points, so ``V`` holds nothing else.

:func:`~exptree.verify.suite_vertex_closure`, which runs every triple of
vertices through :func:`~exptree.triods.middle_point`, stays the
independent oracle of this argument.

An itinerary is built once per vertex, for the tree.  The insertion
yields the one vertex table the build reads: the ids of the vertices'
shifts are the dynamics, the sectors label the branches at ``*nu``, and
the parent-child pairs are the edges.  At every other vertex of degree
at least three, pre-singular or not, the realizing external addresses
of the vertex split the circle at infinity into gaps, one per branch,
which yields the cyclic order of the branches.  The build makes one
call, :func:`~exptree.realization._vertex_words`, for the addresses of
every vertex; :mod:`~exptree.realization` alone holds the automaton
that realizes them.  They come back as words
(:func:`~exptree.sequences._words`) and are bisected as such.

Each tree keeps one rooted table (:class:`_Rooted`): the sorted
adjacency, a depth-first preorder from the singular point, each vertex's
parent and each subtree's slice of the preorder.  The build makes it to
test that the edges form a tree and to read the branches at a vertex as
subtree slices, and hands it to the tree; :func:`check_tree_invariants`,
``path`` and the entropy's edge rows read it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import lt
from typing import Any, Callable, Iterable, Sequence

from .errors import (
    ClosureViolationError,
    GapAssignmentFailureError,
    InternalInvariantError,
    NotATreeError,
    NotExpansiveError,
)
from .partition import STAR, Itinerary, Partition, Plain, PreSingular, validate_base
from .notation import parse_address, parse_itinerary
from .realization import _check_m_max, _vertex_words
from .sequences import _frozen, _min_rotation, _words
from .triods import _TriodMap, _shift_key

__all__ = [
    "AbstractHubbardTree",
    "Vertex",
    "VertexKind",
    "build_tree",
    "check_tree_invariants",
    "omega_plus",
    "to_dot",
    "to_json",
    "tree_from_json",
    "vertex_set",
]


class VertexKind(Enum):
    SINGULAR = "singular"
    POST_SINGULAR = "postsingular"
    BRANCH_EXTRA = "branch"
    BOTH = "both"


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Vertex:
    """A vertex of the tree.  Built like
    :class:`~exptree.sequences.ExtAddress`, by its slot descriptors."""

    id: int
    itinerary: Itinerary
    kind: VertexKind

    def __init__(self, id: int, itinerary: Itinerary, kind: VertexKind) -> None:
        _set_id(self, id)
        _set_itinerary(self, itinerary)
        _set_kind(self, kind)

    def __str__(self) -> str:
        return f"{self.id}:{self.itinerary}[{self.kind.value}]"


_set_id = Vertex.id.__set__
_set_itinerary = Vertex.itinerary.__set__
_set_kind = Vertex.kind.__set__


class _Rooted:
    """A graph rooted for its walks: the sorted adjacency ``adj``, a
    depth-first preorder ``order`` from each of the ``roots`` that no
    earlier one reached, each vertex's ``parent`` (``None`` at a root),
    and each vertex's subtree as the slice ``order[pos[v]:end[v]]``."""

    __slots__ = ("adj", "order", "parent", "pos", "end")

    def __init__(self, adj: dict[int, list[int]], roots: Iterable[int]) -> None:
        parent: dict[int, int | None] = {}
        order: list[int] = []
        for root in roots:
            if root in parent:
                continue
            parent[root] = None
            stack = [root]
            while stack:
                cur = stack.pop()
                order.append(cur)
                for nxt in adj[cur]:
                    if nxt not in parent:
                        parent[nxt] = cur
                        stack.append(nxt)
        self.adj, self.order, self.parent = adj, order, parent
        self.pos = dict(zip(order, range(len(order))))
        self.end = end = dict(zip(order, range(1, len(order) + 1)))
        for v in reversed(order):
            if (p := parent[v]) is not None and end[p] < end[v]:
                end[p] = end[v]

    def branch(self, v: int, nb: int) -> list[int]:
        """The vertices of a tree reached from its vertex ``v``'s neighbor
        ``nb`` without passing through ``v``: the subtree of ``nb``, or all
        but the subtree of ``v`` when ``nb`` is ``v``'s parent."""
        order, pos, end = self.order, self.pos, self.end
        if self.parent[nb] == v:
            return order[pos[nb] : end[nb]]
        return order[: pos[v]] + order[end[v] :]


@dataclass(frozen=True)
class AbstractHubbardTree:
    """Finite tree with shift dynamics, sector labels at the singular
    point and cyclic orders at all other vertices.

    Vertex ids index ``vertices``; ``dynamics[i]`` is the image id of
    vertex ``i``; ``cyclic_order[i]`` lists the neighbors of ``i`` in
    cyclic order (``None`` exactly for the singular point, whose branch
    order is carried by the integer sector labels).

    The cached property ``_rooted`` is the tree's one rooted table
    (:class:`_Rooted`), handed in by :func:`build_tree` or made from
    ``edges`` on first use; ``path`` and the check read it.
    """

    partition: Partition
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    dynamics: tuple[int, ...]
    singular_point: int
    sectors: tuple[tuple[int, tuple[int, ...]], ...]
    cyclic_order: tuple[tuple[int, ...] | None, ...]
    notes: tuple[str, ...] = ()

    def adjacency(self) -> dict[int, list[int]]:
        return _adjacency((v.id for v in self.vertices), self.edges)

    @cached_property
    def _rooted(self) -> _Rooted:
        """The rooted table of every component, the singular point's first."""
        adj = self.adjacency()
        sing = self.singular_point
        return _Rooted(adj, (sing, *adj) if sing in adj else adj)

    def path(self, a: int, b: int) -> list[int]:
        """Vertex ids along the unique tree path from ``a`` to ``b``: up to
        the first vertex whose subtree holds ``b``, then down to ``b``."""
        table = self._rooted
        pos, end, parent = table.pos, table.end, table.parent
        for x in (a, b):
            if x not in pos:
                raise NotATreeError(f"no vertex {x}")
        up, down, at = [a], [b], pos[b]
        while not pos[up[-1]] <= at < end[up[-1]]:
            if (p := parent[up[-1]]) is None:
                raise NotATreeError(f"no path between vertices {a} and {b}")
            up.append(p)
        while down[-1] != up[-1]:
            down.append(parent[down[-1]])
        return up + down[-2::-1]

    def vertex_by_itinerary(self) -> dict[Itinerary, int]:
        return {v.itinerary: v.id for v in self.vertices}

    def sector_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.sectors)

    def __str__(self) -> str:
        return (
            f"AbstractHubbardTree(base={self.partition.base}, "
            f"|V|={len(self.vertices)}, |E|={len(self.edges)})"
        )


def _adjacency(
    ids: Iterable[int], edges: Iterable[tuple[int, int]]
) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return {k: sorted(v) for k, v in adj.items()}


def omega_plus(P: Partition) -> list[Itinerary]:
    """The forward orbit of the singular point: ``*nu`` and all shifts of
    the kneading sequence."""
    return [PreSingular(())] + [Plain(x) for x in P.kneading.seq.shifts()]


def vertex_set(P: Partition) -> list[Itinerary]:
    """The formal vertex set: the singular orbit plus all middle points
    of its triods, sorted deterministically (pre-singular first).

    The orbit is inserted into a tree one point at a time (see the module
    docstring); a split at a vertex already in the tree, a shift outside
    the result or a vertex other than ``*nu`` that maps to ``nu`` (off
    ``S_nu``) raises :class:`ClosureViolationError`.  Closure under triods
    is what :func:`build_tree` certifies when it checks the tree.
    """
    return _vertex_set(P)[0]


def _vertex_set(P: Partition) -> tuple:
    """The vertex table of ``P``, all as indices into the sorted vertex list
    ``its``: ``(its, edges, dynamics, sectors, sing, orbit)`` holds the
    sorted edges, the image of each vertex under the shift, the pairs
    ``(s, V_s)`` of each sector ``s`` and its vertices, sorted, the
    singular point and the set of vertices on its forward orbit.

    One triod map inserts the orbit into a tree rooted at ``*nu`` (see
    the module docstring), walking it through its shift table; an orbit
    point that a split already made a vertex is skipped, and ``b == z``
    splits an edge with ``z`` itself.  The vertices are sorted by words
    of their keys and checked in that order, so the first violation
    raises: each shift must be a vertex, and only ``*nu`` may map to
    ``nu``.  Closure under triods is certified by
    :func:`check_tree_invariants`.
    """
    triods = _TriodMap(P)
    keys, shift, firsts, middle = triods.keys, triods._shift, triods.firsts, triods.middle
    # The orbit *nu, nu, sigma nu, ... through the shift table.
    orbit_ids = [triods.key_id(((),)), triods.nu]
    while (v := shift(orbit_ids[-1])) not in orbit_ids:
        orbit_ids.append(v)
    star = orbit_ids[0]
    children: dict[int, list[int]] = {star: []}
    for z in orbit_ids[1:]:
        if z in children:
            continue
        v, kids, i = star, children[star], 0
        while i < len(kids):
            c = kids[i]
            # *nu separates the sectors.
            b = v if v == star and firsts[c] != firsts[z] else middle(v, c, z)
            if b == v:
                i += 1
            elif b == c:
                v, kids, i = c, children[c], 0
            else:  # b splits the edge v-c; z hangs at b unless it is b
                if b in children:
                    raise ClosureViolationError(
                        f"middle point {triods.itinerary(b)} of "
                        f"{triods._str((v, c, z))} is a vertex off the edge it splits"
                    )
                kids[i] = b
                kids = children[b] = [c]
                break
        if z not in children:
            kids.append(z)
            children[z] = []
    # Pre-singular vertices first (by prefix), then plain ones in
    # lexicographic order, as their words (:func:`~exptree.sequences._words`).
    plain = [v for v in children if len(keys[v]) == 2]
    ids = sorted((v for v in children if len(keys[v]) == 1), key=keys.__getitem__)
    ids += [v for _, v in sorted(zip(_words([keys[v] for v in plain]), plain))]
    its = [triods.itinerary(v) for v in ids]
    index = {v: i for i, v in enumerate(ids)}
    sing, nu = index[star], index[triods.nu]
    dynamics = []
    for i, (it, v) in enumerate(zip(its, ids)):
        if (d := index.get(shift(v))) is None:
            raise ClosureViolationError(f"vertex set is not shift invariant at {it}")
        if d == nu and i != sing:
            raise ClosureViolationError(f"vertex {it} is not a formal point")
        dynamics.append(d)
    groups: dict[Any, list[int]] = {}
    for i, v in enumerate(ids):
        if i != sing:
            groups.setdefault(firsts[v], []).append(i)
    sectors = tuple(sorted((s, tuple(g)) for s, g in groups.items()))
    edges = sorted(
        tuple(sorted((index[v], index[c]))) for v, kids in children.items() for c in kids
    )
    orbit = {index[v] for v in orbit_ids}
    return its, tuple(edges), dynamics, sectors, sing, orbit


def _cyclic_order_by_gaps(
    vid: int,
    branches: list[tuple[int, list[int]]],
    itineraries: Sequence[Itinerary],
    addresses: Sequence[Sequence[Any]],
    notes: list[str],
    name: Callable[[Any], str] = str,
) -> tuple[int, ...]:
    """Order the branches at vertex ``vid`` by the cyclic gaps of its
    realizing addresses.  ``branches`` holds ``(neighbor id, branch vertex
    ids)``; ``addresses[i]`` holds keys of vertex ``i``'s realizing
    addresses: the addresses themselves or any keys that order and tell
    them apart the same way, and ``name`` gives a key's address in address
    notation.  A vertex's keys must strictly increase, so each key finds
    its gap by bisection, as :func:`~exptree.sequences._gap_of` does: gap
    ``i`` lies between anchors ``i`` and ``i + 1``, and the last one wraps
    around.  A failure carries the vertex's itinerary and, where it has
    them, the branch's neighbor and the address."""
    vit = itineraries[vid]
    anchors = addresses[vid]
    q = len(anchors)
    if q < len(branches):
        raise GapAssignmentFailureError(
            f"vertex {vit}: {q} addresses for {len(branches)} branches", vertex=vit
        )
    if any(b <= a for a, b in zip(anchors, anchors[1:])):
        raise InternalInvariantError(
            f"vertex {vit}: realizing addresses are not strictly increasing"
        )
    gap_of_branch: dict[int, int] = {}
    for nb, members in branches:
        first = gap_of_branch.get(nb)
        for w in members:
            for a in addresses[w]:
                j = bisect_left(anchors, a)
                if j < q and anchors[j] == a:
                    raise GapAssignmentFailureError(
                        f"address {name(a)} of branch vertex {itineraries[w]} "
                        f"collides with an anchor address of {vit}",
                        vertex=vit, branch=nb, address=name(a),
                    )
                gap = (j - 1) % q
                if first is None:
                    first = gap
                elif gap != first:
                    raise GapAssignmentFailureError(
                        f"branch through {nb} at vertex {vit} spans gaps "
                        f"{sorted((first, gap))}: address {name(a)} of branch "
                        f"vertex {itineraries[w]} lies in gap {gap}",
                        vertex=vit, branch=nb, address=name(a),
                    )
        if first is None:
            raise GapAssignmentFailureError(
                f"branch through {nb} at vertex {vit} has no realizing address",
                vertex=vit, branch=nb,
            )
        gap_of_branch[nb] = first
    if len(set(gap_of_branch.values())) != len(branches):
        raise GapAssignmentFailureError(f"two branches at {vit} share a gap", vertex=vit)
    # A pre-singular vertex has an address on every sheet, so its count
    # says nothing about the vertex.
    if q > len(branches) and not isinstance(vit, PreSingular):
        notes.append(f"vertex {vit}: {q} realizing addresses for {len(branches)} branches")
    return tuple(sorted(gap_of_branch, key=gap_of_branch.__getitem__))


def build_tree(P: Partition, m_max: int | None = None) -> AbstractHubbardTree:
    """Construct the abstract exponential Hubbard tree over ``P``.

    ``m_max`` caps the realization multiplier; ``None`` means no cap, and
    anything but ``None`` or a positive integer raises ``ValueError``."""
    _check_m_max(m_max)
    its, edges, dynamics, sectors, sing, orbit = _vertex_set(P)
    n = len(its)
    # The edges are sorted pairs a < b, so every list comes out sorted.
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    table = _Rooted(adj, (sing,))

    # Cyclic orders: the sorted neighbors, their least rotation, except at
    # the singular point and at the other vertices of degree 3 or more.
    # There the realizing addresses of every vertex, as words, derived when
    # the first such vertex needs them, order the branches.
    cyclic: list[tuple[int, ...] | None] = [tuple(nbrs) for nbrs in adj.values()]
    cyclic[sing] = None
    notes: list[str] = []
    words = None
    for i, nbrs in enumerate(adj.values()):
        if len(nbrs) < 3 or i == sing:
            continue
        if words is None:
            words, name = _vertex_words(P, its, dynamics, sectors, sing, m_max)
        branches = [(nb, sorted(table.branch(i, nb))) for nb in nbrs]
        cyclic[i] = _min_rotation(_cyclic_order_by_gaps(i, branches, its, words, notes, name))

    tree = AbstractHubbardTree(
        partition=P,
        vertices=tuple(map(Vertex, range(n), its, _kinds(sing, orbit, adj))),
        edges=edges,
        dynamics=tuple(dynamics),
        singular_point=sing,
        sectors=sectors,
        cyclic_order=tuple(cyclic),
        notes=tuple(notes),
    )
    # What the cached property would build from these edges, stored where it would be.
    tree.__dict__["_rooted"] = table
    check_tree_invariants(tree)
    return tree


def _kinds(sing: int, orbit: set[int], adj: dict[int, list[int]]) -> list[VertexKind]:
    """The kind of every vertex of the tree with adjacency ``adj`` on ids
    ``0..n-1``: the singular point, other points of the singular orbit
    (``BOTH`` from degree 3 on), or an extra branch point."""
    kinds = [VertexKind.BRANCH_EXTRA] * len(adj)
    for i in orbit:
        kinds[i] = VertexKind.BOTH if len(adj[i]) >= 3 else VertexKind.POST_SINGULAR
    kinds[sing] = VertexKind.SINGULAR
    return kinds


def _cyclic_subsequence(sub: list, full: list) -> bool:
    """Is ``sub`` a cyclic-order-preserving subsequence of ``full``?"""
    if len(sub) <= 2:
        return True
    pos = {x: i for i, x in enumerate(full)}
    idx = [pos[x] for x in sub]
    rot = idx.index(min(idx))
    idx = idx[rot:] + idx[:rot]
    return all(map(lt, idx, idx[1:]))


def check_tree_invariants(tree: AbstractHubbardTree) -> None:
    """Verify all structural invariants of an abstract Hubbard tree.

    Raises :class:`NotATreeError`, :class:`NotExpansiveError` or
    :class:`ClosureViolationError` accordingly; a vertex whose kind
    disagrees with its place on the singular orbit and its degree is a
    closure violation.  The last checks, local injectivity at vertices of
    degree 2 and at ``*nu`` and the degree of vertices off the orbit,
    complete the certificate of closure of the module docstring, and come
    last so that every other fault raises as it would without them.
    Itineraries are compared by their keys ``(preperiod, period)`` and
    ``(prefix,)``, and the walks read the tree's rooted table.
    """
    P = tree.partition
    vertices, dyn, cyclic = tree.vertices, tree.dynamics, tree.cyclic_order
    n = len(vertices)
    if [v.id for v in vertices] != list(range(n)):
        raise NotATreeError(f"vertex ids are not 0..{n - 1}")
    if len(dyn) != n or len(cyclic) != n:
        raise NotATreeError(f"dynamics or cyclic orders do not cover {n} vertices")
    ids = set(range(n))
    for e in tree.edges:
        if not ids.issuperset(e):
            raise NotATreeError(f"edge {list(e)} names no vertex")
    sing = tree.singular_point
    if sing not in range(n):
        raise NotATreeError(f"singular point {sing} names no vertex")
    its = [v.itinerary for v in vertices]
    keys = [
        (it.seq.preperiod, it.seq.period) if isinstance(it, Plain) else (it.prefix,)
        for it in its
    ]
    # The first entry of the preperiod, else of the period or prefix; *nu's is the star.
    firsts = [(k[0] or k[-1] or STAR)[0] for k in keys]

    if len(set(keys)) != n:
        raise NotExpansiveError("two vertices share an itinerary")
    # adj is keyed by the vertex ids 0..n-1 in order, so its values line up with its.
    table = tree._rooted
    adj, order, parent, pos, end = table.adj, table.order, table.parent, table.pos, table.end
    if len(tree.edges) != n - 1 or end[sing] != n:
        raise NotATreeError("vertex/edge data is not a tree")

    if keys[sing] != ((),):
        raise ClosureViolationError("singular point does not carry the itinerary *nu")

    nu = (P.kneading.seq.preperiod, P.kneading.seq.period)
    for i, (key, d) in enumerate(zip(keys, dyn)):
        if not 0 <= d < n or keys[d] != _shift_key(key, nu):
            raise ClosureViolationError(f"dynamics at vertex {its[i]} is not the shift")

    # Endpoints lie on the orbit of the singular point; the singular value is one.
    orbit, i = set(), sing
    while i not in orbit:
        orbit.add(i)
        i = dyn[i]
    nu_id = dyn[sing]
    for i, nbrs in enumerate(adj.values()):
        if len(nbrs) == 1 and i not in orbit:
            raise ClosureViolationError(f"endpoint {its[i]} is not on the singular orbit")
    if len(adj[nu_id]) != 1:
        raise ClosureViolationError("the singular value vertex is not an endpoint")

    # Sectors = branches at the singular point = first-entry groups.
    got = {k: set(v) for k, v in tree.sectors}
    want: dict[Any, set[int]] = {}
    for i, s in enumerate(firsts):
        if i != sing:
            if s in want:
                want[s].add(i)
            else:
                want[s] = {i}
    if got != want:
        raise ClosureViolationError("sector labels disagree with first itinerary entries")
    # Each branch at the singular point, the root, is a subtree that lies
    # in one sector.  The dynamics is injective on it: two of its vertices
    # with one image would share a first symbol and a shift, so an
    # itinerary, which the check above rejects.
    for nb in adj[sing]:
        branch_firsts = set(map(firsts.__getitem__, order[pos[nb] : end[nb]]))
        if len(branch_firsts) != 1:
            raise ClosureViolationError(
                f"branch at the singular point mixes sectors {sorted(branch_firsts)}"
            )

    # Cyclic order bookkeeping and preservation under the dynamics.
    for i, (c, nbrs) in enumerate(zip(cyclic, adj.values())):
        if i == sing:
            if c is not None:
                raise ClosureViolationError("singular point must not carry a cyclic order")
        elif c is None or sorted(c) != nbrs:
            raise ClosureViolationError(f"cyclic order at vertex {its[i]} is inconsistent")

    def first_steps(i: int, nbrs: Iterable[int]) -> list[int]:
        """The first step of the path from the image of vertex ``i`` to
        the image of each neighbor in ``nbrs``: the child of the image
        whose subtree holds it, else the image's parent.  A neighbor that
        shares ``i``'s image, or two that share a first step, raise."""
        image, steps = dyn[i], []
        for nb in nbrs:
            w = dyn[nb]
            if w == image:
                raise ClosureViolationError(
                    f"neighbor {its[nb]} collapses onto the image of {its[i]}"
                )
            if pos[image] < pos[w] < end[image]:
                while parent[w] != image:
                    w = parent[w]
            else:
                w = parent[image]
            steps.append(w)
        if len(set(steps)) != len(steps):
            raise ClosureViolationError(f"dynamics folds branches at {its[i]}")
        return steps

    for i, nbrs in enumerate(adj.values()):
        if len(nbrs) < 3 or i == sing:
            continue
        image = dyn[i]
        branch_images = first_steps(i, cyclic[i])
        if image == sing:
            branch_firsts = [firsts[w] for w in branch_images]
            ok = _cyclic_subsequence(branch_firsts, sorted(set(branch_firsts)))
        else:
            ok = _cyclic_subsequence(branch_images, list(cyclic[image]))
        if not ok:
            raise ClosureViolationError(
                f"dynamics does not preserve the cyclic order at {its[i]}"
            )

    for v, kind in zip(vertices, _kinds(sing, orbit, adj)):
        if v.kind != kind:
            raise ClosureViolationError(
                f"vertex {v.itinerary} has the wrong kind {v.kind.value}"
            )

    # The certificate of closure (module docstring): the dynamics is also
    # locally injective at vertices of degree 2 and at *nu within each
    # sector, and every vertex off the singular orbit is a branch point.
    for i, nbrs in enumerate(adj.values()):
        if i == sing:
            for s in sorted(got):
                first_steps(i, [nb for nb in nbrs if firsts[nb] == s])
        elif len(nbrs) == 2:
            first_steps(i, nbrs)
    for i, nbrs in enumerate(adj.values()):
        if len(nbrs) < 3 and i not in orbit:
            raise ClosureViolationError(
                f"vertex {its[i]} off the singular orbit has degree {len(nbrs)}"
            )


def to_json(tree: AbstractHubbardTree, indent: int | None = None) -> str:
    """Serialize per the library's stable JSON schema.

    The compact text is written directly: every value is an integer, one
    of the kind names or an address or itinerary over ``-0-9,()*``, so
    nothing needs escaping.  ``indent`` lays that text out as ``json`` does.
    """
    if indent is not None:
        return json.dumps(json.loads(to_json(tree)), indent=indent)
    P = tree.partition
    vertices = ", ".join(
        f'{{"id": {v.id}, "itinerary": "{v.itinerary}", "kind": "{v.kind.value}"}}'
        for v in tree.vertices
    )
    edges = ", ".join(f"[{a}, {b}]" for a, b in tree.edges)
    dynamics = ", ".join(f'"{i}": {img}' for i, img in enumerate(tree.dynamics))
    sectors = ", ".join(f'"{k}": [{", ".join(map(str, ids))}]' for k, ids in tree.sectors)
    orders = ", ".join(
        f'"{i}": [{", ".join(map(str, order))}]'
        for i, order in enumerate(tree.cyclic_order)
        if order is not None
    )
    return (
        f'{{"base": "{P.base}", "kneading": "{P.kneading}", "vertices": [{vertices}], '
        f'"edges": [{edges}], "dynamics": {{{dynamics}}}, '
        f'"singular_point": {tree.singular_point}, "sectors": {{{sectors}}}, '
        f'"cyclic_order": {{{orders}}}}}'
    )


def _json_path(parent: str, key: str | int) -> str:
    """The path of field ``key`` of the field at ``parent``."""
    return f"{parent}[{key}]" if isinstance(key, int) else f"{parent}.{key}".lstrip(".")


def _json_field(obj: Any, key: str | int, parent: str = "", kind: type = object) -> Any:
    """``obj[key]``; a missing field, or one that is not a ``kind``, raises
    :class:`NotATreeError` that names it by its path in the document.  A
    JSON ``true`` or ``false`` is not an ``int``."""
    path = _json_path(parent, key)
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise NotATreeError(f"tree JSON has no field {path}") from None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise NotATreeError(f"tree JSON field {path} is not of type {kind.__name__}")
    return value


def _json_ids(obj: Any, key: str | int, parent: str = "") -> tuple[int, ...]:
    """The list of integers ``obj[key]``, each checked as :func:`_json_field`
    checks a field."""
    items = _json_field(obj, key, parent, list)
    path = _json_path(parent, key)
    return tuple(_json_field(items, i, path, int) for i in range(len(items)))


def _json_edge(edges: list, i: int) -> tuple[int, int]:
    """The ``i``-th edge, as a sorted pair of vertex ids."""
    pair = _json_ids(edges, i, "edges")
    if len(pair) != 2:
        raise NotATreeError(f"tree JSON field edges[{i}] is not a pair")
    return min(pair), max(pair)


def _json_id(key: str, parent: str) -> int:
    """The integer that the object key ``key`` of field ``parent`` names."""
    try:
        return int(key)
    except ValueError:
        raise NotATreeError(f"tree JSON key {parent}.{key} is not an integer") from None


def _json_vertex(v: Any, path: str) -> Vertex:
    """The vertex stored at ``path``, with its kind checked."""
    kind = _json_field(v, "kind", path)
    try:
        kind = VertexKind(kind)
    except ValueError:
        raise NotATreeError(
            f"tree JSON field {path}.kind has unknown value {kind!r}"
        ) from None
    itin = parse_itinerary(_json_field(v, "itinerary", path, str))
    return Vertex(_json_field(v, "id", path, int), itin, kind)


def tree_from_json(text: str) -> AbstractHubbardTree:
    """Rebuild a tree from its JSON form (used by round-trip checks).

    A missing or mistyped field or value inside a field, an object key
    that is not an integer, an edge that is not a pair and an unknown
    vertex kind raise :class:`NotATreeError` naming the field.
    """
    doc = json.loads(text)
    P = validate_base(parse_address(_json_field(doc, "base", kind=str)))
    if str(P.kneading) != _json_field(doc, "kneading", kind=str):
        raise ClosureViolationError(
            f"stored kneading {doc['kneading']} disagrees with the base {doc['base']}"
        )
    vertices = tuple(
        sorted(
            (
                _json_vertex(v, f"vertices[{i}]")
                for i, v in enumerate(_json_field(doc, "vertices", kind=list))
            ),
            key=lambda v: v.id,
        )
    )
    n = len(vertices)
    cyclic: list[tuple[int, ...] | None] = [None] * n
    orders = _json_field(doc, "cyclic_order", kind=dict)
    for k in orders:
        i = _json_id(k, "cyclic_order")
        if i not in range(n):
            raise NotATreeError(f"cyclic order of {k} names no vertex")
        cyclic[i] = _json_ids(orders, k, "cyclic_order")
    dynamics, edges = _json_field(doc, "dynamics"), _json_field(doc, "edges", kind=list)
    sectors = _json_field(doc, "sectors", kind=dict)
    return AbstractHubbardTree(
        partition=P,
        vertices=vertices,
        edges=tuple(sorted(_json_edge(edges, i) for i in range(len(edges)))),
        dynamics=tuple(_json_field(dynamics, str(i), "dynamics", int) for i in range(n)),
        singular_point=_json_field(doc, "singular_point", kind=int),
        sectors=tuple(
            sorted(
                (_json_id(k, "sectors"), tuple(sorted(_json_ids(sectors, k, "sectors"))))
                for k in sectors
            )
        ),
        cyclic_order=tuple(cyclic),
    )


def to_dot(tree: AbstractHubbardTree) -> str:
    """GraphViz form: undirected tree edges plus a dashed overlay showing
    the vertex dynamics."""
    lines = ["digraph hubbard_tree {"]
    for v in tree.vertices:
        shape = "doublecircle" if v.id == tree.singular_point else "circle"
        lines.append(f'  {v.id} [label="{v.itinerary}", shape={shape}];')
    for a, b in tree.edges:
        lines.append(f"  {a} -> {b} [dir=none];")
    for i, img in enumerate(tree.dynamics):
        lines.append(f"  {i} -> {img} [style=dashed, constraint=false, color=gray];")
    lines.append("}")
    return "\n".join(lines) + "\n"
