"""Construction of the abstract exponential Hubbard tree.

The vertex set consists of the forward orbit of the singular point
``*nu`` under the shift together with the middle points of all triods of
orbit members.  Betweenness of vertices is decided by the triod
algorithm (``w`` lies on the arc ``[u, v]`` iff the middle point of
``[u, w, v]`` is ``w``).

One step of the triod map never reads the odd member out: it shifts the
two members that share a first symbol ``s`` and replaces the third by
``nu``.  ``*nu`` starts with the star, which differs from every ``s``,
so a triple with exactly two members in sector ``s`` has the middle
point of those two with ``*nu``; a triple with three different first
symbols stops at once, with middle point ``*nu``.  Every middle point
is therefore ``*nu`` or the middle point of a star triple: a triple
inside ``V_s + {*nu}`` for one sector ``s``.  Hence the star triples of
the orbit give the whole vertex set, closure on the vertices' star
triples is closure on all their triples, and betweenness is read from
the star triples' middle points plus one rule: ``*nu`` separates any
two vertices of different sectors.  No vertex of another sector lies
between ``*nu`` or a vertex of sector ``s`` and a vertex of sector
``s``: that triple stops at ``*nu`` or has the middle point of a star
triple of sector ``s``, which starts with ``s``.

One triod map per build walks the star triples of the orbit and then
those of the vertex set.  It keeps middle points as integer ids, so the
closure pass compares ids: it builds an itinerary only when a walk
closes a new cycle of states or meets a middle point not seen before,
and the latter is a closure violation.  That pass yields the one vertex
table the build reads: the ids of the vertices' shifts are the dynamics,
the sectors label the branches at ``*nu``, and the edges are the pairs
inside one ``V_s + {*nu}`` with nothing in between.  At every other
vertex of degree at least three, pre-singular or not, the realizing
external addresses of the vertex split the circle at infinity into gaps,
one per branch, which yields the cyclic order of the branches.  All of
them are realized on one position automaton per build: the periodic
cycles from its cycles, one per cycle, ``*nu`` from the sheets, and
every other vertex from its image's by table lookups.  They are bisected
as tuples of their first entries, all of one length at which tuple order
is the lexicographic order of the addresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Iterable, Sequence

from .errors import (
    ClosureViolationError,
    GapAssignmentFailureError,
    InternalInvariantError,
    NotATreeError,
    NotExpansiveError,
)
from .partition import (
    Itinerary,
    Partition,
    Plain,
    PreSingular,
    is_in_S_nu,
    shift_itinerary,
    validate_base,
)
from .notation import parse_address, parse_itinerary
from .realization import _Positions, _Realization, _vertex_sheets
from .sequences import _gap_of, _min_rotation, _word, _word_length, canonicalize
from .triods import _TriodMap

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


@dataclass(frozen=True, slots=True)
class Vertex:
    id: int
    itinerary: Itinerary
    kind: VertexKind

    def __str__(self) -> str:
        return f"{self.id}:{self.itinerary}[{self.kind.value}]"


@dataclass(frozen=True)
class AbstractHubbardTree:
    """Finite tree with shift dynamics, sector labels at the singular
    point and cyclic orders at all other vertices.

    Vertex ids index ``vertices``; ``dynamics[i]`` is the image id of
    vertex ``i``; ``cyclic_order[i]`` lists the neighbors of ``i`` in
    cyclic order (``None`` exactly for the singular point, whose branch
    order is carried by the integer sector labels).
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
    def _parents(self) -> dict[int, int | None]:
        """Parent pointers of a search forest, one root (parent ``None``)
        per connected component."""
        adj = self.adjacency()
        parent: dict[int, int | None] = {}
        for root in adj:
            if root not in parent:
                parent.update(_walk(adj, root))
        return parent

    def path(self, a: int, b: int) -> list[int]:
        """Vertex ids along the unique tree path from ``a`` to ``b``."""
        for x in (a, b):
            if x not in self._parents:
                raise NotATreeError(f"no vertex {x}")
        up, down = [a], [b]
        for chain in (up, down):
            while (p := self._parents[chain[-1]]) is not None:
                chain.append(p)
        if up[-1] != down[-1]:
            raise NotATreeError(f"no path between vertices {a} and {b}")
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
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


def _sort_itineraries(items: list[Itinerary]) -> list[Itinerary]:
    """Deterministic vertex order: pre-singular first (by prefix), then
    plain itineraries lexicographically, as words of one length that
    orders them (:func:`~exptree.sequences._word_length`)."""
    seqs = [it.seq for it in items if isinstance(it, Plain)]
    L = _word_length(
        max((len(a.preperiod) for a in seqs), default=0), (len(a.period) for a in seqs)
    )
    return sorted(
        items,
        key=lambda it: (
            (1, _word(it.seq, L)) if isinstance(it, Plain) else (0, it.prefix)
        ),
    )


def vertex_set(P: Partition) -> list[Itinerary]:
    """The formal vertex set: the singular orbit plus all middle points
    of its triods, sorted deterministically (pre-singular first).

    Verifies closure under the shift and under taking triods of the full
    result; failures raise :class:`ClosureViolationError`.  Only the star
    triples (see the module docstring) are walked: every other triple's
    middle point is ``*nu`` or the middle point of a star triple.
    """
    return _vertex_set(P)[0]


def _sectors(
    ids: Iterable[int], firsts: Sequence[Any], star: int
) -> tuple[tuple[Any, tuple[int, ...]], ...]:
    """The sets ``V_s`` by sector ``s``: ``V_s`` holds the ``ids`` other
    than ``star`` whose first symbol ``firsts[i]`` is ``s``."""
    groups: dict[Any, list[int]] = {}
    for i in ids:
        if i != star:
            groups.setdefault(firsts[i], []).append(i)
    return tuple(sorted((s, tuple(g)) for s, g in groups.items()))


def _star_tuples(
    sectors: Iterable[tuple[Any, tuple[int, ...]]], star: int, r: int
) -> Iterable[tuple[int, ...]]:
    """Every sorted ``r``-tuple inside ``V_s + {star}`` for one sector ``s``."""
    for _, members in sectors:
        yield from combinations(sorted(members + (star,)), r)


def _vertex_set(P: Partition) -> tuple:
    """The vertex table of ``P``, all as indices into the sorted vertex list
    ``its``: ``(its, middles, dynamics, sectors, sing, orbit)`` holds the
    middle point of every star triple ``i < j < k``, the image of each
    vertex under the shift, the sets ``V_s`` (:func:`_sectors`), the
    singular point and the set of vertices on its forward orbit.

    One triod map serves the orbit's star triples and the closure pass
    over the vertices' star triples, so the states solved for the orbit
    are looked up, not solved again.  The orbit holds ``*nu``, so its
    star triples have the same middle points as all its triples; a
    triple outside the star triples has middle point ``*nu`` or that of
    a star triple, so closure on the star triples is closure on all.
    Checks closure under the shift and under triods.
    """
    triods = _TriodMap(P)
    orbit_ids = [triods.id(it) for it in omega_plus(P)]
    star = orbit_ids[0]
    vids = set(orbit_ids)
    orbit_sectors = _sectors(orbit_ids, triods.firsts, star)
    vids.update(triods.middle(*tri) for tri in _star_tuples(orbit_sectors, star, 3))
    its = _sort_itineraries([triods.its[v] for v in vids])
    ids = [triods.id(it) for it in its]
    index = {v: i for i, v in enumerate(ids)}
    for it, v in zip(its, ids):
        if not is_in_S_nu(P, it):
            raise ClosureViolationError(f"vertex {it} is not a formal point")
        if triods._shift(v) not in index:
            raise ClosureViolationError(f"vertex set is not shift invariant at {it}")
    dynamics = [index[triods.shifts[v]] for v in ids]
    firsts = [triods.firsts[v] for v in ids]
    sing = index[star]
    sectors = _sectors(range(len(its)), firsts, sing)
    middles: dict[tuple[int, ...], int] = {}
    for tri in _star_tuples(sectors, sing, 3):
        m = triods.middle(*(ids[i] for i in tri))
        b = middles[tri] = index.get(m, -1)
        if b < 0:
            msg = (
                f"vertex set not closed under triods: "
                f"b{tuple(its[i] for i in tri)} = {triods.its[m]}"
            )
            if sing in tri:
                i, j = (x for x in tri if x != sing)
                msg += (
                    f"; {its[i]} and {its[j]} share sector {firsts[i]}, so this "
                    f"holds with every third vertex outside sector {firsts[i]}"
                )
            raise ClosureViolationError(msg)
    orbit = {index[v] for v in orbit_ids}
    return its, middles, dynamics, sectors, sing, orbit


def _vertex_families(
    P: Partition, its: Sequence[Itinerary], dynamics: Sequence[int], m_max: int | None
) -> list[list[_Realization]]:
    """The realizing addresses of every vertex, unsorted, all realized on
    one position automaton of ``P`` (:class:`~exptree.realization._Positions`).
    The first vertex of each periodic cycle (its least rotation) takes the
    points of the automaton's cycles for its period word, and ``*nu`` the
    sheets of :func:`_vertex_sheets`, each located once.  Every other
    vertex takes its image's family pulled back by its first symbol, by
    table lookups, walking along the dynamics to a cycle or to ``*nu``; an
    address at the base's position is the base, and is dropped."""
    automaton = _Positions(P)
    sheets = _vertex_sheets(P, its)
    star = its.index(PreSingular(()))
    fams: list[list[_Realization] | None] = [None] * len(its)
    # Periodic vertices first: a walk then closes each cycle at its least rotation.
    periodic = [isinstance(it, Plain) and not it.seq.preperiod for it in its]
    for v in sorted(range(len(its)), key=lambda v: not periodic[v]):
        chain = []
        while fams[v] is None and v not in chain and v != star:
            chain.append(v)
            v = dynamics[v]
        if fams[v] is None:
            if v == star:
                fams[v] = automaton.sheets(sheets)
            else:
                fams[v] = automaton.cycles(its[v].seq.period, m_max)
        for w in reversed(chain):
            if fams[w] is None:
                fams[w] = automaton.pull(its[w].first_symbol(), fams[dynamics[w]])
    return fams


def _family_words(
    P: Partition, its: Sequence[Itinerary], dynamics: Sequence[int], m_max: int | None
) -> tuple[list[tuple[tuple[int, ...], ...]], Callable[[tuple[int, ...]], str]]:
    """Every vertex's realizing addresses (:func:`_vertex_families`) as the
    sorted words of their first entries, at one length that orders them
    (:func:`~exptree.sequences._word_length`), and a function that names
    the address of a word, for error messages."""
    fams = _vertex_families(P, its, dynamics, m_max)
    addrs = [a for f in fams for a in f]
    L = _word_length(
        max(len(a.preperiod) for a in addrs), (len(a.period) for a in addrs)
    )

    def name(word: tuple[int, ...]) -> str:
        a = next(a for a in addrs if _word(a, L) == word)
        return str(canonicalize(a.preperiod, a.period))

    return [tuple(sorted(_word(a, L) for a in f)) for f in fams], name


def _cyclic_order_by_gaps(
    vid: int,
    vit: Itinerary,
    branches: list[tuple[int, list[int]]],
    itineraries: Sequence[Itinerary],
    addresses: Callable[[int], Sequence[Any]],
    notes: list[str],
    name: Callable[[Any], str] = str,
) -> tuple[int, ...]:
    """Order the branches at a vertex by the cyclic gaps of its realizing
    addresses.  ``branches`` holds ``(neighbor id, branch vertex ids)``;
    ``addresses`` maps a vertex id to keys of its realizing addresses:
    the addresses themselves or any keys that order and tell them apart
    the same way, and ``name`` gives a key's address in address notation.
    A vertex's keys must strictly increase, so each key finds its gap by
    bisection."""
    anchors = addresses(vid)
    if len(anchors) < len(branches):
        raise GapAssignmentFailureError(
            f"vertex {vit}: {len(anchors)} addresses for {len(branches)} branches"
        )
    if any(b <= a for a, b in zip(anchors, anchors[1:])):
        raise InternalInvariantError(
            f"vertex {vit}: realizing addresses are not strictly increasing"
        )
    gap_of_branch: dict[int, int] = {}
    for nb, members in branches:
        for w in members:
            for a in addresses(w):
                gap = _gap_of(anchors, a)
                if gap is None:
                    raise GapAssignmentFailureError(
                        f"address {name(a)} of branch vertex {itineraries[w]} "
                        f"collides with an anchor address of {vit}"
                    )
                first = gap_of_branch.setdefault(nb, gap)
                if gap != first:
                    raise GapAssignmentFailureError(
                        f"branch through {nb} at vertex {vit} spans gaps "
                        f"{sorted((first, gap))}: address {name(a)} of branch "
                        f"vertex {itineraries[w]} lies in gap {gap}"
                    )
        if nb not in gap_of_branch:
            raise GapAssignmentFailureError(
                f"branch through {nb} at vertex {vit} has no realizing address"
            )
    if len(set(gap_of_branch.values())) != len(branches):
        raise GapAssignmentFailureError(f"two branches at {vit} share a gap")
    # A pre-singular vertex has an address on every sheet, so its count
    # says nothing about the vertex.
    if len(anchors) > len(branches) and not isinstance(vit, PreSingular):
        notes.append(
            f"vertex {vit}: {len(anchors)} realizing addresses for "
            f"{len(branches)} branches"
        )
    ordered = sorted(gap_of_branch, key=gap_of_branch.__getitem__)
    return tuple(ordered)


def build_tree(P: Partition, m_max: int | None = None) -> AbstractHubbardTree:
    """Construct the abstract exponential Hubbard tree over ``P``.

    ``m_max`` caps the realization multiplier; ``None`` means no cap."""
    its, middles, dynamics, sectors, sing, orbit = _vertex_set(P)
    n = len(its)

    # A vertex lies strictly inside the arc between the other two members
    # of a triple exactly when it is the triple's middle point.  The
    # singular point separates any two vertices of different sectors;
    # every other separation is carried by a star triple.
    separated: set[tuple[int, ...]] = set()
    for ids, b in middles.items():
        if b in ids:
            separated.add(tuple(i for i in ids if i != b))
    edges = tuple(
        sorted(p for p in _star_tuples(sectors, sing, 2) if p not in separated)
    )

    adj = _adjacency(range(n), edges)
    if len(edges) != n - 1 or len(_walk(adj, 0)) != n:
        raise NotATreeError(
            f"betweenness produced {len(edges)} edges on {n} vertices"
        )

    kinds = [_kind(i == sing, i in orbit, len(adj[i])) for i in range(n)]

    # Cyclic orders, from the realizing addresses of every vertex as words,
    # derived when the first branch vertex needs them and sorted as tuples.
    words: list[tuple[tuple[int, ...], ...]] = []
    name: Callable[[Any], str] = str
    notes: list[str] = []
    cyclic: list[tuple[int, ...] | None] = []
    for i, it in enumerate(its):
        if i == sing:
            cyclic.append(None)
            continue
        nbrs = adj[i]
        if len(nbrs) <= 2:
            cyclic.append(_min_rotation(tuple(nbrs)))
            continue
        branches = [(nb, sorted(_walk(adj, nb, removed=i))) for nb in nbrs]
        if not words:
            words, name = _family_words(P, its, dynamics, m_max)
        order = _cyclic_order_by_gaps(
            i, it, branches, its, words.__getitem__, notes, name
        )
        cyclic.append(_min_rotation(order))

    tree = AbstractHubbardTree(
        partition=P,
        vertices=tuple(Vertex(i, it, k) for (i, it), k in zip(enumerate(its), kinds)),
        edges=edges,
        dynamics=tuple(dynamics),
        singular_point=sing,
        sectors=sectors,
        cyclic_order=tuple(cyclic),
        notes=tuple(notes),
    )
    check_tree_invariants(tree)
    return tree


def _kind(singular: bool, on_orbit: bool, degree: int) -> VertexKind:
    """Kind of a vertex: the singular point, other points of the singular
    orbit (``BOTH`` from degree 3 on), or an extra branch point."""
    if singular:
        return VertexKind.SINGULAR
    if on_orbit:
        return VertexKind.BOTH if degree >= 3 else VertexKind.POST_SINGULAR
    return VertexKind.BRANCH_EXTRA


def _walk(
    adj: dict[int, list[int]], root: int, removed: int | None = None
) -> dict[int, int | None]:
    """The parent of every vertex reached from ``root`` without passing
    through ``removed``, by depth-first search; ``root`` maps to ``None``."""
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt != removed and nxt not in parent:
                parent[nxt] = cur
                stack.append(nxt)
    return parent


def _cyclic_subsequence(sub: list, full: list) -> bool:
    """Is ``sub`` a cyclic-order-preserving subsequence of ``full``?"""
    if len(sub) <= 2:
        return True
    pos = {x: i for i, x in enumerate(full)}
    idx = [pos[x] for x in sub]
    rot = idx.index(min(idx))
    idx = idx[rot:] + idx[:rot]
    return all(idx[i] < idx[i + 1] for i in range(len(idx) - 1))


def check_tree_invariants(tree: AbstractHubbardTree) -> None:
    """Verify all structural invariants of an abstract Hubbard tree.

    Raises :class:`NotATreeError`, :class:`NotExpansiveError` or
    :class:`ClosureViolationError` accordingly; a vertex whose kind
    disagrees with its place on the singular orbit and its degree is a
    closure violation.
    """
    P = tree.partition
    n = len(tree.vertices)
    if [v.id for v in tree.vertices] != list(range(n)):
        raise NotATreeError(f"vertex ids are not 0..{n - 1}")
    if len(tree.dynamics) != n or len(tree.cyclic_order) != n:
        raise NotATreeError(f"dynamics or cyclic orders do not cover {n} vertices")
    for e in tree.edges:
        if any(x not in range(n) for x in e):
            raise NotATreeError(f"edge {list(e)} names no vertex")
    if tree.singular_point not in range(n):
        raise NotATreeError(f"singular point {tree.singular_point} names no vertex")
    its = [v.itinerary for v in tree.vertices]
    adj = tree.adjacency()

    if len(set(its)) != n:
        raise NotExpansiveError("two vertices share an itinerary")
    if len(tree.edges) != n - 1 or len(_walk(adj, 0)) != n:
        raise NotATreeError("vertex/edge data is not a tree")

    sing = tree.singular_point
    if its[sing] != PreSingular(()):
        raise ClosureViolationError("singular point does not carry the itinerary *nu")

    dyn = tree.dynamics
    for i, it in enumerate(its):
        d = dyn[i]
        if not 0 <= d < n or its[d] != shift_itinerary(P, it):
            raise ClosureViolationError(f"dynamics at vertex {it} is not the shift")

    # Endpoints lie on the orbit of the singular point; the singular value is one.
    orbit, i = set(), sing
    while i not in orbit:
        orbit.add(i)
        i = dyn[i]
    nu_id = dyn[sing]
    for i in range(n):
        if len(adj[i]) == 1 and i not in orbit:
            raise ClosureViolationError(f"endpoint {its[i]} is not on the singular orbit")
    if len(adj[nu_id]) != 1:
        raise ClosureViolationError("the singular value vertex is not an endpoint")

    # Sectors = branches at the singular point = first-entry groups.
    firsts = [it.first_symbol() for it in its]
    expected: dict[int, set[int]] = {}
    for i in range(n):
        if i != sing:
            expected.setdefault(firsts[i], set()).add(i)
    got = {k: set(v) for k, v in tree.sectors}
    if got != expected:
        raise ClosureViolationError("sector labels disagree with first itinerary entries")
    if nu_id not in got.get(0, set()):
        raise ClosureViolationError("the singular value vertex is not in sector 0")
    # Each branch at the singular point lies in one sector, and the
    # dynamics restricted to it is injective.
    for nb in adj[sing]:
        comp = _walk(adj, nb, removed=sing)
        branch_firsts = {firsts[i] for i in comp}
        if len(branch_firsts) != 1:
            raise ClosureViolationError(
                f"branch at the singular point mixes sectors {sorted(branch_firsts)}"
            )
        if len({dyn[i] for i in comp}) != len(comp):
            raise ClosureViolationError(
                "dynamics folds a branch at the singular point onto itself"
            )

    # Cyclic order bookkeeping and preservation under the dynamics.
    for i in range(n):
        order = tree.cyclic_order[i]
        if i == sing:
            if order is not None:
                raise ClosureViolationError("singular point must not carry a cyclic order")
            continue
        if order is None or sorted(order) != adj[i]:
            raise ClosureViolationError(f"cyclic order at vertex {its[i]} is inconsistent")

    for i in range(n):
        if i == sing or len(adj[i]) < 3:
            continue
        image = dyn[i]
        # label[w]: the first step of the path from the image to w.
        label = {w: nb for nb in adj[image] for w in _walk(adj, nb, removed=image)}
        branch_images = []
        for nb in tree.cyclic_order[i]:
            w = dyn[nb]
            if w == image:
                raise ClosureViolationError(
                    f"neighbor {its[nb]} collapses onto the image of {its[i]}"
                )
            branch_images.append(label[w])
        if len(set(branch_images)) != len(branch_images):
            raise ClosureViolationError(f"dynamics folds branches at {its[i]}")
        if image == sing:
            branch_firsts = [firsts[w] for w in branch_images]
            ok = _cyclic_subsequence(branch_firsts, sorted(set(branch_firsts)))
        else:
            ok = _cyclic_subsequence(branch_images, list(tree.cyclic_order[image]))
        if not ok:
            raise ClosureViolationError(
                f"dynamics does not preserve the cyclic order at {its[i]}"
            )

    for i, v in enumerate(tree.vertices):
        if v.kind != _kind(i == sing, i in orbit, len(adj[i])):
            raise ClosureViolationError(f"vertex {its[i]} has the wrong kind {v.kind.value}")


def to_json(tree: AbstractHubbardTree, indent: int | None = None) -> str:
    """Serialize per the library's stable JSON schema."""
    doc = {
        "base": str(tree.partition.base),
        "kneading": str(tree.partition.kneading),
        "vertices": [
            {"id": v.id, "itinerary": str(v.itinerary), "kind": v.kind.value}
            for v in tree.vertices
        ],
        "edges": [[a, b] for a, b in tree.edges],
        "dynamics": {str(i): img for i, img in enumerate(tree.dynamics)},
        "singular_point": tree.singular_point,
        "sectors": {str(k): list(ids) for k, ids in tree.sectors},
        "cyclic_order": {
            str(i): list(order)
            for i, order in enumerate(tree.cyclic_order)
            if order is not None
        },
    }
    return json.dumps(doc, indent=indent)


def tree_from_json(text: str) -> AbstractHubbardTree:
    """Rebuild a tree from its JSON form (used by round-trip checks)."""
    doc = json.loads(text)
    P = validate_base(parse_address(doc["base"]))
    if str(P.kneading) != doc["kneading"]:
        raise ClosureViolationError(
            f"stored kneading {doc['kneading']} disagrees with the base {doc['base']}"
        )
    vertices = tuple(
        Vertex(v["id"], parse_itinerary(v["itinerary"]), VertexKind(v["kind"]))
        for v in sorted(doc["vertices"], key=lambda v: v["id"])
    )
    n = len(vertices)
    cyclic: list[tuple[int, ...] | None] = [None] * n
    for k, order in doc["cyclic_order"].items():
        if int(k) not in range(n):
            raise NotATreeError(f"cyclic order of {k} names no vertex")
        cyclic[int(k)] = tuple(order)
    return AbstractHubbardTree(
        partition=P,
        vertices=vertices,
        edges=tuple(sorted(tuple(sorted(e)) for e in doc["edges"])),
        dynamics=tuple(doc["dynamics"][str(i)] for i in range(n)),
        singular_point=doc["singular_point"],
        sectors=tuple(
            sorted((int(k), tuple(sorted(v))) for k, v in doc["sectors"].items())
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
