import dataclasses
import json
import random
import re
import time
import warnings
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from exptree.analysis import _edge_rows
from exptree.errors import (
    ClosureViolationError,
    GapAssignmentFailureError,
    InternalInvariantError,
    NormalizationWarning,
    NotATreeError,
    NotExpansiveError,
)
from exptree.notation import parse_address
from exptree import realization, treebuild
from exptree.partition import Plain, PreSingular, shift_itinerary, validate_base
from exptree.realization import _vertex_sheets, addresses_of
from exptree.sequences import (
    _word,
    _word_length,
    canonicalize,
    compare_lex,
    cyclic_between,
)
from exptree.treebuild import (
    VertexKind,
    _cyclic_order_by_gaps,
    _gap_of,
    _vertex_set,
    build_tree,
    check_tree_invariants,
    omega_plus,
    to_dot,
    to_json,
    tree_from_json,
    vertex_set,
)
from exptree.triods import Triod, _TriodMap, middle_point
from wide import wide_partitions


def addr(pre, per):
    return canonicalize(pre, per)


def plain(pre, per):
    return Plain(canonicalize(pre, per))


def raises_exactly(error, message, fn, *args):
    """``fn(*args)`` raises ``error`` itself (not a subclass) with ``message``."""
    with pytest.raises(error) as info:
        fn(*args)
    assert (type(info.value), str(info.value)) == (error, message)


class TestVertexSet:
    def test_golden_a(self, P_a):
        assert vertex_set(P_a) == [
            PreSingular(()),
            plain([0], [1]),
            plain([], [1]),
        ]

    def test_golden_b(self, P_b):
        got = vertex_set(P_b)
        assert set(got) == {
            PreSingular(()),
            plain([0], [0, 1]),
            plain([], [0, 1]),
            plain([], [1, 0]),
            plain([], [0]),
        }
        assert got[0] == PreSingular(())  # pre-singular sorts first

    def test_orbit_always_included(self, acceptance_corpus):
        for P, tree in zip(
            acceptance_corpus.partitions[:15], acceptance_corpus.trees[:15]
        ):
            verts = {v.itinerary for v in tree.vertices}
            assert set(omega_plus(P)) <= verts


class TestGoldenTreeA:
    def test_shape(self, P_a, tree_a):
        ids = tree_a.vertex_by_itinerary()
        v_t = ids[PreSingular(())]
        nu = ids[plain([0], [1])]
        one = ids[plain([], [1])]
        assert tree_a.singular_point == v_t
        assert set(tree_a.edges) == {tuple(sorted((v_t, nu))), tuple(sorted((v_t, one)))}
        assert tree_a.dynamics[v_t] == nu
        assert tree_a.dynamics[nu] == one
        assert tree_a.dynamics[one] == one
        assert tree_a.sector_map() == {0: (nu,), 1: (one,)}

    def test_kinds(self, tree_a):
        kinds = {str(v.itinerary): v.kind for v in tree_a.vertices}
        assert kinds["*"] is VertexKind.SINGULAR
        assert kinds["0(1)"] is VertexKind.POST_SINGULAR
        assert kinds["(1)"] is VertexKind.POST_SINGULAR


class TestBothKind:
    """``0,-1,0(0,0,-1)`` has the fixed point ``(0)`` on the singular orbit
    as a vertex of degree 3, the only kind no golden tree shows."""

    def test_orbit_branch_vertex(self):
        tree = build_tree(validate_base(parse_address("0,-1,0(0,0,-1)")))
        ids = tree.vertex_by_itinerary()
        both = [v for v in tree.vertices if v.kind is VertexKind.BOTH]
        assert [v.id for v in both] == [ids[plain([], [0])]]
        assert len(tree.adjacency()[both[0].id]) == 3
        check_tree_invariants(tree)
        back = tree_from_json(to_json(tree))
        check_tree_invariants(back)
        assert to_json(back) == to_json(tree)


class TestGoldenTreeB:
    def test_structure(self, P_b, tree_b):
        ids = tree_b.vertex_by_itinerary()
        v_t = ids[PreSingular(())]
        w = ids[plain([], [0])]
        nu = ids[plain([0], [0, 1])]
        s1 = ids[plain([], [0, 1])]
        s2 = ids[plain([], [1, 0])]
        assert len(tree_b.vertices) == 5
        assert set(tree_b.edges) == {
            tuple(sorted((nu, w))),
            tuple(sorted((s1, w))),
            tuple(sorted((v_t, w))),
            tuple(sorted((s2, v_t))),
        }
        assert tree_b.dynamics[w] == w  # fixed branch point
        assert len(tree_b.adjacency()[w]) == 3
        assert tree_b.sector_map() == {0: tuple(sorted((w, nu, s1))), 1: (s2,)}

    def test_cyclic_order_at_branch_point(self, tree_b):
        ids = tree_b.vertex_by_itinerary()
        w = ids[plain([], [0])]
        nu = ids[plain([0], [0, 1])]
        s1 = ids[plain([], [0, 1])]
        v_t = ids[PreSingular(())]
        order = tree_b.cyclic_order[w]
        rots = [order[i:] + order[:i] for i in range(3)]
        assert (nu, s1, v_t) in rots

    def test_kind_of_extra_branch_point(self, tree_b):
        kinds = {str(v.itinerary): v.kind for v in tree_b.vertices}
        assert kinds["(0)"] is VertexKind.BRANCH_EXTRA

    def test_nu_is_endpoint(self, tree_b):
        ids = tree_b.vertex_by_itinerary()
        nu = ids[plain([0], [0, 1])]
        assert len(tree_b.adjacency()[nu]) == 1


def tree_median(tree, i, j, k):
    """The unique vertex common to the three pairwise tree paths."""
    common = set(tree.path(i, j)) & set(tree.path(j, k)) & set(tree.path(i, k))
    assert len(common) == 1
    return common.pop()


class TestBetweenness:
    def test_middle_point_is_tree_median(self, acceptance_corpus):
        # The triod algorithm must compute exactly the median vertex of
        # the built tree, for every vertex triple of every tree.
        from itertools import combinations

        for P, tree in zip(
            acceptance_corpus.partitions[:25], acceptance_corpus.trees[:25]
        ):
            verts = [v.itinerary for v in tree.vertices]
            for i, j, k in combinations(range(len(verts)), 3):
                b = middle_point(Triod((verts[i], verts[j], verts[k]), P))
                med = tree_median(tree, i, j, k)
                assert verts[med] == b, (
                    f"{P.base}: triple {i},{j},{k} middle {b} but median {verts[med]}"
                )

    def test_exactly_one_relation_per_triple(self, P_b, tree_b):
        verts = [v.itinerary for v in tree_b.vertices]
        from itertools import combinations

        for i, j, k in combinations(range(len(verts)), 3):
            b = middle_point(Triod((verts[i], verts[j], verts[k]), P_b))
            hits = [b == verts[i], b == verts[j], b == verts[k], b in set(verts)]
            assert hits[3] and sum(hits[:3]) <= 1

    def test_path_endpoints(self, tree_b):
        p = tree_b.path(0, 0)
        assert p == [0]

    def test_paths_walk_tree_edges(self, acceptance_corpus):
        for tree in acceptance_corpus.trees[:10]:
            edges = set(tree.edges)
            n = len(tree.vertices)
            for a in range(n):
                for b in range(n):
                    p = tree.path(a, b)
                    assert p[0] == a and p[-1] == b and len(set(p)) == len(p)
                    assert all(tuple(sorted(e)) in edges for e in zip(p, p[1:]))
                    assert p == tree.path(b, a)[::-1]

    def test_no_path_across_components(self, tree_b):
        doc = json.loads(to_json(tree_b))
        a, b = doc["edges"].pop()
        cut = tree_from_json(json.dumps(doc))
        with pytest.raises(NotATreeError):
            cut.path(a, b)


def scan_edges(P, its):
    """Edges by the full betweenness scan: every pair against every third
    vertex, one middle point each."""
    n = len(its)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not any(
            middle_point(Triod((its[i], its[w], its[j]), P)) == its[w]
            for w in range(n)
            if w not in (i, j)
        )
    )


class TestSinglePassBetweenness:
    def test_golden_edges_match_the_full_scan(self, P_a, P_b, tree_a, tree_b):
        for P, tree in ((P_a, tree_a), (P_b, tree_b)):
            its = [v.itinerary for v in tree.vertices]
            assert tree.edges == scan_edges(P, its)

    def test_corpus_edges_match_the_full_scan(self, acceptance_corpus):
        picks = random.Random(47).sample(range(len(acceptance_corpus.trees)), 20)
        for i in picks:
            P, tree = acceptance_corpus.partitions[i], acceptance_corpus.trees[i]
            its = [v.itinerary for v in tree.vertices]
            assert tree.edges == scan_edges(P, its), str(P.base)


def scan_gap(anchors, a):
    """Gap of ``a`` by testing every gap of the anchors in turn."""
    q = len(anchors)
    return next(
        (i for i in range(q) if cyclic_between(anchors[i], a, anchors[(i + 1) % q])),
        None,
    )


def gap_checks(P, tree):
    """Compare the bisected gap with the scan for every address of every
    vertex against the anchors of every branch vertex; return the number
    of addresses compared."""
    its = [v.itinerary for v in tree.vertices]
    sheets = _vertex_sheets(P, its)

    def lookup(it):
        if isinstance(it, PreSingular):
            return addresses_of(P, it, m_range=sheets).addresses
        return addresses_of(P, it).addresses

    adj = tree.adjacency()
    checked = 0
    for v in range(len(its)):
        if v == tree.singular_point or len(adj[v]) < 3:
            continue
        anchors = lookup(its[v])
        for w in range(len(its)):
            if w == v:
                continue
            for a in lookup(its[w]):
                assert _gap_of(anchors, a) == scan_gap(anchors, a), (
                    f"{P.base}: address {a} at vertex {its[v]}"
                )
                checked += 1
    return checked


class TestGapBisection:
    anchors = (addr([], [0]), addr([], [1]), addr([], [2]))
    itineraries = {i: plain([], [i]) for i in range(4)}
    branches = [(1, [1]), (2, [2]), (3, [3])]

    def order(self, own):
        return _cyclic_order_by_gaps(0, self.branches, self.itineraries, own, [])

    def test_gaps_wrap_around(self):
        # 0(1) lies in gap 0, (1,2) in gap 1; (3) above the last anchor
        # and (-1) below the first both lie in the wrap-around gap 2.
        for last in (addr([], [3]), addr([], [-1])):
            own = {
                0: self.anchors,
                1: (addr([0], [1]),),
                2: (addr([], [1, 2]),),
                3: (last,),
            }
            assert self.order(own) == (1, 2, 3)

    def test_anchor_collision_raises(self):
        own = {
            0: self.anchors,
            1: (addr([0], [1]),),
            2: (self.anchors[1],),
            3: (addr([], [3]),),
        }
        with pytest.raises(GapAssignmentFailureError, match="collides with an anchor"):
            self.order(own)

    def test_unsorted_anchors_raise(self):
        own = {
            0: self.anchors[::-1],
            1: (addr([0], [1]),),
            2: (addr([], [1, 2]),),
            3: (addr([], [3]),),
        }
        with pytest.raises(InternalInvariantError):
            self.order(own)

    def test_too_few_anchors_raise(self):
        own = {0: self.anchors[:2], 1: (), 2: (), 3: ()}
        raises_exactly(
            GapAssignmentFailureError,
            "vertex (0): 2 addresses for 3 branches",
            self.order,
            own,
        )

    def test_branch_spanning_gaps_raises(self):
        own = {
            0: self.anchors,
            1: (addr([0], [1]), addr([], [1, 2])),
            2: (addr([], [1, 2]),),
            3: (addr([], [3]),),
        }
        raises_exactly(
            GapAssignmentFailureError,
            "branch through 1 at vertex (0) spans gaps [0, 1]: "
            "address (1,2) of branch vertex (1) lies in gap 1",
            self.order,
            own,
        )

    def test_branch_without_address_raises(self):
        own = {0: self.anchors, 1: (), 2: (addr([], [1, 2]),), 3: (addr([], [3]),)}
        raises_exactly(
            GapAssignmentFailureError,
            "branch through 1 at vertex (0) has no realizing address",
            self.order,
            own,
        )

    def test_branches_sharing_a_gap_raise(self):
        # 0(1) and 0(2) both lie between (0) and (1).
        own = {
            0: self.anchors,
            1: (addr([0], [1]),),
            2: (addr([0], [2]),),
            3: (addr([], [3]),),
        }
        raises_exactly(
            GapAssignmentFailureError,
            "two branches at (0) share a gap",
            self.order,
            own,
        )

    def test_build_names_a_colliding_address(self, P_b, monkeypatch):
        # The build bisects words, but names a failing address in address
        # notation: here an address of the branch vertex (0), handed to
        # its neighbour (0,1) as well.
        def corrupted(P, its, dynamics, star, m_max):
            words, name = vertex_words(P, its, dynamics, star, m_max)
            words[its.index(plain([], [0, 1]))] += words[its.index(plain([], [0]))][:1]
            return words, name

        vertex_words = treebuild._vertex_words
        monkeypatch.setattr(treebuild, "_vertex_words", corrupted)
        with pytest.raises(GapAssignmentFailureError) as info:
            build_tree(P_b)
        named = re.fullmatch(
            r"address (\S+) of branch vertex \(0,1\) collides with an anchor "
            r"address of \(0\)",
            str(info.value),
        )
        assert named, str(info.value)
        assert parse_address(named[1]) in addresses_of(P_b, plain([], [0])).addresses

    def test_golden_gaps_match_the_scan(self, P_a, P_b, tree_a, tree_b):
        assert gap_checks(P_a, tree_a) + gap_checks(P_b, tree_b) > 0

    def test_corpus_gaps_match_the_scan(self, acceptance_corpus):
        picks = random.Random(53).sample(range(len(acceptance_corpus.trees)), 20)
        checked = sum(
            gap_checks(acceptance_corpus.partitions[i], acceptance_corpus.trees[i])
            for i in picks
        )
        assert checked > 0



def has_branch_vertex(tree):
    return any(
        len(nbrs) >= 3 and v != tree.singular_point
        for v, nbrs in tree.adjacency().items()
    )


class TestVertexFamilies:
    """The build realizes each vertex's addresses on one automaton, from
    its image's; they must be those that ``addresses_of`` finds afresh."""

    @staticmethod
    def check(P):
        # The words the build orders its branches by are those of the
        # fresh addresses, at a length that orders and tells them apart.
        # Only a branch vertex other than *nu needs words; without one,
        # they are asked for directly.
        handed = []

        def recording(*args):
            handed.append(vertex_words(*args))
            return handed[-1]

        vertex_words = treebuild._vertex_words
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treebuild, "_vertex_words", recording)
            tree = build_tree(P)
        assert len(handed) == has_branch_vertex(tree)
        its = [v.itinerary for v in tree.vertices]
        if not handed:
            handed.append(vertex_words(P, its, tree.dynamics, tree.singular_point, None))
        sheets = _vertex_sheets(P, its)
        fresh = [addresses_of(P, it, m_range=sheets).addresses for it in its]
        addrs = [a for f in fresh for a in f]
        for words, _ in handed:
            L = len(words[tree.singular_point][0])
            assert L >= _word_length(
                max(len(a.preperiod) for a in addrs), (len(a.period) for a in addrs)
            )
            assert words == [tuple(_word(a, L) for a in f) for f in fresh], str(P.base)

    def test_golden(self, P_a, P_b):
        self.check(P_a)
        self.check(P_b)

    def test_acceptance_trees(self, acceptance_corpus):
        branched = [
            P
            for P, tree in zip(acceptance_corpus.partitions, acceptance_corpus.trees)
            if has_branch_vertex(tree)
        ]
        for P in branched[:20]:
            self.check(P)

    @pytest.mark.parametrize("k", [8, 9, 10])
    def test_ladder(self, k):
        self.check(validate_base(addr([0], [1, 0] * k + [2])))

    def test_presingular_vertices_take_no_note(self, monkeypatch):
        # The branch vertex 0,* of 0(1,0,3) has a realizing address on
        # every sheet, so its count says nothing and is not noted; a sheet
        # beyond either end of the vertices' own does not change the tree.
        P = validate_base(addr([0], [1, 0, 3]))
        tree = build_tree(P)
        assert _vertex_sheets(P, [v.itinerary for v in tree.vertices]) == range(0, 5)
        assert tree.notes == ()
        def wider(P, its):
            own = _vertex_sheets(P, its)
            return range(own.start - 1, own.stop + 1)

        monkeypatch.setattr(realization, "_vertex_sheets", wider)
        wide = build_tree(P)
        assert to_json(wide) == to_json(tree) and wide.notes == ()
        # A periodic branch vertex still notes its spare addresses.
        tree = build_tree(validate_base(addr([0, 0], [0, -2, -2])))
        assert tree.notes == ("vertex -2(0): 4 realizing addresses for 3 branches",)


class TestLongMultipliers:
    """Bases whose vertex itineraries need multipliers far beyond 8, such
    as ``(1,0)`` with multiplier ``k + 1`` over ``0((1,0)^k,2)``."""

    @pytest.mark.parametrize(
        "base",
        [addr([0], [1, 0] * k + [2]) for k in range(8, 13)]
        + [addr([0], [1, 0, 0, 0] * 5 + [2])]
        # (0) needs multiplier 3k + 2 over 0((1,0,0)^k,2), beyond 64 from k = 21.
        + [addr([0], [1, 0, 0] * k + [2]) for k in range(21, 25)],
        ids=str,
    )
    def test_builds_in_under_a_second(self, base):
        t0 = time.perf_counter()
        tree = build_tree(validate_base(base))
        check_tree_invariants(tree)
        assert time.perf_counter() - t0 < 1.0


class TestNonzeroLeadingEntry:
    """Pre-singular vertices of these bases need their sheets offset by
    ``j0``: itinerary first symbols are sector indices, not the address
    entries of the boundary sheets."""

    @pytest.mark.parametrize(
        "base", ["3,2,-3(0,2,2,1)", "6,-4(5,8)", "6,3,6(-2)", "8(-1,-1,5)"]
    )
    def test_builds_and_round_trips(self, base):
        with pytest.warns(NormalizationWarning):
            tree = build_tree(validate_base(parse_address(base)))
            check_tree_invariants(tree)
            back = tree_from_json(to_json(tree))
        check_tree_invariants(back)
        assert to_json(back) == to_json(tree)


def reference_json_doc(tree):
    """The document that ``to_json`` writes, built as a dict."""
    return {
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


def json_strings(doc):
    """Every string value of a JSON document."""
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, dict):
        for v in doc.values():
            yield from json_strings(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from json_strings(v)


def writes_as_json_dumps(tree):
    """``to_json`` writes what ``json.dumps`` writes of the reference
    document, compact and indented, and its strings need no escapes."""
    doc = reference_json_doc(tree)
    assert to_json(tree) == json.dumps(doc), str(tree)
    for k in (0, 2):
        assert to_json(tree, indent=k) == json.dumps(doc, indent=k), (str(tree), k)
    kinds = {k.value for k in VertexKind}
    for text in json_strings(doc):
        assert re.fullmatch(r"[-0-9,()*]*", text) or text in kinds, text


class TestSerialization:
    def test_writes_what_json_dumps_writes(self, tree_a, tree_b, acceptance_corpus):
        for tree in (tree_a, tree_b, *acceptance_corpus.trees):
            writes_as_json_dumps(tree)

    @pytest.mark.filterwarnings("ignore::exptree.errors.NormalizationWarning")
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(wide_partitions())
    def test_writes_what_json_dumps_writes_on_wide_bases(self, P):
        writes_as_json_dumps(build_tree(P))

    def test_json_schema_keys(self, tree_b):
        doc = json.loads(to_json(tree_b))
        assert set(doc) == {
            "base",
            "kneading",
            "vertices",
            "edges",
            "dynamics",
            "singular_point",
            "sectors",
            "cyclic_order",
        }
        assert doc["base"] == "0(0,1)"
        assert doc["kneading"] == "0(0,1)"
        assert all(set(v) == {"id", "itinerary", "kind"} for v in doc["vertices"])
        assert str(tree_b.singular_point) not in doc["cyclic_order"]

    def test_round_trip(self, tree_a, tree_b):
        for tree in (tree_a, tree_b):
            text = to_json(tree)
            back = tree_from_json(text)
            check_tree_invariants(back)
            assert to_json(back) == text

    def test_round_trip_corpus(self, acceptance_corpus):
        for tree in acceptance_corpus.trees[:10]:
            back = tree_from_json(to_json(tree))
            check_tree_invariants(back)
            assert to_json(back) == to_json(tree)

    def test_corrupt_json_detected(self, tree_b):
        doc = json.loads(to_json(tree_b))
        doc["dynamics"]["1"] = 0  # break the shift property
        with pytest.raises(ClosureViolationError):
            check_tree_invariants(tree_from_json(json.dumps(doc)))
        doc = json.loads(to_json(tree_b))
        doc["edges"] = doc["edges"][:-1]
        with pytest.raises(NotATreeError):
            check_tree_invariants(tree_from_json(json.dumps(doc)))

    def test_out_of_range_dynamics_detected(self, tree_b):
        # An image id off by the vertex count names the right itinerary
        # under Python's negative indexing, or no vertex at all.
        n = len(tree_b.vertices)
        for i, d in enumerate(tree_b.dynamics):
            for bad in (d - n, d + n):
                doc = json.loads(to_json(tree_b))
                doc["dynamics"][str(i)] = bad
                with pytest.raises(ClosureViolationError, match="is not the shift"):
                    check_tree_invariants(tree_from_json(json.dumps(doc)))

    def test_tampered_kinds_detected(self, tree_a, tree_b):
        # Swap the kinds of the singular point and the branch vertex of
        # 0(0,1); on 0(1), mark a postsingular vertex as a branch point.
        doc = json.loads(to_json(tree_b))
        kinds = {v["kind"]: v for v in doc["vertices"]}
        kinds["singular"]["kind"], kinds["branch"]["kind"] = "branch", "singular"
        with pytest.raises(ClosureViolationError, match="wrong kind"):
            check_tree_invariants(tree_from_json(json.dumps(doc)))
        doc = json.loads(to_json(tree_a))
        doc["vertices"][1]["kind"] = "branch"
        with pytest.raises(ClosureViolationError, match="wrong kind"):
            check_tree_invariants(tree_from_json(json.dumps(doc)))
        doc = json.loads(to_json(tree_a))
        doc["vertices"][2]["kind"] = "both"
        with pytest.raises(ClosureViolationError, match="wrong kind"):
            check_tree_invariants(tree_from_json(json.dumps(doc)))

    def test_dot_export(self, tree_a):
        dot = to_dot(tree_a)
        assert dot.startswith("digraph")
        assert "[dir=none]" in dot and "style=dashed" in dot
        assert '"0(1)"' in dot

    def test_json_snapshot_golden_a(self, tree_a):
        # Frozen wire format: any change here is a schema break.
        assert to_json(tree_a) == (
            '{"base": "0(1)", "kneading": "0(1)", '
            '"vertices": [{"id": 0, "itinerary": "*", "kind": "singular"}, '
            '{"id": 1, "itinerary": "0(1)", "kind": "postsingular"}, '
            '{"id": 2, "itinerary": "(1)", "kind": "postsingular"}], '
            '"edges": [[0, 1], [0, 2]], '
            '"dynamics": {"0": 1, "1": 2, "2": 2}, '
            '"singular_point": 0, '
            '"sectors": {"0": [1], "1": [2]}, '
            '"cyclic_order": {"1": [0], "2": [0]}}'
        )


class TestCheckGuards:
    """One fault per guard of the check, each reaching that guard first.

    On 0(0,1) the vertices are 0 ``*``, 1 ``(0)``, 2 ``0(0,1)`` (the
    singular value), 3 ``(0,1)`` and 4 ``(1,0)``; the edges are 0-1, 0-4,
    1-2 and 1-3.  Three guards have no such fault, as the dynamics must be
    the shift and the sectors the first symbols.  The singular value then
    lies in sector 0, since every base is normalized to start with 0.  Two
    vertices with one first symbol and one image share an itinerary, so
    no branch at the singular point folds.  A neighbor of a branch vertex
    lies in its branch at the singular point or is the singular point,
    whose image no other vertex has, so none collapses onto the image."""

    def check(self, tree, error, message):
        raises_exactly(error, message, check_tree_invariants, tree)

    def test_shared_itinerary(self, tree_b):
        v = list(tree_b.vertices)
        v[2] = dataclasses.replace(v[2], itinerary=v[3].itinerary)
        self.check(
            dataclasses.replace(tree_b, vertices=tuple(v)),
            NotExpansiveError,
            "two vertices share an itinerary",
        )

    def test_singular_point_without_star(self, tree_b):
        self.check(
            dataclasses.replace(tree_b, singular_point=1),
            ClosureViolationError,
            "singular point does not carry the itinerary *nu",
        )

    def test_endpoint_off_the_orbit(self, tree_b):
        # All four edges at the singular point leave (0) an endpoint.
        self.check(
            dataclasses.replace(tree_b, edges=((0, 1), (0, 2), (0, 3), (0, 4))),
            ClosureViolationError,
            "endpoint (0) is not on the singular orbit",
        )

    def test_singular_value_inside(self, tree_b):
        self.check(
            dataclasses.replace(tree_b, edges=((0, 2), (0, 4), (1, 2), (1, 3))),
            ClosureViolationError,
            "the singular value vertex is not an endpoint",
        )

    def test_sector_labels(self, tree_b):
        self.check(
            dataclasses.replace(tree_b, sectors=((0, (1, 2)), (1, (3, 4)))),
            ClosureViolationError,
            "sector labels disagree with first itinerary entries",
        )

    def test_branch_mixes_sectors(self, tree_b):
        self.check(
            dataclasses.replace(tree_b, edges=((0, 1), (1, 2), (1, 3), (1, 4))),
            ClosureViolationError,
            "branch at the singular point mixes sectors [0, 1]",
        )

    def test_cyclic_order_at_the_singular_point(self, tree_b):
        doc = json.loads(to_json(tree_b))
        doc["cyclic_order"]["0"] = [1, 4]
        self.check(
            tree_from_json(json.dumps(doc)),
            ClosureViolationError,
            "singular point must not carry a cyclic order",
        )

    def test_missing_cyclic_order(self, tree_b):
        doc = json.loads(to_json(tree_b))
        del doc["cyclic_order"]["2"]
        self.check(
            tree_from_json(json.dumps(doc)),
            ClosureViolationError,
            "cyclic order at vertex 0(0,1) is inconsistent",
        )

    def test_folded_branches(self):
        # On 0(1,0,0,2), vertex 1 is (0) with neighbors (0, 4, 2, 5, 3) in
        # cyclic order, and the branch through 0 holds (2,0,0,0).  Moving
        # the edge 0-1 to 0-3, with the cyclic orders to match, puts the
        # images of 3 and 5 in one branch at (0).
        tree = build_tree(validate_base(addr([0], [1, 0, 0, 2])))
        cyclic = list(tree.cyclic_order)
        cyclic[1], cyclic[3] = (4, 2, 5, 3), (0, 1)
        edges = tuple(sorted({(0, 3)} | set(tree.edges) - {(0, 1)}))
        self.check(
            dataclasses.replace(tree, edges=edges, cyclic_order=tuple(cyclic)),
            ClosureViolationError,
            "dynamics folds branches at (0)",
        )

    def test_cyclic_order_not_preserved(self):
        tree = build_tree(validate_base(addr([0], [1, 0, 0, 2])))
        cyclic = list(tree.cyclic_order)
        cyclic[1] = (0, 4, 2, 3, 5)
        self.check(
            dataclasses.replace(tree, cyclic_order=tuple(cyclic)),
            ClosureViolationError,
            "dynamics does not preserve the cyclic order at (0)",
        )

    def test_stored_kneading(self, tree_b):
        doc = json.loads(to_json(tree_b))
        doc["kneading"] = "0(1)"
        raises_exactly(
            ClosureViolationError,
            "stored kneading 0(1) disagrees with the base 0(0,1)",
            tree_from_json,
            json.dumps(doc),
        )


class TestMalformedTrees:
    """Ids that name no vertex raise typed errors, not lookup errors."""

    def test_edge_to_no_vertex(self, tree_b):
        doc = json.loads(to_json(tree_b))
        doc["edges"].append([0, 99])
        raises_exactly(
            NotATreeError,
            "edge [0, 99] names no vertex",
            check_tree_invariants,
            tree_from_json(json.dumps(doc)),
        )

    @pytest.mark.parametrize("sing", [99, -1])
    def test_singular_point_names_no_vertex(self, tree_b, sing):
        raises_exactly(
            NotATreeError,
            f"singular point {sing} names no vertex",
            check_tree_invariants,
            dataclasses.replace(tree_b, singular_point=sing),
        )

    def test_vertex_ids_skip(self, tree_b):
        doc = json.loads(to_json(tree_b))
        doc["vertices"][0]["id"] = 50
        raises_exactly(
            NotATreeError,
            "vertex ids are not 0..4",
            check_tree_invariants,
            tree_from_json(json.dumps(doc)),
        )

    @pytest.mark.parametrize("field", ["dynamics", "cyclic_order"])
    def test_table_misses_a_vertex(self, tree_b, field):
        short = {field: getattr(tree_b, field)[:-1]}
        raises_exactly(
            NotATreeError,
            "dynamics or cyclic orders do not cover 5 vertices",
            check_tree_invariants,
            dataclasses.replace(tree_b, **short),
        )

    @pytest.mark.parametrize("key", ["99", "-1"])
    def test_cyclic_order_of_no_vertex(self, tree_b, key):
        doc = json.loads(to_json(tree_b))
        doc["cyclic_order"][key] = [0]
        raises_exactly(
            NotATreeError,
            f"cyclic order of {key} names no vertex",
            tree_from_json,
            json.dumps(doc),
        )

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["dynamics"].pop("4"), "tree JSON has no field dynamics.4"),
            (
                lambda d: d["cyclic_order"].update(x=[0]),
                "tree JSON key cyclic_order.x is not an integer",
            ),
            (lambda d: d["sectors"].update(a=[0]), "tree JSON key sectors.a is not an integer"),
            (lambda d: d["vertices"][2].pop("kind"), "tree JSON has no field vertices[2].kind"),
            (lambda d: d.pop("edges"), "tree JSON has no field edges"),
            (
                lambda d: d["vertices"][1].update(kind="leaf"),
                "tree JSON field vertices[1].kind has unknown value 'leaf'",
            ),
        ],
        ids=["dynamics entry", "cyclic-order key", "sector key", "kind", "edges", "kind value"],
    )
    def test_malformed_json(self, tree_b, mutate, message):
        doc = json.loads(to_json(tree_b))
        mutate(doc)
        raises_exactly(NotATreeError, message, tree_from_json, json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(sectors=[]), "tree JSON field sectors is not of type dict"),
            (
                lambda d: d.update(cyclic_order=[[0]]),
                "tree JSON field cyclic_order is not of type dict",
            ),
            (lambda d: d["edges"].__setitem__(1, 3), "tree JSON field edges[1] is not of type list"),
            (
                lambda d: d["vertices"][1].update(id="1"),
                "tree JSON field vertices[1].id is not of type int",
            ),
            (
                lambda d: d["cyclic_order"].update({"1": 5}),
                "tree JSON field cyclic_order.1 is not of type list",
            ),
            (
                lambda d: d["cyclic_order"].update({"1": [0, "2", 3]}),
                "tree JSON field cyclic_order.1[1] is not of type int",
            ),
            (
                lambda d: d["sectors"].update({"0": 5}),
                "tree JSON field sectors.0 is not of type list",
            ),
            (
                lambda d: d["vertices"][1].update(itinerary=5),
                "tree JSON field vertices[1].itinerary is not of type str",
            ),
            (
                lambda d: d["dynamics"].update({"1": "1"}),
                "tree JSON field dynamics.1 is not of type int",
            ),
            (
                lambda d: d["edges"].__setitem__(0, [0, "1"]),
                "tree JSON field edges[0][1] is not of type int",
            ),
            (
                lambda d: d["edges"].__setitem__(0, [0, 1, 2]),
                "tree JSON field edges[0] is not a pair",
            ),
            (
                lambda d: d["vertices"][1].update(id=True),
                "tree JSON field vertices[1].id is not of type int",
            ),
            (
                lambda d: d.update(singular_point=False),
                "tree JSON field singular_point is not of type int",
            ),
            (lambda d: d.update(base=5), "tree JSON field base is not of type str"),
            (lambda d: d.update(kneading=5), "tree JSON field kneading is not of type str"),
            (
                lambda d: d.update(vertices={"0": {}}),
                "tree JSON field vertices is not of type list",
            ),
        ],
        ids=[
            "sectors",
            "cyclic order",
            "edge",
            "vertex id",
            "cyclic-order entry",
            "cyclic-order member",
            "sector entry",
            "itinerary",
            "dynamics value",
            "edge end",
            "edge length",
            "vertex id bool",
            "singular point bool",
            "base",
            "kneading",
            "vertices",
        ],
    )
    def test_mistyped_json(self, tree_b, mutate, message):
        doc = json.loads(to_json(tree_b))
        mutate(doc)
        raises_exactly(NotATreeError, message, tree_from_json, json.dumps(doc))

    def test_path_to_no_vertex(self, tree_b):
        raises_exactly(NotATreeError, "no vertex 99", tree_b.path, 0, 99)


class TestDeterminism:
    def test_rebuild_identical(self, P_b):
        t1 = build_tree(P_b)
        t2 = build_tree(P_b)
        assert to_json(t1) == to_json(t2)

    def test_vertex_order_rule(self, acceptance_corpus):
        for tree in acceptance_corpus.trees[:10]:
            pre = [v for v in tree.vertices if isinstance(v.itinerary, PreSingular)]
            plains = [v for v in tree.vertices if isinstance(v.itinerary, Plain)]
            assert [v.id for v in pre] == list(range(len(pre)))
            seqs = [v.itinerary.seq for v in plains]
            assert seqs == sorted(seqs)


entries = st.integers(-6, 6)


@st.composite
def addresses(draw):
    pre = draw(st.lists(entries, max_size=6))
    return canonicalize(pre, draw(st.lists(entries, min_size=1, max_size=12)))


@st.composite
def fine_wilf_pairs(draw):
    """Two addresses ``pre.u^inf`` and ``pre.v^inf``, ``|u| = p`` and
    ``|v| = q`` with neither dividing the other, whose tails agree on
    exactly ``n = p + q - gcd(p, q) - 1`` entries, the most that Fine
    and Wilf allow for distinct tails.  The positions below ``n`` joined
    by ``i ~ i + p`` and ``i ~ i + q`` fall into ``gcd + 1`` classes;
    each class gets its own entry."""
    p, q = draw(
        st.tuples(st.integers(2, 9), st.integers(2, 9)).filter(
            lambda pq: pq[0] % pq[1] and pq[1] % pq[0]
        )
    )
    n = p + q - gcd(p, q) - 1
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for d in (p, q):
        for i in range(n - d):
            root[find(i + d)] = find(i)
    classes = sorted({find(i) for i in range(n)})
    values = draw(
        st.lists(entries, min_size=len(classes), max_size=len(classes), unique=True)
    )
    w = [values[classes.index(find(i))] for i in range(n)]
    pre = draw(st.lists(entries, max_size=4))
    return canonicalize(pre, w[:p]), canonicalize(pre, w[:q]), len(pre) + n


class TestAddressWords:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fine_wilf_pairs(), st.lists(addresses(), max_size=6))
    def test_words_sort_as_compare_lex(self, pair, extra):
        # At the length _word_length fixes, words order the addresses.
        a, b, agree = pair
        assert a.entries(agree) == b.entries(agree)
        assert a.entry(agree + 1) != b.entry(agree + 1)
        addrs = [a, b] + extra
        L = _word_length(
            max(len(x.preperiod) for x in addrs), (len(x.period) for x in addrs)
        )
        words = [_word(x, L) for x in addrs]
        for x, wx in zip(addrs, words):
            for y, wy in zip(addrs, words):
                assert (wx > wy) - (wx < wy) == compare_lex(x, y).value, (x, y)


class TestMiddleIds:
    def test_one_id_per_itinerary(self, acceptance_corpus, monkeypatch):
        # After the closure pass every itinerary has one id, the shift and
        # prepend tables agree with the itineraries, and every memoized
        # state's middle id names the middle point of a fresh Triod.
        maps = []

        class RecordingMap(_TriodMap):
            def __init__(self, P):
                super().__init__(P)
                maps.append(self)

        monkeypatch.setattr(treebuild, "_TriodMap", RecordingMap)
        for P in acceptance_corpus.partitions:
            maps.clear()
            _vertex_set(P)
            (m,) = maps
            its = [m.itinerary(i) for i in range(len(m.keys))]
            assert len(set(its)) == len(its) == len(set(m.keys))
            assert all(m.ids[k] == i == m.id(its[i]) for i, k in enumerate(m.keys))
            for i, j in m.shifts.items():
                assert its[j] == shift_itinerary(P, its[i])
            for (vote, j), i in m.prepends.items():
                assert m.firsts[i] == vote and m.shifts[i] == j
            for state, b in m.memo.items():
                T = Triod(tuple(its[i] for i in state), P)
                assert middle_point(T) == its[b], f"{P.base}: {T}"


class TestVertexSetWork:
    def test_no_itinerary_work(self, P_a, P_b, acceptance_corpus, monkeypatch):
        # The vertex set runs on keys: no formal-point test or shift on
        # itineraries, and one itinerary built per vertex it returns.
        from exptree import partition, triods

        def forbidden(*args):
            raise AssertionError("the vertex set works on itineraries")

        for module in (partition, triods, treebuild):
            for name in ("is_in_S_nu", "shift_itinerary"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        built = []
        for cls in (Plain, PreSingular):

            def init(self, *args, _init=cls.__init__):
                built.append(self)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", init)
        for P in [P_a, P_b] + acceptance_corpus.partitions:
            built.clear()
            its = _vertex_set(P)[0]
            assert len(built) == len(its), P.base


@st.composite
def wide_bases(draw, max_period=12):
    """Bases with a nonzero leading entry, preperiod up to 6, period up to
    ``max_period`` and entries in [-6, 6]."""
    pre = [draw(entries.filter(bool))] + draw(st.lists(entries, max_size=5))
    return canonicalize(pre, draw(st.lists(entries, min_size=1, max_size=max_period)))


class TestWideBases:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(wide_bases())
    def test_builds_and_round_trips(self, s):
        assume(not s.is_periodic())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            tree = build_tree(validate_base(s))
            check_tree_invariants(tree)
            back = tree_from_json(to_json(tree))
        check_tree_invariants(back)
        assert to_json(back) == to_json(tree)


class TestFamiliesBeyondTheCorpus:
    """The build's families on bases of any leading entry, preperiod up to
    6, period up to 12 and entries in [-6, 6], and on ladders."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(addresses())
    def test_wide_bases(self, s):
        assume(not s.is_periodic())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            TestVertexFamilies.check(validate_base(s))

    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("w", [(1, 0), (1, 0, 0), (0, 1), (1, -1)], ids=str)
    def test_ladders(self, w, k):
        TestVertexFamilies.check(validate_base(addr([0], list(w) * k + [2])))


class TestMultiplierBound:
    """Every realizing multiplier is at most ``N = 2(|pre_s| + |per_s|) + 1``,
    the number of positions of the periodic search's automaton.  The
    families are searched with a cap of ``4N``, so a multiplier above ``N``
    fails the check rather than the search."""

    @staticmethod
    def check(s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            P = validate_base(s)
            tree = build_tree(P)
        N = 2 * (len(s.preperiod) + len(s.period)) + 1
        its = [v.itinerary for v in tree.vertices]
        automaton = realization._Positions(P)
        for it in its:
            if isinstance(it, Plain) and not it.seq.preperiod:
                family = automaton.cycles(it.seq.period, 4 * N)
                m = max(len(a.period) for a in family) // len(it.seq.period)
                assert m <= N, f"{s}: {it} needs multiplier {m} > {N}"

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("w", [(1, 0), (1, 0, 0), (0, 1), (1, -1)], ids=str)
    def test_ladders(self, w, k):
        self.check(addr([0], list(w) * k + [2]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wide_bases())
    def test_wide_bases(self, s):
        assume(not s.is_periodic())
        self.check(s)


def _star_triple_set(its):
    """All sorted index triples inside one sector plus the singular point."""
    star = its.index(PreSingular(()))
    return {
        tri
        for tri in combinations(range(len(its)), 3)
        if len({its[i].first_symbol() for i in tri if i != star}) == 1
    }


def _reference_edges(P, its):
    """Edges from the betweenness of all vertex triples, each middle
    point from a fresh triod map."""
    separated = set()
    for tri in combinations(its, 3):
        b = middle_point(Triod(tri, P))
        if b in tri:
            separated.add(frozenset(x for x in tri if x != b))
    return {
        (i, j)
        for (i, u), (j, v) in combinations(enumerate(its), 2)
        if frozenset((u, v)) not in separated
    }


class TestStarTriples:
    def test_one_step_ignores_the_odd_member(self, acceptance_corpus):
        # Three distinct first symbols stop at *nu; when exactly two agree,
        # the third member may be replaced by *nu.
        for P, tree in zip(acceptance_corpus.partitions, acceptance_corpus.trees):
            star = PreSingular(())
            for tri in combinations([v.itinerary for v in tree.vertices], 3):
                firsts = [m.first_symbol() for m in tri]
                b = middle_point(Triod(tri, P))
                if len(set(firsts)) == 3:
                    assert b == star, f"{P.base}: {tri}"
                elif len(set(firsts)) == 2:
                    odd = next(m for m, f in zip(tri, firsts) if firsts.count(f) == 1)
                    pair = tuple(m for m in tri if m != odd)
                    assert b == middle_point(Triod(pair + (star,), P)), (
                        f"{P.base}: {tri}"
                    )

    def test_keys_are_the_star_triples(self, acceptance_corpus, monkeypatch):
        # The vertex set asks the triod map for the middle points of
        # exactly the vertices' star triples.
        real, asked = _TriodMap.middle, []

        def middle(self, *ids):
            asked.append([self.itinerary(i) for i in ids])
            return real(self, *ids)

        monkeypatch.setattr(_TriodMap, "middle", middle)
        for P in acceptance_corpus.partitions:
            asked.clear()
            its = _vertex_set(P)[0]
            index = {it: i for i, it in enumerate(its)}
            got = {tuple(sorted(index[it] for it in tri)) for tri in asked}
            assert got == _star_triple_set(its), P.base

    def test_edges_match_all_triples_on_corpus(self, acceptance_corpus):
        for P, tree in zip(acceptance_corpus.partitions, acceptance_corpus.trees):
            its = [v.itinerary for v in tree.vertices]
            assert set(tree.edges) == _reference_edges(P, its), P.base

    @pytest.mark.filterwarnings("ignore::exptree.errors.NormalizationWarning")
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(wide_bases(max_period=10))
    def test_edges_match_all_triples_on_wide_bases(self, s):
        assume(not s.is_periodic())
        tree = build_tree(validate_base(s))
        its = [v.itinerary for v in tree.vertices]
        assert set(tree.edges) == _reference_edges(tree.partition, its)


class TestClosureViolations:
    # In 0(0,1) the branch vertex (0) is no orbit point, so only the
    # closure pass walks triples that hold it.
    OUTSIDER = Plain(canonicalize([], [5]))

    def _rig(self, monkeypatch, members):
        real = _TriodMap.middle
        outsider = self.OUTSIDER

        def middle(self, *ids):
            if {self.itinerary(i) for i in ids} == members:
                return self.id(outsider)
            return real(self, *ids)

        monkeypatch.setattr(_TriodMap, "middle", middle)

    def test_same_sector_triple(self, P_b, monkeypatch):
        self._rig(monkeypatch, {plain([], [0]), plain([0], [0, 1]), plain([], [0, 1])})
        with pytest.raises(ClosureViolationError, match=r"= \(5\)$"):
            _vertex_set(P_b)

    def test_pair_with_the_singular_point(self, P_b, monkeypatch):
        self._rig(monkeypatch, {plain([], [0]), plain([0], [0, 1]), PreSingular(())})
        with pytest.raises(ClosureViolationError) as err:
            build_tree(P_b)
        msg = str(err.value)
        assert "(0) and 0(0,1) share sector 0" in msg
        assert "every third vertex outside sector 0" in msg


# The check and the tree walks as they were before the tree kept one rooted
# table: every walk a fresh depth-first search over a fresh adjacency, and
# itineraries compared as objects.  The tests below pin the current check,
# ``path`` and the entropy's edge rows to them.


def reference_walk(adj, root, removed=None):
    """The parent of every vertex reached from ``root`` without passing
    through ``removed``, by depth-first search; ``root`` maps to ``None``."""
    parent = {root: None}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt != removed and nxt not in parent:
                parent[nxt] = cur
                stack.append(nxt)
    return parent


def reference_kind(singular, on_orbit, degree):
    if singular:
        return VertexKind.SINGULAR
    if on_orbit:
        return VertexKind.BOTH if degree >= 3 else VertexKind.POST_SINGULAR
    return VertexKind.BRANCH_EXTRA


def reference_cyclic_subsequence(sub, full):
    if len(sub) <= 2:
        return True
    pos = {x: i for i, x in enumerate(full)}
    idx = [pos[x] for x in sub]
    rot = idx.index(min(idx))
    idx = idx[rot:] + idx[:rot]
    return all(idx[i] < idx[i + 1] for i in range(len(idx) - 1))


def reference_check(tree):
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
    if len(tree.edges) != n - 1 or len(reference_walk(adj, 0)) != n:
        raise NotATreeError("vertex/edge data is not a tree")

    sing = tree.singular_point
    if its[sing] != PreSingular(()):
        raise ClosureViolationError("singular point does not carry the itinerary *nu")

    dyn = tree.dynamics
    for i, it in enumerate(its):
        d = dyn[i]
        if not 0 <= d < n or its[d] != shift_itinerary(P, it):
            raise ClosureViolationError(f"dynamics at vertex {it} is not the shift")

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

    firsts = [it.first_symbol() for it in its]
    expected = {}
    for i in range(n):
        if i != sing:
            expected.setdefault(firsts[i], set()).add(i)
    got = {k: set(v) for k, v in tree.sectors}
    if got != expected:
        raise ClosureViolationError("sector labels disagree with first itinerary entries")
    if nu_id not in got.get(0, set()):
        raise ClosureViolationError("the singular value vertex is not in sector 0")
    for nb in adj[sing]:
        comp = reference_walk(adj, nb, removed=sing)
        branch_firsts = {firsts[i] for i in comp}
        if len(branch_firsts) != 1:
            raise ClosureViolationError(
                f"branch at the singular point mixes sectors {sorted(branch_firsts)}"
            )
        if len({dyn[i] for i in comp}) != len(comp):
            raise ClosureViolationError(
                "dynamics folds a branch at the singular point onto itself"
            )

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
        label = {
            w: nb for nb in adj[image] for w in reference_walk(adj, nb, removed=image)
        }
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
            ok = reference_cyclic_subsequence(branch_firsts, sorted(set(branch_firsts)))
        else:
            ok = reference_cyclic_subsequence(branch_images, list(tree.cyclic_order[image]))
        if not ok:
            raise ClosureViolationError(
                f"dynamics does not preserve the cyclic order at {its[i]}"
            )

    for i, v in enumerate(tree.vertices):
        if v.kind != reference_kind(i == sing, i in orbit, len(adj[i])):
            raise ClosureViolationError(f"vertex {its[i]} has the wrong kind {v.kind.value}")


def reference_parents(tree):
    """Parent pointers of a search forest, one root per component."""
    adj = tree.adjacency()
    parent = {}
    for root in adj:
        if root not in parent:
            parent.update(reference_walk(adj, root))
    return parent


def reference_path(parents, a, b):
    for x in (a, b):
        if x not in parents:
            raise NotATreeError(f"no vertex {x}")
    up, down = [a], [b]
    for chain in (up, down):
        while (p := parents[chain[-1]]) is not None:
            chain.append(p)
    if up[-1] != down[-1]:
        raise NotATreeError(f"no path between vertices {a} and {b}")
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    return up + down[-2::-1]


def reference_rows(tree):
    parents = reference_parents(tree)
    index = {e: i for i, (a, b) in enumerate(tree.edges) for e in ((a, b), (b, a))}
    paths = (
        reference_path(parents, tree.dynamics[u], tree.dynamics[v]) for u, v in tree.edges
    )
    return [[index[e] for e in zip(p, p[1:])] for p in paths]


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and text of what it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def mutations(tree, rng, count=3):
    """Trees that differ from ``tree`` in one field, ``count`` of each kind
    where the tree allows, as ``(kind, tree)``; "edge+orders" moves an edge
    and gives the three touched vertices their sorted neighbors as cyclic
    orders, so that the check gets past its bookkeeping."""
    replace = dataclasses.replace
    n, sing = len(tree.vertices), tree.singular_point
    pairs = rng.sample(list(combinations(range(n), 2)), min(count, n * (n - 1) // 2))
    branched = [i for i, o in enumerate(tree.cyclic_order) if o and len(o) >= 2]
    others = [i for i in range(n) if i != sing]
    out = []
    for i, j in pairs:
        dyn = list(tree.dynamics)
        dyn[i], dyn[j] = dyn[j], dyn[i]
        out.append(("dynamics", replace(tree, dynamics=tuple(dyn))))
        v = list(tree.vertices)
        v[i] = replace(v[i], itinerary=v[j].itinerary)
        out.append(("itinerary", replace(tree, vertices=tuple(v))))
    for i in rng.sample(branched, min(count, len(branched))):
        cyclic = list(tree.cyclic_order)
        cyclic[i] = cyclic[i][::-1]
        out.append(("reversed order", replace(tree, cyclic_order=tuple(cyclic))))
    for _ in range(count if n > 2 else 0):
        a, b = rng.choice(tree.edges)
        keep = rng.choice((a, b))
        c = rng.choice([x for x in range(n) if x not in (a, b)])
        edges = tuple(sorted(set(tree.edges) - {(a, b)} | {(min(keep, c), max(keep, c))}))
        moved = replace(tree, edges=edges)
        out.append(("edge", moved))
        cyclic = list(tree.cyclic_order)
        adj = moved.adjacency()
        for x in {a, b, c} - {sing}:
            cyclic[x] = tuple(adj[x])
        out.append(("edge+orders", replace(moved, cyclic_order=tuple(cyclic))))
    for i in rng.sample(range(n), min(count, n)):
        v = list(tree.vertices)
        kind = rng.choice([k for k in VertexKind if k != v[i].kind])
        v[i] = replace(v[i], kind=kind)
        out.append(("kind", replace(tree, vertices=tuple(v))))
    for i in rng.sample(others, min(count, len(others))):
        sectors = dict(tree.sectors)
        home = next(k for k, ids in sectors.items() if i in ids)
        away = rng.choice([k for k in sectors if k != home] or [home + 1])
        sectors[home] = tuple(x for x in sectors[home] if x != i)
        sectors[away] = tuple(sorted(sectors.get(away, ()) + (i,)))
        out.append(("sector", replace(tree, sectors=tuple(sorted(sectors.items())))))
    for j in rng.sample(others, min(count, len(others))):
        out.append(("singular point", replace(tree, singular_point=j)))
    return out


def check_agrees_with_reference(tree, rng, seen=None):
    assert outcome(check_tree_invariants, tree) is None
    for kind, mutant in mutations(tree, rng):
        want = outcome(reference_check, mutant)
        assert outcome(check_tree_invariants, mutant) == want, (str(tree), kind)
        if seen is not None and want is not None:
            seen.add(want[1])


def paths_agree_with_reference(tree):
    """``path`` for every pair of vertices and ids that name none, and the
    entropy's edge rows, as the reference walks give them."""
    parents = reference_parents(tree)
    ids = [v.id for v in tree.vertices] + [-1, len(tree.vertices), 99]
    for a in ids:
        for b in ids:
            got, want = outcome(tree.path, a, b), outcome(reference_path, parents, a, b)
            assert got == want, (str(tree), a, b)


class TestCheckAgainstReference:
    """The check raises what the reference check raises, class and text,
    on single-field mutations of built trees, and passes where it passes."""

    # The reference's messages on the corpus, with itineraries and ids as "#".
    MESSAGES = {
        "vertex/edge data is not a tree",
        "two vertices share an itinerary",
        "singular point does not carry the itinerary #nu",
        "dynamics at vertex # is not the shift",
        "the singular value vertex is not an endpoint",
        "sector labels disagree with first itinerary entries",
        "branch at the singular point mixes sectors # #",
        "cyclic order at vertex # is inconsistent",
        "dynamics folds branches at #",
        "dynamics does not preserve the cyclic order at #",
        "vertex # has the wrong kind branch",
    }

    def test_goldens(self, tree_a, tree_b):
        rng = random.Random(24)
        for tree in (tree_a, tree_b):
            for _ in range(10):
                check_agrees_with_reference(tree, rng)

    def test_acceptance_corpus(self, acceptance_corpus):
        rng, seen = random.Random(2024), set()
        for tree in acceptance_corpus.trees:
            check_agrees_with_reference(tree, rng, seen)
        seen = {re.sub(r"[-\d,()*\[\]]+", "#", m) for m in seen}
        assert self.MESSAGES <= seen, self.MESSAGES - seen

    @pytest.mark.filterwarnings("ignore::exptree.errors.NormalizationWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(wide_partitions(), st.randoms(use_true_random=False))
    def test_wide_bases(self, P, rng):
        tree = build_tree(P)
        check_agrees_with_reference(tree, rng)
        check_agrees_with_reference(tree_from_json(to_json(tree)), rng)


class TestWalksAgainstReference:
    """``path`` and the entropy's edge rows on the rooted table give what
    the reference walks give, on trees and on forests."""

    def trees(self, tree_a, tree_b, corpus):
        return [tree_a, tree_b, *corpus.trees]

    def test_build_hands_in_the_table_the_property_builds(
        self, tree_a, tree_b, acceptance_corpus
    ):
        fields = ("adj", "order", "parent", "pos", "end")
        for tree in self.trees(tree_a, tree_b, acceptance_corpus):
            built, fresh = tree._rooted, dataclasses.replace(tree)._rooted
            assert built is not fresh
            assert [getattr(built, f) for f in fields] == [getattr(fresh, f) for f in fields]

    def test_edge_rows(self, tree_a, tree_b, acceptance_corpus):
        for tree in self.trees(tree_a, tree_b, acceptance_corpus):
            assert _edge_rows(tree) == reference_rows(tree), str(tree)

    def test_paths(self, tree_a, tree_b, acceptance_corpus):
        for tree in self.trees(tree_a, tree_b, acceptance_corpus)[:40]:
            paths_agree_with_reference(tree)

    def test_forests(self, tree_a, tree_b, acceptance_corpus):
        for tree in self.trees(tree_a, tree_b, acceptance_corpus)[:20]:
            for e in tree.edges:
                cut = dataclasses.replace(tree, edges=tuple(x for x in tree.edges if x != e))
                paths_agree_with_reference(cut)
                assert outcome(_edge_rows, cut) == outcome(reference_rows, cut)

    def test_repeated_edges(self, tree_a, tree_b, acceptance_corpus):
        # Either orientation, before or after the edge it repeats: the row
        # of a path through it names the copy listed last.
        for tree in self.trees(tree_a, tree_b, acceptance_corpus)[:20]:
            for a, b in tree.edges:
                for extra in ((a, b), (b, a)):
                    for edges in (tree.edges + (extra,), (extra,) + tree.edges):
                        doubled = dataclasses.replace(tree, edges=edges)
                        assert _edge_rows(doubled) == reference_rows(doubled)

    def test_edges_that_close_a_cycle(self, tree_a, tree_b, acceptance_corpus):
        rng = random.Random(5)
        for tree in self.trees(tree_a, tree_b, acceptance_corpus)[:20]:
            listed = set(tree.edges)
            pairs = [p for p in combinations(range(len(tree.vertices)), 2) if p not in listed]
            for a, b in rng.sample(pairs, min(5, len(pairs))):
                for extra in ((a, b), (b, a)):
                    cyclic = dataclasses.replace(tree, edges=tree.edges + (extra,))
                    paths_agree_with_reference(cyclic)
                    assert _edge_rows(cyclic) == reference_rows(cyclic)

    @pytest.mark.filterwarnings("ignore::exptree.errors.NormalizationWarning")
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(wide_partitions())
    def test_wide_bases(self, P):
        tree = build_tree(P)
        assert _edge_rows(tree) == reference_rows(tree)
        paths_agree_with_reference(tree)
