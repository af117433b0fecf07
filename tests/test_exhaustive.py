"""Exhaustive tier: every strictly preperiodic base with entries in
{-1, 0, 1}, a leading 0, preperiod at most 4 (counting that 0) and
period at most 3 -- 880 bases, beyond the random corpus's shape.  With
entries in [-2, 2] there are 18,096 such bases; the trees of those with
a second ray at the singular value are checked against every such ray."""

import math
from collections import Counter, defaultdict
from itertools import combinations, product

import pytest

from exptree.analysis import core_entropy, same_map, transition_matrix, tree_equivalent
from exptree.notation import parse_address
from exptree.partition import PreSingular, validate_base
from exptree.realization import _pullback, _sorted, _vertex_sheets, addresses_of
from exptree.sequences import _min_rotation, canonicalize
from exptree.treebuild import (
    VertexKind,
    _cyclic_order_by_gaps,
    build_tree,
    check_tree_invariants,
)

from oracles import numpy_spectral_radius


def small_bases(entries=(-1, 0, 1)):
    bases = {}
    for p in range(4):
        for q in range(1, 4):
            for pre in product(entries, repeat=p):
                for per in product(entries, repeat=q):
                    s = canonicalize([0, *pre], list(per))
                    if not s.is_periodic():
                        bases.setdefault(s, None)
    return list(bases)


@pytest.fixture(scope="module")
def small_trees():
    return [(s, build_tree(validate_base(s))) for s in small_bases()]


def test_every_small_base_builds(small_trees):
    assert len(small_trees) == 880
    kinds = Counter()
    for _, tree in small_trees:
        check_tree_invariants(tree)
        kinds.update(v.kind for v in tree.vertices)
    assert set(kinds) == set(VertexKind)
    assert kinds[VertexKind.BOTH] == 36


def test_entropy_matches_the_eigenvalue_oracle(small_trees):
    for s, tree in small_trees:
        rho = numpy_spectral_radius(transition_matrix(tree).matrix)
        want = math.log(rho) if rho > 1.0 else 0.0
        assert abs(core_entropy(tree) - want) < 1e-9, s


def test_same_map_is_tree_equivalence_per_kneading_class(small_trees):
    classes = defaultdict(list)
    for s, tree in small_trees:
        classes[str(tree.partition.kneading)].append((s, tree))
    for members in classes.values():
        for (s1, t1), (s2, t2) in combinations(members, 2):
            assert same_map(s1, s2) == same_map(s2, s1) == tree_equivalent(t1, t2), (
                s1,
                s2,
            )


def orders_from_every_ray_at_nu(P, rays):
    """Check the tree's cyclic order at each branch vertex other than
    ``*nu`` against the gaps of addresses that realize ``*nu`` on the
    sheets ``m.a`` for every address ``a`` of ``nu`` (``rays``), not only
    for ``a = s``, over the build's own sheet range; a pre-singular vertex
    takes their pullbacks.  These are the rays that
    ``separating_addresses`` pulls back.  Returns the itineraries of the
    vertices checked."""
    tree = build_tree(P)
    its = [v.itinerary for v in tree.vertices]
    star = [a.prepend(m) for a in rays for m in _vertex_sheets(P, tree.sectors)]
    addrs = [
        _sorted(_pullback(P, it.prefix, star))
        if isinstance(it, PreSingular)
        else addresses_of(P, it).addresses
        for it in its
    ]
    table, checked = tree._rooted, []
    for v, nbrs in table.adj.items():
        if v == tree.singular_point or len(nbrs) < 3:
            continue
        branches = [(nb, sorted(table.branch(v, nb))) for nb in nbrs]
        order = _cyclic_order_by_gaps(v, branches, its, addrs, [])
        assert _min_rotation(order) == tree.cyclic_order[v], f"{P.base} at {its[v]}"
        checked.append(its[v])
    return checked


def test_every_ray_at_nu_gives_the_built_cyclic_orders():
    bases = small_bases(range(-2, 3))
    assert len(bases) == 18_096
    two_rays = checked = presingular = 0
    for s in bases:
        P = validate_base(s)
        rays = addresses_of(P, P.kneading).addresses
        if len(rays) < 2:
            continue
        two_rays += 1
        its = orders_from_every_ray_at_nu(P, rays)
        checked += len(its)
        presingular += sum(isinstance(it, PreSingular) for it in its)
    assert (two_rays, checked, presingular) == (548, 248, 108)


@pytest.mark.parametrize("base", ["0,-2(-1,0)", "0,-3,3(-1,0)"])
def test_separate_reproducers_have_no_other_branch_vertex(base):
    # These bases have two rays at nu and triods whose middle point w.nu
    # is a preimage of the singular value (see test_realization.py), but
    # their trees have no branch vertex other than *nu: no cyclic order
    # there depends on the sheets m.a.
    P = validate_base(parse_address(base))
    rays = addresses_of(P, P.kneading).addresses
    assert len(rays) == 2
    assert orders_from_every_ray_at_nu(P, rays) == []
