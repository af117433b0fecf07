"""Exhaustive tier: every strictly preperiodic base with entries in
{-1, 0, 1}, a leading 0, preperiod at most 4 (counting that 0) and
period at most 3 -- 880 bases, beyond the random corpus's shape."""

import math
from collections import Counter, defaultdict
from itertools import combinations, product

import pytest

from exptree.analysis import core_entropy, same_map, transition_matrix, tree_equivalent
from exptree.partition import validate_base
from exptree.sequences import canonicalize
from exptree.treebuild import VertexKind, build_tree, check_tree_invariants

from oracles import numpy_spectral_radius


def small_bases():
    bases = {}
    for p in range(4):
        for q in range(1, 4):
            for pre in product((-1, 0, 1), repeat=p):
                for per in product((-1, 0, 1), repeat=q):
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
