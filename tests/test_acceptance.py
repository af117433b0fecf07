"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers.  Tolerances are fixed here, not configurable.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time

import pytest

from exptree.analysis import (
    core_entropy,
    same_map,
    spectral_radius_exact,
    spectral_radius_power,
    transition_matrix,
    tree_equivalent,
)
from exptree.partition import Plain, PreSingular, itinerary, validate_base
from exptree.realization import addresses_of, addresses_of_periodic
from exptree.sequences import canonicalize
from exptree.treebuild import build_tree
from exptree.verify import (
    suite_interval_pullbacks,
    suite_interval_splitting,
    suite_order_preservation,
    suite_semiconjugacy,
    suite_separating,
    suite_tree_axioms,
    suite_unlinked,
    suite_vertex_closure,
)

from oracles import epsilon_search, itinerary_entries, oracle_m_limit, pullback

SEED = 20240810


def addr(pre, per):
    return canonicalize(pre, per)


def plain(pre, per):
    return Plain(canonicalize(pre, per))


def test_criterion_1_golden_example_a():
    t0 = time.perf_counter()
    P = validate_base(addr([0], [1]))
    assert P.kneading == plain([0], [1])
    tree = build_tree(P)
    ids = tree.vertex_by_itinerary()
    v_t = ids[PreSingular(())]
    nu = ids[plain([0], [1])]
    one = ids[plain([], [1])]
    assert len(tree.vertices) == 3
    assert set(tree.edges) == {
        tuple(sorted((nu, v_t))),
        tuple(sorted((v_t, one))),
    }
    assert tree.dynamics[v_t] == nu
    assert tree.dynamics[nu] == one
    assert tree.dynamics[one] == one
    assert tree.sector_map() == {0: (nu,), 1: (one,)}
    entropy = core_entropy(tree)
    assert abs(entropy - math.log(2)) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    print(f"\nACCEPTANCE 1: PASS (entropy={entropy:.9f}, {elapsed * 1e3:.1f} ms)")


def test_criterion_2_golden_example_b():
    t0 = time.perf_counter()
    P = validate_base(addr([0], [0, 1]))
    assert P.kneading == plain([0], [0, 1])
    tree = build_tree(P)
    assert len(tree.vertices) == 5
    ids = tree.vertex_by_itinerary()
    w = ids[plain([], [0])]
    adj = tree.adjacency()
    assert len(adj[w]) == 3
    assert tree.dynamics[w] == w
    found = addresses_of_periodic(P, plain([], [0]))
    assert set(found.addresses) == {
        addr([], [0, 0, 1]),
        addr([], [0, 1, 0]),
        addr([], [1, 0, 0]),
    }
    nu = ids[plain([0], [0, 1])]
    snu = ids[plain([], [0, 1])]
    v_t = ids[PreSingular(())]
    order = tree.cyclic_order[w]
    assert (nu, snu, v_t) in [order[i:] + order[:i] for i in range(3)]
    entropy = core_entropy(tree)
    rho_exact = spectral_radius_exact(transition_matrix(tree).matrix)
    assert abs(rho_exact**3 - (rho_exact + 2)) < 1e-12  # the real root of x^3 = x + 2
    assert abs(entropy - math.log(rho_exact)) < 1e-3
    assert abs(entropy - 0.4196) < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    print(f"\nACCEPTANCE 2: PASS (entropy={entropy:.9f}, {elapsed * 1e3:.1f} ms)")


def test_criterion_3_oracle_equivalence(acceptance_corpus):
    t0 = time.perf_counter()
    compared = skipped = 0
    mismatches = []
    oracle_cache: dict = {}
    for base_idx, (P, tree) in enumerate(
        zip(acceptance_corpus.partitions, acceptance_corpus.trees)
    ):
        s = P.base
        plain_its = {
            v.itinerary for v in tree.vertices if isinstance(v.itinerary, Plain)
        }
        for it in plain_its:
            target = list(it.seq.period)
            limit = oracle_m_limit(len(target), budget=2**16, m_max=8)
            periodic = addresses_of_periodic(P, Plain(canonicalize((), target)))
            m_star = len(periodic.addresses[0].period) // len(target)
            if m_star > limit:
                skipped += 1
                continue
            key = (base_idx, tuple(target))
            if key not in oracle_cache:
                raw = epsilon_search(s.preperiod, s.period, target, limit)
                oracle_cache[key] = {canonicalize((), w) for w in raw}
            oracle_set = oracle_cache[key]
            if oracle_set != set(periodic.addresses):
                mismatches.append((str(s), str(it)))
                continue
            if it.seq.preperiod:
                # Reconstruct the preperiodic family independently:
                # oracle pullbacks filtered by the oracle itinerary.
                want = set()
                depth = len(it.seq.preperiod) + len(it.seq.period) + 2
                for a in oracle_set:
                    cur = (list(a.preperiod), list(a.period))
                    for k in reversed(it.seq.preperiod):
                        cur = pullback(s.preperiod, s.period, k, *cur)
                    got_its = itinerary_entries(
                        s.preperiod, s.period, cur[0], cur[1], depth
                    )
                    if got_its == [it.seq.entry(i) for i in range(1, depth + 1)]:
                        want.add(canonicalize(*cur))
                lib = set(addresses_of(P, it).addresses)
                if lib != want:
                    mismatches.append((str(s), str(it)))
                    continue
            compared += 1
    elapsed = time.perf_counter() - t0
    assert not mismatches, f"oracle mismatches: {mismatches}"
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 3: PASS ({compared} itineraries oracle-checked, "
        f"{skipped} beyond the 2^16 budget, {elapsed:.1f} s)"
    )


def test_criterion_4_property_suites(acceptance_corpus):
    t0 = time.perf_counter()
    rng = random.Random(SEED + 4)
    results = [
        suite_vertex_closure(acceptance_corpus),
        suite_tree_axioms(acceptance_corpus),
        suite_unlinked(acceptance_corpus, rng, pairs_per_base=5),
        suite_separating(acceptance_corpus, rng, n_triods=500),
        suite_order_preservation(acceptance_corpus, rng, reps=1000),
        suite_interval_pullbacks(acceptance_corpus, rng, reps=1000),
        suite_interval_splitting(acceptance_corpus, rng, reps=1000),
        suite_semiconjugacy(acceptance_corpus, rng, n_triods=500),
    ]
    elapsed = time.perf_counter() - t0
    for res in results:
        assert not res.failures, f"{res.name}: {res.failures[:5]}"
    total = sum(res.cases for res in results)
    print(f"\nACCEPTANCE 4: PASS ({total} checks across 8 suites, {elapsed:.1f} s)")


def test_criterion_5_classification(acceptance_corpus):
    t0 = time.perf_counter()
    rng = random.Random(SEED + 5)
    corpus = acceptance_corpus
    sibling_checks = 0
    for P, tree in zip(corpus.partitions, corpus.trees):
        siblings = addresses_of(P, P.kneading).addresses
        assert P.base in siblings
        for s2 in siblings:
            assert same_map(P.base, s2), f"{P.base} vs {s2}"
            assert tree_equivalent(tree, build_tree(validate_base(s2)))
            sibling_checks += 1
    cross = 0
    while cross < 100:
        i, j = rng.randrange(len(corpus.bases)), rng.randrange(len(corpus.bases))
        if i == j or same_map(corpus.bases[i], corpus.bases[j]):
            continue
        assert not tree_equivalent(corpus.trees[i], corpus.trees[j]), (
            corpus.bases[i],
            corpus.bases[j],
        )
        cross += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 5: PASS ({sibling_checks} sibling checks, "
        f"{cross} cross pairs, {elapsed:.1f} s)"
    )


def test_criterion_6_entropy_method_agreement(acceptance_corpus):
    t0 = time.perf_counter()
    checked = reported = 0
    for P, tree in zip(acceptance_corpus.partitions, acceptance_corpus.trees):
        A = transition_matrix(tree).matrix
        if A.shape[0] > 12:
            reported += 1
            continue
        rho_p = spectral_radius_power(A, tol=1e-9)
        rho_e = spectral_radius_exact(A)
        assert abs(rho_p - rho_e) < 1e-9, f"{P.base}: {rho_p} vs {rho_e}"
        checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 6: PASS ({checked} matrices agree to 1e-9, "
        f"{reported} larger than 12x12 reported, {elapsed:.1f} s)"
    )
