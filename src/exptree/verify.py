"""Randomized property suites over seeded corpora of base addresses.

Each suite checks one family of structural facts (order preservation,
interval pullbacks, triod semi-conjugacy, separation counts, vertex-set
closure, tree axioms, classification consistency, entropy agreement) on
randomly generated instances and reports violations as messages rather
than raising, so a run always produces a full report.  All randomness is
drawn from explicitly seeded generators; a fixed seed gives a fixed
report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

from .analysis import (
    _dense,
    _edge_rows,
    core_entropy,
    same_map,
    spectral_radius_exact,
    spectral_radius_power,
    tree_equivalent,
)
from .errors import ExptreeError, GapAssignmentFailureError
from .partition import (
    Boundary,
    Partition,
    Plain,
    PreSingular,
    inverse_branch,
    is_in_S_nu,
    itinerary,
    sector_of,
    shift_itinerary,
    validate_base,
)
from .realization import _vertex_sheets, addresses_of, separating_addresses
from .sequences import ExtAddress, canonicalize, cyclic_between
from .treebuild import AbstractHubbardTree, build_tree, omega_plus
from .triods import (
    AddressTriod,
    Triod,
    address_triod_step,
    majority_vote,
    middle_point,
    to_itinerary_triod,
    triod_step,
)

__all__ = [
    "Corpus",
    "SuiteResult",
    "make_corpus",
    "random_base",
    "run_all",
]


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(message)

    def ok(self) -> bool:
        return not self.failures


def random_base(
    rng: random.Random,
    max_preperiod: int = 3,
    max_period: int = 4,
    entry_range: int = 3,
) -> ExtAddress:
    """A random strictly preperiodic address with leading entry 0."""
    while True:
        pre = [0] + [
            rng.randint(-entry_range, entry_range)
            for _ in range(rng.randint(0, max_preperiod - 1))
        ]
        per = [
            rng.randint(-entry_range, entry_range)
            for _ in range(rng.randint(1, max_period))
        ]
        a = canonicalize(pre, per)
        if not a.is_periodic() and a.entry(1) == 0:
            return a


def random_external_address(
    rng: random.Random, P: Partition, entry_range: int = 4
) -> ExtAddress:
    """A random address: generic, boundary preimage, or sector pullback."""
    kind = rng.random()
    if kind < 0.7:
        pre = [rng.randint(-entry_range, entry_range) for _ in range(rng.randint(0, 3))]
        per = [rng.randint(-entry_range, entry_range) for _ in range(rng.randint(1, 4))]
        return canonicalize(pre, per)
    if kind < 0.85:
        return P.base.prepend(rng.randint(-entry_range, entry_range))
    a = P.base.prepend(rng.randint(-entry_range, entry_range))
    for _ in range(rng.randint(1, 2)):
        a = inverse_branch(P, rng.randint(-2, 2), a)
    return a


def _check_support(
    count: int, max_preperiod: int, max_period: int, entry_range: int
) -> None:
    """Raise :class:`ValueError` unless :func:`random_base` can return
    ``count`` distinct bases.

    Walks the words that :func:`random_base` draws from in a fixed order
    and stops at the ``count``-th distinct base, so a feasible count costs
    about as many steps as drawing the corpus.
    """
    entries = range(-entry_range, entry_range + 1)
    found: set[ExtAddress] = set()
    for n, m in product(range(max_preperiod), range(1, max_period + 1)):
        for pre in product(entries, repeat=n):
            for per in product(entries, repeat=m):
                if len(found) >= count:
                    return
                a = canonicalize((0,) + pre, per)
                if not a.is_periodic() and a.entry(1) == 0:
                    found.add(a)
    if len(found) < count:
        raise ValueError(
            f"only {len(found)} distinct bases have preperiod <= {max_preperiod}, "
            f"period <= {max_period} and entries in [-{entry_range}, {entry_range}]; "
            f"asked for {count}"
        )


@dataclass
class Corpus:
    bases: list[ExtAddress]
    partitions: list[Partition]
    trees: list[AbstractHubbardTree]


def make_corpus(
    count: int,
    seed: int,
    max_preperiod: int = 3,
    max_period: int = 4,
    entry_range: int = 3,
    build_trees: bool = True,
) -> Corpus:
    """A deterministic corpus of distinct base addresses (plus trees).

    Raises :class:`ValueError` when :func:`random_base` has fewer than
    ``count`` distinct bases to give under the options.
    """
    _check_support(count, max_preperiod, max_period, entry_range)
    rng = random.Random(seed)
    bases: list[ExtAddress] = []
    seen = set()
    while len(bases) < count:
        a = random_base(rng, max_preperiod, max_period, entry_range)
        if a not in seen:
            seen.add(a)
            bases.append(a)
    partitions = [validate_base(a) for a in bases]
    trees = [build_tree(P) for P in partitions] if build_trees else []
    return Corpus(bases, partitions, trees)


def _random_address_triod(
    rng: random.Random, P: Partition, max_tries: int = 200
) -> AddressTriod | None:
    for _ in range(max_tries):
        triple = {random_external_address(rng, P) for _ in range(3)}
        if len(triple) != 3:
            continue
        members = sorted(triple)
        its = [itinerary(P, a) for a in members]
        if len(set(its)) != 3:
            continue
        if not all(is_in_S_nu(P, it) for it in its):
            continue
        return AddressTriod(tuple(members), P)
    return None


def _vertex_address_triod(
    rng: random.Random, P: Partition, tree: AbstractHubbardTree
) -> AddressTriod | None:
    """A triod of addresses realizing three random tree vertices."""
    ids = rng.sample(range(len(tree.vertices)), 3)
    members = []
    for i in ids:
        it = tree.vertices[i].itinerary
        if isinstance(it, PreSingular):
            span = _vertex_sheets(P, tree.sectors)
            addrs = addresses_of(P, it, m_range=span).addresses
        else:
            addrs = addresses_of(P, it).addresses
        members.append(rng.choice(addrs))
    if len(set(members)) != 3:
        return None
    return AddressTriod(tuple(sorted(members)), P)


# ---------------------------------------------------------------- suites


def suite_vertex_closure(corpus: Corpus) -> SuiteResult:
    """Vertex sets are shift invariant and closed under taking triods."""
    res = SuiteResult("vertex-set closure")
    for P, tree in zip(corpus.partitions, corpus.trees):
        verts = {v.itinerary for v in tree.vertices}
        for it in verts:
            res.check(
                is_in_S_nu(P, it), f"{P.base}: vertex {it} not a formal point"
            )
            res.check(
                shift_itinerary(P, it) in verts,
                f"{P.base}: shift of {it} leaves the vertex set",
            )
        for tri in combinations(sorted(verts, key=str), 3):
            b = middle_point(Triod(tri, P))
            res.check(b in verts, f"{P.base}: middle of {tri} = {b} not a vertex")
    return res


def suite_tree_axioms(corpus: Corpus) -> SuiteResult:
    """Tree axioms, endpoint condition, singular value is an endpoint."""
    res = SuiteResult("tree axioms")
    for P, tree in zip(corpus.partitions, corpus.trees):
        n = len(tree.vertices)
        adj = tree.adjacency()
        res.check(len(tree.edges) == n - 1, f"{P.base}: |E| != |V|-1")
        reach = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        res.check(len(reach) == n, f"{P.base}: tree not connected")
        orbit = set(omega_plus(P))
        for i in range(n):
            if len(adj[i]) == 1:
                res.check(
                    tree.vertices[i].itinerary in orbit,
                    f"{P.base}: endpoint {tree.vertices[i].itinerary} off the singular orbit",
                )
        nu_id = tree.vertex_by_itinerary()[Plain(P.kneading.seq)]
        res.check(len(adj[nu_id]) == 1, f"{P.base}: singular value is not an endpoint")
    return res


def suite_unlinked(corpus: Corpus, rng: random.Random, pairs_per_base: int = 6) -> SuiteResult:
    """Address families of distinct itineraries never interleave."""
    res = SuiteResult("unlinked address families")
    for P, tree in zip(corpus.partitions, corpus.trees):
        plain = [
            v.itinerary for v in tree.vertices if isinstance(v.itinerary, Plain)
        ]
        if len(plain) < 2:
            continue
        for _ in range(pairs_per_base):
            t, u = rng.sample(plain, 2)
            T = addresses_of(P, t).addresses
            U = addresses_of(P, u).addresses
            linked = False
            for a, a2 in combinations(T, 2):
                for b, b2 in combinations(U, 2):
                    if (cyclic_between(a, b, a2) and cyclic_between(a2, b2, a)) or (
                        cyclic_between(a, b2, a2) and cyclic_between(a2, b, a)
                    ):
                        linked = True
            res.check(not linked, f"{P.base}: families of {t} and {u} are linked")
    return res


def suite_separating(
    corpus: Corpus, rng: random.Random, n_triods: int = 500
) -> SuiteResult:
    """Separation counts of the middle point, both directions."""
    res = SuiteResult("separating addresses")
    shapes_seen = set()
    made = 0
    while made < n_triods:
        idx = rng.randrange(len(corpus.partitions))
        P = corpus.partitions[idx]
        tree = corpus.trees[idx]
        A = (
            _vertex_address_triod(rng, P, tree)
            if rng.random() < 0.5
            else _random_address_triod(rng, P)
        )
        if A is None:
            continue
        made += 1
        try:
            shape, assignments = separating_addresses(P, A)
        except GapAssignmentFailureError as exc:
            res.check(False, f"{P.base}: {A}: {exc}")
            continue
        except ExptreeError as exc:
            res.check(False, f"{P.base}: {A}: unexpected {exc}")
            continue
        shapes_seen.add(shape.is_linear())
        res.check(True, "")
        # Converse direction: no other formal point admits a separating
        # family for this triod.
        T = to_itinerary_triod(A)
        b = middle_point(T)
        others = [
            v.itinerary
            for v in tree.vertices
            if isinstance(v.itinerary, Plain) and v.itinerary != b
        ]
        rng.shuffle(others)
        for b2 in others[:2]:
            covered = set()
            is_member = [False, False, False]
            for a in addresses_of(P, b2).addresses:
                for i, t in enumerate(A.members):
                    if a == t:
                        is_member[i] = True
                for i in range(3):
                    lo, hi = A.members[i], A.members[(i + 1) % 3]
                    if a not in (lo, hi) and cyclic_between(lo, a, hi):
                        covered.add(i)
            res.check(
                len(covered) < 3,
                f"{P.base}: {A}: non-middle {b2} covers every gap",
            )
            for j in range(3):
                if is_member[j] and itinerary(P, A.members[j]) == b2:
                    opposite = (j + 1) % 3
                    sep_exists = opposite in covered
                    if sep_exists:
                        res.check(
                            shape.is_linear() and b == b2,
                            f"{P.base}: {A}: member {j + 1} with {b2} separates "
                            "but the triod middle differs",
                        )
    if len(shapes_seen) < 2:
        res.failures.append("random triods did not include both shapes")
    return res


def suite_order_preservation(
    corpus: Corpus, rng: random.Random, reps: int = 1000
) -> SuiteResult:
    """The shift restricted to a half-open sector preserves cyclic order,
    and the inverse branches are order-preserving right inverses."""
    res = SuiteResult("order preservation")
    for _ in range(reps):
        P = rng.choice(corpus.partitions)
        k = rng.randint(-3, 3)
        us = {random_external_address(rng, P) for _ in range(3)}
        if len(us) != 3:
            continue
        pulled = [inverse_branch(P, k, u) for u in us]
        lo, hi = P.sector_bounds(k)
        for u, t in zip(us, pulled):
            res.check(t.shift() == u, f"{P.base}: pullback of {u} is not a section")
            inside = (t == hi) or (lo < t < hi)
            res.check(inside, f"{P.base}: pullback of {u} misses sector {k}")
        a, b, c = sorted(pulled)
        res.check(
            cyclic_between(a.shift(), b.shift(), c.shift()),
            f"{P.base}: shift breaks cyclic order of {a}, {b}, {c}",
        )
    return res


def suite_interval_pullbacks(
    corpus: Corpus, rng: random.Random, reps: int = 1000
) -> SuiteResult:
    """Pulling an image-triod gap back into the majority sector lands in
    the corresponding gap of the source triod."""
    res = SuiteResult("interval pullbacks")
    done = 0
    while done < reps:
        P = rng.choice(corpus.partitions)
        A = _random_address_triod(rng, P)
        if A is None:
            continue
        nxt = address_triod_step(A)
        if nxt is None:
            continue
        try:
            k = majority_vote(to_itinerary_triod(A))
        except ExptreeError:
            continue
        done += 1
        for _ in range(4):
            x = random_external_address(rng, P)
            if x in nxt.members:
                continue
            n = next(
                (
                    i
                    for i in range(3)
                    if cyclic_between(nxt.members[i], x, nxt.members[(i + 1) % 3])
                ),
                None,
            )
            if n is None:
                continue
            v = inverse_branch(P, k, x)
            if isinstance(sector_of(P, v), Boundary) or v in A.members:
                continue
            res.check(
                cyclic_between(A.members[n], v, A.members[(n + 1) % 3]),
                f"{P.base}: pullback of {x} left gap {n + 1} of {A}",
            )
    return res


def suite_interval_splitting(
    corpus: Corpus, rng: random.Random, reps: int = 1000
) -> SuiteResult:
    """Pullbacks of an interval avoiding the base address into one sector
    share their first entry."""
    res = SuiteResult("interval splitting")
    done = 0
    while done < reps:
        P = rng.choice(corpus.partitions)
        k = rng.randint(-3, 3)
        xs = sorted(
            {
                inverse_branch(P, k, random_external_address(rng, P))
                for _ in range(2)
            }
        )
        if len(xs) != 2:
            continue
        x, y = xs
        if x < P.base < y:
            continue  # the interval (x, y) must avoid the base address
        k2 = rng.randint(-3, 3)
        done += 1
        firsts = set()
        for _ in range(6):
            z = random_external_address(rng, P)
            if not (x < z < y):
                continue
            w = inverse_branch(P, k2, z)
            firsts.add(w.entry(1))
        res.check(
            len(firsts) <= 1,
            f"{P.base}: pullbacks of ({x},{y}) into sector {k2} got first entries {sorted(firsts)}",
        )
    return res


def suite_semiconjugacy(
    corpus: Corpus, rng: random.Random, n_triods: int = 500, max_steps: int = 60
) -> SuiteResult:
    """The itinerary map semi-conjugates the two triod maps, and both
    reach the stop case at the same step."""
    res = SuiteResult("triod semi-conjugacy")
    made = 0
    while made < n_triods:
        P = rng.choice(corpus.partitions)
        A = _random_address_triod(rng, P)
        if A is None:
            continue
        made += 1
        T = to_itinerary_triod(A)
        cur_a, cur_t = A, T
        for _ in range(max_steps):
            res.check(
                to_itinerary_triod(cur_a).members == cur_t.members,
                f"{P.base}: semi-conjugacy broken at {cur_a}",
            )
            na = address_triod_step(cur_a)
            nt = triod_step(cur_t)
            res.check(
                (na is None) == (nt is None),
                f"{P.base}: stop mismatch for {cur_a}",
            )
            if na is None or nt is None:
                break
            cur_a, cur_t = na, nt
    return res


def suite_partition_properties(
    corpus: Corpus, rng: random.Random, reps: int = 400
) -> SuiteResult:
    """Shift equivariance of itineraries, boundary sheets, and kneading
    agreement across partitions of the same map."""
    res = SuiteResult("partition properties")
    for _ in range(reps):
        P = rng.choice(corpus.partitions)
        t = random_external_address(rng, P)
        it = itinerary(P, t)
        if isinstance(it, Plain):
            res.check(
                itinerary(P, t.shift()) == shift_itinerary(P, it),
                f"{P.base}: itinerary of {t} is not shift equivariant",
            )
        m = rng.randint(-4, 4)
        res.check(
            sector_of(P, P.base.prepend(m)) == Boundary(m),
            f"{P.base}: boundary sheet {m} misidentified",
        )
    for P in corpus.partitions:
        for s2 in addresses_of(P, P.kneading):
            P2 = validate_base(s2)
            res.check(
                P2.kneading == P.kneading,
                f"{P.base}: sibling base {s2} has kneading {P2.kneading}",
            )
            for it in omega_plus(P)[1:]:
                for a in addresses_of(P, it).addresses[:2]:
                    res.check(
                        itinerary(P2, a) == it,
                        f"{P.base}/{s2}: post-singular address {a} changes itinerary",
                    )
    return res


def suite_classification(
    corpus: Corpus, rng: random.Random, n_cross: int = 100
) -> SuiteResult:
    """Bases with equal kneading data give the same map and equal trees;
    bases that are not the same map give inequivalent trees."""
    res = SuiteResult("classification")
    for P, tree in zip(corpus.partitions, corpus.trees):
        siblings = addresses_of(P, P.kneading).addresses
        res.check(P.base in siblings, f"{P.base}: base does not realize its kneading")
        for s2 in siblings:
            res.check(same_map(P.base, s2), f"{P.base}: same_map fails for {s2}")
            res.check(
                tree_equivalent(tree, build_tree(validate_base(s2))),
                f"{P.base}: tree differs for sibling {s2}",
            )
    if all(same_map(s1, s2) for s1, s2 in permutations(corpus.bases, 2)):
        res.notes.append("no two corpus bases are of different maps: no cross checks")
        return res
    done = 0
    while done < n_cross:
        i, j = rng.randrange(len(corpus.bases)), rng.randrange(len(corpus.bases))
        if i == j:
            continue
        s1, s2 = corpus.bases[i], corpus.bases[j]
        if same_map(s1, s2):
            continue
        done += 1
        res.check(
            not tree_equivalent(corpus.trees[i], corpus.trees[j]),
            f"distinct maps {s1}, {s2} got equivalent trees",
        )
    return res


def suite_entropy_agreement(corpus: Corpus, tol: float = 1e-9) -> SuiteResult:
    """Power-iteration and exact spectral radii agree on small matrices,
    and the core entropy is the log of the exact radius."""
    res = SuiteResult("entropy agreement")
    for P, tree in zip(corpus.partitions, corpus.trees):
        A = _dense(_edge_rows(tree))
        if len(A) > 12:
            res.notes.append(f"{P.base}: matrix {len(A)}x{len(A)} not cross-checked")
            continue
        try:
            rho_p = spectral_radius_power(A, tol=tol)
        except ExptreeError as exc:
            res.check(False, f"{P.base}: power iteration failed: {exc}")
            continue
        rho_e = spectral_radius_exact(A)
        res.check(
            abs(rho_p - rho_e) < tol,
            f"{P.base}: spectral radii differ: {rho_p} vs {rho_e}",
        )
        h, want = core_entropy(tree, tol=tol), math.log(max(rho_e, 1.0))
        res.check(abs(h - want) < tol, f"{P.base}: entropy {h} is not log {rho_e}")
    return res


def run_all(
    count: int = 25,
    seed: int = 2024,
    max_preperiod: int = 3,
    max_period: int = 4,
    entry_range: int = 3,
) -> list[SuiteResult]:
    """Run every suite on a fresh corpus; scales repetitions with size."""
    corpus = make_corpus(count, seed, max_preperiod, max_period, entry_range)
    rng = random.Random(seed + 1)
    scale = max(1, count // 5)
    return [
        suite_vertex_closure(corpus),
        suite_tree_axioms(corpus),
        suite_unlinked(corpus, rng, pairs_per_base=4),
        suite_order_preservation(corpus, rng, reps=100 * scale),
        suite_interval_pullbacks(corpus, rng, reps=60 * scale),
        suite_interval_splitting(corpus, rng, reps=60 * scale),
        suite_semiconjugacy(corpus, rng, n_triods=40 * scale),
        suite_separating(corpus, rng, n_triods=30 * scale),
        suite_partition_properties(corpus, rng, reps=40 * scale),
        suite_classification(corpus, rng, n_cross=10 * scale),
        suite_entropy_agreement(corpus),
    ]
