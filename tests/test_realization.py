import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from exptree import realization
from exptree.errors import (
    EmptyRangeError,
    InternalInvariantError,
    NormalizationWarning,
    RealizationBoundExceededError,
)
from exptree.notation import parse_address
from exptree.partition import Plain, PreSingular, inverse_branch, itinerary, validate_base
from exptree.realization import (
    _periodic_search,
    _stop_stage,
    addresses_of,
    addresses_of_periodic,
    separating_addresses,
)
from exptree.sequences import canonicalize, cyclic_between
from exptree.treebuild import build_tree
from exptree import triods
from exptree.triods import (
    AddressTriod,
    address_triod_step,
    classify,
    middle_point,
    to_itinerary_triod,
)
from exptree.verify import _random_address_triod

from oracles import epsilon_search, itinerary_entries, oracle_m_limit


def addr(pre, per):
    return canonicalize(pre, per)


def plain(pre, per):
    return Plain(canonicalize(pre, per))


class TestPeriodic:
    def test_fixed_itinerary_golden_a(self, P_a):
        got = addresses_of_periodic(P_a, plain([], [1]))
        assert [str(a) for a in got] == ["(1)"]

    def test_period_three_over_period_one(self, P_b):
        got = addresses_of_periodic(P_b, plain([], [0]))
        assert set(got.addresses) == {
            addr([], [0, 0, 1]),
            addr([], [0, 1, 0]),
            addr([], [1, 0, 0]),
        }

    def test_period_two(self, P_b):
        got = addresses_of_periodic(P_b, plain([], [0, 1]))
        assert got.addresses == (addr([], [0, 1]),)

    def test_all_results_realize(self, P_b):
        for target in ([0], [1], [0, 1], [1, 0], [0, 0, 1]):
            for a in addresses_of_periodic(P_b, plain([], target)):
                assert itinerary(P_b, a) == plain([], target)

    def test_bound_exceeded(self, P_b):
        # (0) needs multiplier 3; an m_max of 2 must fail loudly.
        with pytest.raises(RealizationBoundExceededError):
            addresses_of_periodic(P_b, plain([], [0]), m_max=2)

    def test_multiplier_beyond_eight(self):
        P = validate_base(addr([0], [1, 0, 0] * 3 + [2]))
        got = addresses_of_periodic(P, plain([], [0]))
        assert {len(a.period) for a in got} == {11}
        for a in got:
            assert itinerary(P, a) == plain([], [0])

    def test_every_periodic_itinerary_realized(self, P_a):
        # The landing theorem: realizations exist even for exotic entries.
        got = addresses_of_periodic(P_a, plain([], [7, -7]))
        assert addr([], [8, -7]) in got.addresses
        for a in got:
            assert itinerary(P_a, a) == plain([], [7, -7])

    def test_fixed_point_characterization(self, P_b):
        for target in ([1], [0, 1], [0]):
            p = plain([], target)
            for a in addresses_of_periodic(P_b, p):
                q = len(a.period)
                cur = a
                its = [p.seq.entry(i) for i in range(1, q + 1)]
                for k in reversed(its):
                    cur = inverse_branch(P_b, k, cur)
                assert cur == a


class TestPreperiodic:
    def test_kneading_realized_only_by_base(self, P_a, P_b):
        assert addresses_of(P_a, P_a.kneading).addresses == (P_a.base,)
        assert addresses_of(P_b, P_b.kneading).addresses == (P_b.base,)

    def test_itineraries_exact(self, P_b):
        rng = random.Random(31)
        for _ in range(40):
            t = canonicalize(
                [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
                [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
            )
            it = itinerary(P_b, t)
            if not isinstance(it, Plain):
                continue
            found = addresses_of(P_b, it)
            assert t in found.addresses
            for a in found:
                assert itinerary(P_b, a) == it


class TestPreSingular:
    def test_boundary_addresses(self, P_a):
        got = addresses_of(P_a, PreSingular(()), m_range=range(-1, 2))
        assert got.addresses == (
            P_a.base.prepend(-1),
            P_a.base.prepend(0),
            P_a.base.prepend(1),
        )

    def test_requires_range(self, P_a):
        with pytest.raises(EmptyRangeError):
            addresses_of(P_a, PreSingular(()))
        with pytest.raises(EmptyRangeError):
            addresses_of(P_a, PreSingular((2,)), m_range=())

    def test_pullbacks_realize_prefix(self, P_b):
        got = addresses_of(P_b, PreSingular((1, 0)), m_range=range(-2, 3))
        for a in got:
            assert itinerary(P_b, a) == PreSingular((1, 0))


class TestOracleEquivalence:
    def test_small_oracle_agreement(self, P_a, P_b):
        for P, targets in (
            (P_a, [[1], [2], [-1]]),
            (P_b, [[0], [1], [0, 1], [1, 1], [0, 0, 1]]),
            # Realized by two G-orbits: (0,-3,0) and (0,-2,-1).
            (validate_base(addr([0, -3, 1, 0], [-1])), [[0, -2, 0]]),
            # One of its two G-orbits attracts only a cut other than the base.
            (validate_base(addr([0], [1, 1, 1, -1])), [[0, 1, 1, 0, -1, 0]]),
        ):
            s = P.base
            for target in targets:
                limit = oracle_m_limit(len(target), budget=2**12)
                raw = epsilon_search(s.preperiod, s.period, target, limit)
                want = {canonicalize((), w) for w in raw}
                try:
                    got = set(
                        addresses_of_periodic(P, plain([], target)).addresses
                    )
                except RealizationBoundExceededError:
                    got = set()
                if got and max(len(a.period) for a in got) // len(target) <= limit:
                    assert got == want
                else:
                    assert not want


def pulled_then_checked(P, t, m_range=None):
    """``addresses_of`` by its first definition: pull every realization
    of the periodic part (or every sheet ``m.s``) back through the
    preperiod (or prefix), then keep those whose itinerary is ``t``."""
    if isinstance(t, PreSingular):
        family, letters = [P.base.prepend(m) for m in m_range], t.prefix
    else:
        per = Plain(canonicalize((), t.seq.period))
        family, letters = addresses_of_periodic(P, per).addresses, t.seq.preperiod
    out = []
    for a in family:
        for k in reversed(letters):
            a = inverse_branch(P, k, a)
        if itinerary(P, a) == t:
            out.append(a)
    return tuple(sorted(out))


@st.composite
def itineraries_to_realize(draw):
    """A base with a nonzero leading entry and an itinerary over it: that
    of a drawn address, a non-formal ``w.sigma^j nu`` (``j`` returned, or
    ``None``), or a pre-singular one with a range of sheets."""
    bound = draw(st.sampled_from([1, 2, 6]))
    entries = st.integers(-bound, bound)
    pre = [draw(entries.filter(bool))] + draw(st.lists(entries, max_size=2))
    s = canonicalize(pre, draw(st.lists(entries, min_size=1, max_size=6)))
    assume(not s.is_periodic())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        P = validate_base(s)
    kind = draw(st.sampled_from(["address", "non-formal", "pre-singular"]))
    if kind == "address":
        a = canonicalize(
            draw(st.lists(entries, max_size=3)),
            draw(st.lists(entries, min_size=1, max_size=4)),
        )
        t = itinerary(P, a)
        assume(isinstance(t, Plain))
        return P, t, None, None
    if kind == "non-formal":
        j = draw(st.integers(0, 2))
        tail = P.kneading.seq
        for _ in range(j):
            tail = tail.shift()
        w = draw(st.lists(entries, min_size=1, max_size=3))
        return P, Plain(canonicalize(w + list(tail.preperiod), tail.period)), None, j
    lo = draw(st.integers(-4, 1))
    sheets = range(lo, lo + draw(st.integers(1, 5)))
    return P, PreSingular(tuple(draw(st.lists(entries, max_size=3)))), sheets, None


class TestPullback:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(itineraries_to_realize())
    def test_matches_pull_then_check(self, drawn):
        P, t, sheets, j = drawn
        got = addresses_of(P, t, m_range=sheets).addresses
        assert got == pulled_then_checked(P, t, sheets), f"{P.base}: {t}"
        if sheets is not None:
            # No pullback of a sheet is dropped.
            assert len(got) == len(sheets)
        if j == 0:
            # w.nu: the base is nu's only realization, and the filter
            # drops it before the first letter of w.
            assert got == ()


def cuts(P, word):
    """The cuts of ``G``: the ``sigma^r s`` that the last ``r`` letters
    of ``word`` pull back to the base ``s``."""
    n, s = len(word), P.base
    out, cut = [], s
    for r in range(n):
        x = cut
        for k in reversed(word[n - r :]):
            x = inverse_branch(P, k, x)
        if x == s:
            out.append(cut)
        cut = cut.shift()
    return out


def two_sided_search(P, word, steps=64, tail=32):
    """Reference for the periodic search: ``G`` iterated a fixed number of
    steps from both sides of every cut (on the upper side an address equal
    to the base counts as above it).  Each seed's limit is read off the
    least period, at most ``tail // 2``, of its last ``tail`` prepended
    words, and kept with its ``G``-orbit if it realizes ``word``."""
    n, s = len(word), P.base
    target = Plain(canonicalize((), word))
    found = set()
    for cut in cuts(P, word):
        for upper in (False, True):
            x, words = cut, []
            for _ in range(steps):
                for k in reversed(word):
                    if upper and x == s:
                        x = x.prepend(P.offset_j0 + k)
                    else:
                        x = inverse_branch(P, k, x)
                words.append(tuple(x.entries(n)))
            j = next(
                (
                    j
                    for j in range(1, tail // 2 + 1)
                    if all(words[-i] == words[-i - j] for i in range(1, tail + 1))
                ),
                None,
            )
            assert j, f"{P.base}: {word}: the seed {cut} did not close"
            t = canonicalize((), [e for w in reversed(words[-j:]) for e in w])
            if itinerary(P, t) == target:
                per = t.period
                found |= {
                    canonicalize((), per[r:] + per[:r]) for r in range(0, len(per), n)
                }
    return found


@st.composite
def bases_and_addresses(draw):
    """Bases with a nonzero leading entry, entries in [-6, 6] and period at
    most 8, with a periodic address of period at most 6.  The entry bound
    is drawn first: with entries in [-1, 1] the realizations come in
    several ``G``-orbits more often."""
    bound = draw(st.sampled_from([1, 2, 6]))
    entries = st.integers(-bound, bound)
    pre = [draw(entries.filter(bool))] + draw(st.lists(entries, max_size=2))
    per = draw(st.lists(entries, min_size=1, max_size=8))
    t = draw(st.lists(entries, min_size=1, max_size=6))
    return canonicalize(pre, per), canonicalize((), t)


class TestPeriodicSearch:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(bases_and_addresses())
    def test_realizations(self, drawn):
        # The itinerary of a drawn periodic address, so that address must
        # be among the realizations found.
        s, t = drawn
        assume(not s.is_periodic())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            P = validate_base(s)
        p = itinerary(P, t)
        assume(isinstance(p, Plain))
        word = p.seq.period
        n = len(word)
        got = set(addresses_of_periodic(P, p).addresses)
        assert t in got
        for a in got:
            q = len(a.period)
            assert not a.preperiod and q % n == 0
            entries = itinerary_entries(s.preperiod, s.period, (), a.period, q)
            assert entries == list(word) * (q // n)
            assert canonicalize((), a.period[n:] + a.period[:n]) in got
        assert got == two_sided_search(P, word)

    @pytest.mark.parametrize(
        "base, words",
        [
            ("0(1)", [(1,), (2,), (-1,)]),
            ("0(0,1)", [(0,), (1,), (0, 1), (0, 0, 1)]),
            # Realized by two G-orbits each.
            ("0,-3,1,0(-1)", [(0, -2, 0)]),
            ("0(1,1,1,-1)", [(0, 1, 1, 0, -1, 0)]),
        ],
    )
    def test_one_seed_per_cut(self, base, words, monkeypatch):
        P = validate_base(parse_address(base))
        seeds = []

        def counting(P, word, x, *args):
            seeds.append(x)
            return seed_orbit(P, word, x, *args)

        seed_orbit = realization._seed_orbit
        monkeypatch.setattr(realization, "_seed_orbit", counting)
        for word in words:
            seeds.clear()
            _periodic_search(P, word)
            assert seeds == cuts(P, word), f"{base}: {word}"


def periodic_sample(P, seed, count=12):
    """Itineraries of random periodic addresses of period at most 3, so
    every search ends at a multiplier of at most 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = canonicalize((), [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        it = itinerary(P, t)
        if isinstance(it, Plain) and it not in out:
            out.append(it)
    return out


def rotations(p):
    word = p.seq.period
    return [plain([], word[k:] + word[:k]) for k in range(len(word))]


class TestRotationSharing:
    def test_every_rotation_matches_a_fresh_search(self, P_a, P_b):
        for P, seed in ((P_a, 41), (P_b, 42)):
            for p in periodic_sample(P, seed):
                for rot in rotations(p):
                    fresh = _periodic_search(P, rot.seq.period)
                    got = addresses_of_periodic(P, rot)
                    assert got.addresses == tuple(sorted(fresh)), f"{P.base}: {rot}"
                    for a in got:
                        assert itinerary(P, a) == rot

    def test_every_rotation_matches_the_oracle(self, P_a, P_b):
        for P, seed in ((P_a, 43), (P_b, 44)):
            s = P.base
            for p in periodic_sample(P, seed, count=6):
                for rot in rotations(p):
                    target = list(rot.seq.period)
                    limit = oracle_m_limit(len(target), budget=2**12)
                    raw = epsilon_search(s.preperiod, s.period, target, limit)
                    got = addresses_of_periodic(P, rot).addresses
                    if max(len(a.period) for a in got) // len(target) <= limit:
                        assert set(got) == {canonicalize((), w) for w in raw}

    def test_one_search_per_rotation_class(self, P_b, monkeypatch):
        # The build searches once per periodic cycle of the tree and pulls
        # the other rotations back along the dynamics; 0(0,1) has the
        # cycles (0) and (0,1) -> (1,0).
        calls = []

        def counting(P, word, m_max):
            calls.append(word)
            return search(P, word, m_max)

        search = realization._periodic_search
        monkeypatch.setattr(realization, "_periodic_search", counting)
        tree = build_tree(P_b)
        periodic = [
            v.itinerary.seq.period
            for v in tree.vertices
            if isinstance(v.itinerary, Plain) and not v.itinerary.seq.preperiod
        ]
        cycles = {min(w[k:] + w[:k] for k in range(len(w))) for w in periodic}
        assert max(map(len, cycles)) >= 2
        assert sorted(calls) == sorted(cycles)
        # The shift maps the realizations of each rotation onto those of
        # the next one.
        p = plain([], [1, 0, 0])
        results = [addresses_of_periodic(P_b, rot) for rot in rotations(p)]
        for cur, nxt in zip(results, results[1:] + results[:1]):
            assert sorted(a.shift() for a in cur) == list(nxt.addresses)

    def test_bound_error_names_the_rotation_class(self, P_b):
        with pytest.raises(
            RealizationBoundExceededError,
            match=r"rotations of \(1,0,0\) over the base 0\(0,1\) found for m <= 1",
        ):
            addresses_of_periodic(P_b, plain([], [1, 0, 0]), m_max=1)


class TestSeparating:
    def test_branched_golden(self, P_b):
        A = AddressTriod(
            (P_b.base, addr([], [0, 1]), addr([], [1, 0])), P_b
        )
        shape, out = separating_addresses(P_b, A)
        assert not shape.is_linear()
        placed = {sa.gap: sa.address for sa in out}
        assert placed == {
            1: addr([], [0, 1, 0]),
            2: addr([], [1, 0, 0]),
            3: addr([], [0, 0, 1]),
        }

    def test_presingular_boundary_separators(self, P_a):
        A = AddressTriod((P_a.base, addr([], [1]), addr([2], [1])), P_a)
        shape, out = separating_addresses(P_a, A)
        assert shape.is_presingular() and not shape.is_linear()
        by_gap = {}
        for sa in out:
            assert sa.member is None
            by_gap.setdefault(sa.gap, []).append(sa.address)
        assert set(by_gap) == {1, 2, 3}
        assert by_gap[1] == [P_a.base.prepend(1)]
        assert by_gap[2] == [P_a.base.prepend(2)]

    def test_linear_golden(self, P_b):
        A = AddressTriod(
            (addr([], [0, 0, 1]), addr([], [0, 1]), addr([], [1, 0])), P_b
        )
        shape, out = separating_addresses(P_b, A)
        assert shape.is_linear() and shape.middle == 1
        members = [sa for sa in out if sa.member is not None]
        assert len(members) == 1 and members[0].member == 1
        assert any(sa.gap == 2 for sa in out)

    def test_one_triod_walk_per_call(self, P_a, P_b, monkeypatch):
        # The shape is read off the middle point already computed, so a
        # call runs the triod map once and agrees with classify.
        cases = [
            AddressTriod((P_b.base, addr([], [0, 1]), addr([], [1, 0])), P_b),
            AddressTriod((P_a.base, addr([], [1]), addr([2], [1])), P_a),
            AddressTriod((addr([], [0, 0, 1]), addr([], [0, 1]), addr([], [1, 0])), P_b),
        ]
        walks = []

        class CountingMap(triods._TriodMap):
            def __init__(self, P):
                walks.append(P)
                super().__init__(P)

        for A in cases:
            want = classify(to_itinerary_triod(A))
            with monkeypatch.context() as m:
                m.setattr(triods, "_TriodMap", CountingMap)
                walks.clear()
                shape, _ = separating_addresses(A.partition, A)
            assert len(walks) == 1
            assert shape == want

    def test_stop_stage_after_one_step_per_vote(self, acceptance_corpus):
        # The address triod map stops after len(prefix) steps of a
        # pre-singular middle point, as the itinerary triod map does.
        rng = random.Random(17)
        for P in acceptance_corpus.partitions:
            for _ in range(5):
                A = _random_address_triod(rng, P)
                b = middle_point(to_itinerary_triod(A))
                if not isinstance(b, PreSingular):
                    continue
                cur, steps = A, 0
                while (nxt := address_triod_step(cur)) is not None:
                    cur, steps = nxt, steps + 1
                assert steps == len(b.prefix), f"{P.base}: {A}"
                assert _stop_stage(A, steps) == cur
                with pytest.raises(InternalInvariantError, match="does not stop"):
                    _stop_stage(A, steps + 1)
                if steps:
                    with pytest.raises(InternalInvariantError, match="does not stop"):
                        _stop_stage(A, steps - 1)

    def test_unlinkedness_of_returned_families(self, P_b, acceptance_corpus):
        # Families for distinct vertex itineraries never interleave.
        P = P_b
        fam = {}
        for target in ([0], [0, 1], [1, 0]):
            fam[tuple(target)] = addresses_of(P, plain([], target)).addresses
        keys = list(fam)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                T, U = fam[keys[i]], fam[keys[j]]
                for a in T:
                    for a2 in T:
                        if a == a2:
                            continue
                        for b in U:
                            for b2 in U:
                                if b == b2:
                                    continue
                                assert not (
                                    cyclic_between(a, b, a2)
                                    and cyclic_between(a2, b2, a)
                                )
