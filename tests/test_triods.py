import random
import warnings
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from exptree.errors import (
    ExptreeError,
    IsStopCaseError,
    NormalizationWarning,
    NotDistinctError,
    NotFormalError,
)
from exptree.notation import parse_address
from exptree.partition import (
    STAR,
    Boundary,
    Plain,
    PreSingular,
    is_in_S_nu,
    itinerary,
    shift_itinerary,
    validate_base,
)
from exptree.sequences import canonicalize
from exptree.treebuild import vertex_set
from exptree.triods import (
    AddressTriod,
    Shape,
    Triod,
    _TriodMap,
    _odd_one_out,
    address_triod_step,
    classify,
    majority_vote,
    middle_point,
    to_itinerary_triod,
    triod_step,
)
from exptree.verify import random_external_address

from wide import entries, wide_partitions


def addr(pre, per):
    return canonicalize(pre, per)


def plain(pre, per):
    return Plain(canonicalize(pre, per))


def reference_middle_point(T):
    """The middle point from the reference :func:`triod_step` and
    :func:`majority_vote`: the votes up to the stop case, or up to the
    first triod that repeats, whose votes from then on are the period."""
    seen, votes, cur = {}, [], T
    while (nxt := triod_step(cur)) is not None:
        if cur.members in seen:
            i = seen[cur.members]
            return Plain(canonicalize(votes[:i], votes[i:]))
        seen[cur.members] = len(votes)
        votes.append(majority_vote(cur))
        cur = nxt
    return PreSingular(tuple(votes))


@st.composite
def wide_triods(draw):
    """A triod over a wide base.  Members are itineraries of addresses in
    or next to the sheets ``j0 .. j0+2``, pre-singular words (``*nu``
    among them) and words before a shift of the kneading sequence, with
    letters 0 and 1, so that first symbols often agree and the map runs."""
    P = draw(wide_partitions())
    letters = st.lists(st.integers(0, 1), max_size=3)

    def member():
        kind = draw(st.sampled_from(["address", "pre-singular", "nu"]))
        if kind == "address":
            lead = P.offset_j0 + draw(st.integers(0, 2))
            pre = [lead] + draw(st.lists(entries, max_size=2))
            per = draw(st.lists(entries, min_size=1, max_size=4))
            return itinerary(P, canonicalize(pre, per))
        w = draw(letters)
        if kind == "pre-singular":
            return PreSingular(tuple(w))
        tail = draw(st.sampled_from(P.kneading.seq.shifts()))
        return Plain(canonicalize(w + list(tail.preperiod), tail.period))

    members = (member(), member(), member())
    assume(len(set(members)) == 3)
    return Triod(members, P)


class TestOddOneOut:
    def test_against_a_majority_count(self):
        # Integers and the star stand for first symbols, Boundary values for
        # address members on the partition boundary.
        symbols = (0, 1, STAR, Boundary(0), Boundary(1))
        for triple in product(symbols, repeat=3):
            agree = [sum(x == y for y in triple) for x in triple]
            if min(agree) == 3:
                want = 3
            elif max(agree) == 2:
                want = agree.index(1)
            else:
                want = None
            assert _odd_one_out(*triple) == want, triple


class TestStep:
    def test_stop_with_star(self, P_a):
        T = Triod((PreSingular(()), P_a.kneading, plain([], [1])), P_a)
        assert triod_step(T) is None

    def test_chop_case(self, P_a):
        T = Triod((plain([], [1]), plain([1], [2]), plain([2], [1])), P_a)
        out = triod_step(T)
        assert out.members == (plain([], [1]), plain([], [2]), P_a.kneading)

    def test_all_shift_case(self, P_b):
        T = Triod((P_b.kneading, plain([], [0, 1]), plain([], [1, 0])), P_b)
        out = triod_step(T)
        assert out.members == (plain([], [0, 1]), plain([], [1, 0]), P_b.kneading)

    def test_members_must_differ(self, P_a):
        with pytest.raises(NotDistinctError):
            Triod((plain([], [1]), plain([], [1]), plain([], [2])), P_a)


class TestMajority:
    def test_examples(self, P_a, P_b):
        assert majority_vote(
            Triod((plain([], [1]), plain([1], [2]), plain([2], [1])), P_a)
        ) == 1
        assert majority_vote(
            Triod((P_b.kneading, plain([], [0, 1]), plain([], [1, 0])), P_b)
        ) == 0
        assert majority_vote(
            Triod((plain([], [0]), plain([], [0, 1]), plain([], [1, 0])), P_b)
        ) == 0

    def test_stop_case_raises(self, P_a):
        T = Triod((PreSingular(()), P_a.kneading, plain([], [1])), P_a)
        with pytest.raises(IsStopCaseError):
            majority_vote(T)


class TestMiddlePoint:
    def test_immediate_stop_gives_star_nu(self, P_a):
        T = Triod((PreSingular(()), P_a.kneading, plain([], [1])), P_a)
        assert middle_point(T) == PreSingular(())

    def test_three_cycle_votes(self, P_b):
        T = Triod((P_b.kneading, plain([], [0, 1]), plain([], [1, 0])), P_b)
        assert middle_point(T) == plain([], [0])

    def test_star_chopped_then_cycle(self, P_b):
        T = Triod((PreSingular(()), P_b.kneading, plain([], [0, 1])), P_b)
        assert middle_point(T) == plain([], [0])

    def test_twenty_step_trace(self, P_b):
        # Follow the vote stream manually for 20 steps; it must agree
        # with the assembled middle point.
        T = Triod((P_b.kneading, plain([], [0, 1]), plain([], [1, 0])), P_b)
        votes = []
        cur = T
        for _ in range(20):
            votes.append(majority_vote(cur))
            cur = triod_step(cur)
        b = middle_point(T)
        assert votes == [b.seq.entry(i) for i in range(1, 21)]

    @pytest.mark.parametrize(
        "base",
        ["0(1)", "0(0,1)", "0,-2,1(3,-1)", "0(1,0,1,0,2)", "3,2,-3(0,2,2,1)", "6,-4(5,8)"],
    )
    def test_matches_iterated_triod_step(self, base):
        # Random triods, pre-singular members among them, against the
        # reference vote stream of triod_step and majority_vote.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            P = validate_base(parse_address(base))
        rng = random.Random(base)
        stops = presingular_members = 0
        for _ in range(60):
            members = set()
            while len(members) < 3:
                it = itinerary(P, random_external_address(rng, P))
                if is_in_S_nu(P, it):
                    members.add(it)
            members = tuple(members)
            presingular_members += sum(isinstance(m, PreSingular) for m in members)
            b = middle_point(Triod(members, P))
            assert b == reference_middle_point(Triod(members, P))
            stops += isinstance(b, PreSingular)
            for perm in permutations(members):
                assert middle_point(Triod(perm, P)) == b
        assert stops and presingular_members

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(wide_triods())
    def test_matches_reference_on_wide_bases(self, T):
        try:
            want = reference_middle_point(T)
        except NotDistinctError:
            with pytest.raises(NotDistinctError):
                middle_point(T)
            return
        assert middle_point(T) == want

    def test_step_to_equal_members_raises(self, P_a):
        # 1,0(1) shifts onto the kneading sequence 0(1), which also
        # replaces the chopped member (2).
        T = Triod((plain([1, 0], [1]), plain([], [1]), plain([], [2])), P_a)
        with pytest.raises(NotDistinctError):
            middle_point(T)

    def test_unknown_middle_point_gets_a_fresh_id(self, P_b):
        # The branch point (0) has no id before the call, so the walk-back
        # builds it and gives it the next free id.
        members = (plain([], [0, 1]), plain([], [1, 0]), plain([], [0, 0, 1]))
        m = _TriodMap(P_b)
        ids = [m.id(x) for x in members]
        known = list(m.keys)
        b = m.middle(*ids)
        assert m.itinerary(b) == middle_point(Triod(members, P_b)) == plain([], [0])
        assert m.keys[b] not in known and b >= len(known)
        assert m.id(m.itinerary(b)) == b and len(set(m.keys)) == len(m.keys)

    def test_permutation_invariance(self, P_b):
        t, u, v = P_b.kneading, plain([], [0, 1]), plain([], [1, 0])
        results = {
            middle_point(Triod(m, P_b))
            for m in [(t, u, v), (u, v, t), (v, u, t), (t, v, u)]
        }
        assert len(results) == 1


class TestKeyMap:
    """The triod map's shifts, prepends, first symbols and formal-point
    test on raw keys agree with the itineraries they stand for."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(wide_partitions(), st.lists(entries, min_size=1, max_size=3))
    def test_keys_agree_with_itineraries(self, P, word):
        m = _TriodMap(P)
        nu = P.kneading.seq
        # k.nu and w.nu for the letters k of w are not formal points.
        tails = [nu.prepend(k) for k in word]
        for k in reversed(word):
            nu = nu.prepend(k)
        tails.append(nu)
        its = vertex_set(P) + [Plain(a) for a in tails] + [PreSingular(tuple(word))]
        for it in its:
            i = m.id(it)
            assert m.itinerary(i) == it and m.id(m.itinerary(i)) == i
            assert m.firsts[i] == it.first_symbol()
            assert m.itinerary(m._shift(i)) == shift_itinerary(P, it)
            for k in word:
                want = (
                    PreSingular((k,) + it.prefix)
                    if isinstance(it, PreSingular)
                    else Plain(it.seq.prepend(k))
                )
                assert m.itinerary(m._prepend(k, i)) == want
            assert m.formal(i) == is_in_S_nu(P, it), it
        for a in tails:
            assert not m.formal(m.id(Plain(a)))
        assert len(set(m.keys)) == len(m.keys)


class TestClassify:
    def test_examples(self, P_a, P_b):
        assert classify(
            Triod((P_b.kneading, plain([], [0, 1]), plain([], [1, 0])), P_b)
        ).shape is Shape.BRANCHED
        got = classify(Triod((PreSingular(()), P_a.kneading, plain([], [1])), P_a))
        assert got.shape is Shape.PRESINGULAR_LINEAR and got.middle == 1
        assert classify(
            Triod((PreSingular(()), P_b.kneading, plain([], [0, 1])), P_b)
        ).shape is Shape.BRANCHED


class TestAddressTriod:
    def test_stop_example(self, P_a):
        A = AddressTriod((P_a.base, addr([], [1]), addr([2], [1])), P_a)
        assert address_triod_step(A) is None

    def test_chop_example(self, P_a):
        A = AddressTriod((addr([], [1]), addr([1], [2]), addr([2], [1])), P_a)
        out = address_triod_step(A)
        assert out.members == (addr([], [1]), addr([], [2]), P_a.base)

    def test_shift_example(self, P_b):
        A = AddressTriod((P_b.base, addr([], [0, 1]), addr([], [1, 0])), P_b)
        out = address_triod_step(A)
        assert out.members == (addr([], [0, 1]), addr([], [1, 0]), P_b.base)

    def test_boundary_members_share_no_sector(self, P_a):
        # 0,0(1) and 1,0(1) shift onto the base 0(1): the partition boundary.
        on_0, on_1 = addr([0, 0], [1]), addr([1, 0], [1])
        A = AddressTriod((on_1, addr([], [1]), addr([1], [2])), P_a)
        assert address_triod_step(A).members == (P_a.base, addr([], [1]), addr([], [2]))
        assert address_triod_step(AddressTriod((on_0, on_1, addr([], [1])), P_a)) is None

    def test_not_formal_is_a_value_error(self, P_b):
        # 1,0(0,1) shifts onto the kneading sequence 0(0,1).
        T = Triod((plain([1, 0], [0, 1]), plain([], [0, 1]), plain([], [1, 0])), P_b)
        with pytest.raises(ValueError) as exc:
            T.validate()
        assert isinstance(exc.value, NotFormalError)
        assert isinstance(exc.value, ExptreeError)

    def test_cyclic_order_required(self, P_a):
        with pytest.raises(NotDistinctError):
            AddressTriod((addr([], [2]), addr([], [1]), addr([], [0])), P_a)

    def test_image_stays_valid(self, P_b):
        rng = random.Random(22)
        checked = 0
        while checked < 60:
            members = set()
            for _ in range(3):
                members.add(random_external_address(rng, P_b))
            if len(members) != 3:
                continue
            members = tuple(sorted(members))
            its = [itinerary(P_b, a) for a in members]
            if len(set(its)) != 3 or not all(is_in_S_nu(P_b, i) for i in its):
                continue
            A = AddressTriod(members, P_b)
            checked += 1
            nxt = address_triod_step(A)
            if nxt is None:
                continue
            nxt.validate()  # distinct itineraries in S_nu, cyclic order kept
            T1 = to_itinerary_triod(A)
            assert triod_step(T1).members == to_itinerary_triod(nxt).members
