import random
import warnings
from itertools import permutations

import pytest

from exptree.errors import IsStopCaseError, NormalizationWarning, NotDistinctError
from exptree.notation import parse_address
from exptree.partition import (
    Plain,
    PreSingular,
    is_in_S_nu,
    itinerary,
    itinerary_entry,
    validate_base,
)
from exptree.sequences import canonicalize
from exptree.triods import (
    AddressTriod,
    Shape,
    Triod,
    _TriodMap,
    address_triod_step,
    classify,
    majority_vote,
    middle_point,
    to_itinerary_triod,
    triod_step,
)
from exptree.verify import random_external_address


def addr(pre, per):
    return canonicalize(pre, per)


def plain(pre, per):
    return Plain(canonicalize(pre, per))


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
            votes = []
            cur = Triod(members, P)
            while cur is not None and len(votes) < 30:
                nxt = triod_step(cur)
                if nxt is not None:
                    votes.append(majority_vote(cur))
                cur = nxt
            b = middle_point(Triod(members, P))
            if cur is None:
                stops += 1
                assert b == PreSingular(tuple(votes))
            else:
                assert [itinerary_entry(P, b, i) for i in range(1, 31)] == votes
            for perm in permutations(members):
                assert middle_point(Triod(perm, P)) == b
        assert stops and presingular_members

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
        known = list(m.its)
        b = m.middle(*ids)
        assert m.its[b] == middle_point(Triod(members, P_b)) == plain([], [0])
        assert m.its[b] not in known and b >= len(known)
        assert m.id(m.its[b]) == b and len(set(m.its)) == len(m.its)

    def test_permutation_invariance(self, P_b):
        t, u, v = P_b.kneading, plain([], [0, 1]), plain([], [1, 0])
        results = {
            middle_point(Triod(m, P_b))
            for m in [(t, u, v), (u, v, t), (v, u, t), (t, v, u)]
        }
        assert len(results) == 1


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
