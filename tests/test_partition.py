import copy
import dataclasses
import inspect
import pickle
import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from exptree.errors import NormalizationWarning, PeriodicBaseError
from exptree.partition import (
    Boundary,
    Interior,
    Partition,
    Plain,
    PreSingular,
    inverse_branch,
    is_in_S_nu,
    itinerary,
    kneading,
    sector_of,
    shift_itinerary,
    validate_base,
)
from exptree.realization import addresses_of
from exptree.sequences import ExtAddress, canonicalize, cyclic_between
from exptree.treebuild import Vertex, VertexKind, omega_plus

from fine_wilf import extremal_tails
from oracles import base_offset, itinerary_entries, sector_index, seq_compare, shift_raw
from wide import wide_bases


def addr(pre, per):
    return canonicalize(pre, per)


entries = st.integers(min_value=-6, max_value=6)
words = st.lists(entries, max_size=4)
periods = st.lists(entries, min_size=1, max_size=12)


def partition(pre, per):
    """The partition of ``pre . per^infinity``, a leading entry other
    than 0 allowed; ``pre`` must not end in the last period entry."""
    assume(pre[-1] != per[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        return validate_base(addr(pre, per))


def check_itinerary(P, t):
    """``itinerary`` and ``sector_of`` agree with the oracle: over
    ``|pre_t| + |per_t| + 1`` entries the itinerary is determined."""
    s = P.base
    n = len(t.preperiod) + len(t.period) + 1
    it = itinerary(P, t)
    if isinstance(it, Plain):
        got = it.seq.entries(n)
    else:
        got = (list(it.prefix) + ["*"] + P.kneading.seq.entries(n))[:n]
    assert got == itinerary_entries(s.preperiod, s.period, t.preperiod, t.period, n)
    sec = sector_of(P, t)
    want = sector_index(s.preperiod, s.period, t.preperiod, t.period, P.offset_j0)
    assert sec == (Boundary(t.entry(1)) if want == "*" else Interior(want))


class TestValidateBase:
    def test_golden_a(self, P_a):
        assert P_a.offset_j0 == 0
        assert P_a.kneading == Plain(addr([0], [1]))

    def test_golden_b(self, P_b):
        assert P_b.offset_j0 == 0
        assert P_b.kneading == Plain(addr([0], [0, 1]))

    def test_periodic_base_rejected(self):
        with pytest.raises(PeriodicBaseError):
            validate_base(addr([], [1]))

    def test_nonzero_lead_warns(self):
        with pytest.warns(NormalizationWarning):
            P = validate_base(addr([0, 1], [2]).shift())
        assert P.kneading.seq.entry(1) == 0

    def test_j0_against_oracle(self):
        rng = random.Random(11)
        for _ in range(80):
            pre = [0] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
            per = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            s = canonicalize(pre, per)
            if s.is_periodic():
                continue
            P = validate_base(s)
            assert P.offset_j0 == base_offset(s.preperiod, s.period)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(wide_bases())
    def test_j0_is_its_definition(self, s):
        # j0 = s_1 - [sigma s < s], read off the kneading walk's first
        # comparison; a leading entry other than 0 warns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            P = validate_base(s)
        assert P.offset_j0 == s.entry(1) - (s.shift() < s)
        assert P.kneading.seq.entry(1) == 0
        want = [NormalizationWarning] if s.entry(1) else []
        assert [w.category for w in caught] == want

    def test_kneading_first_entry_zero(self):
        with pytest.warns(NormalizationWarning):
            P = validate_base(addr([0, 1], [2]).shift())  # base 1(2)
        assert P.kneading.seq.entry(1) == 0
        P2 = validate_base(addr([0, 1], [2]))
        assert P2.kneading.seq.entry(1) == 0


class TestSectorOf:
    def test_examples(self, P_a):
        assert sector_of(P_a, addr([], [1])) == Interior(1)
        assert sector_of(P_a, P_a.base) == Interior(0)
        assert sector_of(P_a, P_a.base.prepend(3)) == Boundary(3)

    def test_boundary_sheets(self, P_b):
        for m in range(-4, 5):
            assert sector_of(P_b, P_b.base.prepend(m)) == Boundary(m)

    def test_against_oracle(self, P_b):
        rng = random.Random(12)
        s = P_b.base
        for _ in range(150):
            t = canonicalize(
                [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))],
                [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))],
            )
            want = sector_index(s.preperiod, s.period, t.preperiod, t.period)
            got = sector_of(P_b, t)
            if want == "*":
                assert isinstance(got, Boundary)
            else:
                assert got == Interior(want)


class TestItinerary:
    def test_kneading_by_oracle(self, P_a, P_b):
        for P in (P_a, P_b):
            s = P.base
            want = itinerary_entries(s.preperiod, s.period, s.preperiod, s.period, 12)
            got = [P.kneading.seq.entry(i) for i in range(1, 13)]
            assert got == want
        assert kneading(P_a) == Plain(addr([0], [1]))
        assert kneading(P_b) == Plain(addr([0], [0, 1]))

    def test_examples(self, P_a, P_b):
        assert itinerary(P_a, P_a.base) == P_a.kneading
        assert itinerary(P_a, addr([], [1])) == Plain(addr([], [1]))
        assert itinerary(P_b, addr([], [0, 0, 1])) == Plain(addr([], [0]))

    def test_boundary_at_step_one(self, P_a):
        # prepend(2, s) is itself a boundary address: itinerary *nu.
        assert itinerary(P_a, P_a.base.prepend(2)) == PreSingular(())
        t = P_a.base.prepend(3).prepend(2)
        assert itinerary(P_a, t) == PreSingular((2,))

    def test_random_against_oracle(self, P_a, P_b):
        rng = random.Random(13)
        for P in (P_a, P_b):
            s = P.base
            for _ in range(120):
                t = canonicalize(
                    [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))],
                    [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
                )
                it = itinerary(P, t)
                want = itinerary_entries(s.preperiod, s.period, t.preperiod, t.period, 14)
                if isinstance(it, Plain):
                    got = [it.seq.entry(i) for i in range(1, 15)]
                else:
                    got = list(it.prefix) + ["*"]
                    got += [P.kneading.seq.entry(i) for i in range(1, 15 - len(got) + 1)]
                assert got[:14] == want

    def test_shift_equivariance(self, P_b):
        rng = random.Random(14)
        for _ in range(100):
            t = canonicalize(
                [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))],
                [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
            )
            it = itinerary(P_b, t)
            if isinstance(it, Plain):
                assert itinerary(P_b, t.shift()) == shift_itinerary(P_b, it)


class TestItineraryWords:
    """Itineraries on the sliding words of the address, against the
    oracle: on and next to the partition boundary, on bases with any
    leading entry, periods up to 12 and entries up to 6."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(entries, words, periods, words, entries)
    def test_boundary_preimages(self, lead, rest, per, w, k):
        P = partition([lead] + rest, per)
        s = P.base
        check_itinerary(P, addr(w + [k] + list(s.preperiod), s.period))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(entries, words, periods, words, periods)
    def test_random_addresses(self, lead, rest, per, pre_t, per_t):
        check_itinerary(partition([lead] + rest, per), addr(pre_t, per_t))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(entries, words, extremal_tails(), st.lists(entries, max_size=2), entries)
    def test_next_to_the_boundary(self, lead, rest, tails, w, k):
        # The shift of k.pre_s.(q-word) agrees with the base
        # pre_s.(p-word) on one entry less than the decision length.
        pre_s = [lead] + rest
        P = partition(pre_s, tails[0])
        check_itinerary(P, addr(w + [k] + pre_s, tails[1]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(entries, words, periods, words, st.integers(0, 3), words, periods)
    def test_formal_points(self, lead, rest, per, w, j, pre_t, per_t):
        # w.sigma^j(nu) has nu among its strict shifts once w is nonempty.
        P = partition([lead] + rest, per)
        nu = P.kneading.seq
        tail = nu
        for _ in range(j):
            tail = tail.shift()
        for t in (addr(w + list(tail.preperiod), tail.period), addr(pre_t, per_t)):
            want = True
            cur = (t.preperiod, t.period)
            for _ in range(len(t.preperiod) + 2 * len(t.period)):
                cur = shift_raw(*cur)
                if seq_compare(*cur, nu.preperiod, nu.period) == 0:
                    want = False
            assert is_in_S_nu(P, Plain(t)) == want


class TestInverseBranch:
    def test_examples(self, P_a, P_b):
        assert inverse_branch(P_a, 0, addr([], [1])) == P_a.base
        assert inverse_branch(P_a, 0, P_a.base) == P_a.base.prepend(1)
        assert inverse_branch(P_b, 1, addr([], [0, 1])) == addr([1], [0, 1])

    def test_right_inverse_and_sector(self, P_a, P_b):
        rng = random.Random(15)
        for P in (P_a, P_b):
            for _ in range(120):
                u = canonicalize(
                    [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))],
                    [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))],
                )
                k = rng.randint(-3, 3)
                t = inverse_branch(P, k, u)
                assert t.shift() == u
                lo, hi = P.sector_bounds(k)
                assert lo < t <= hi

    def test_preserves_cyclic_order(self, P_b):
        rng = random.Random(16)
        for _ in range(150):
            us = set()
            while len(us) < 3:
                us.add(
                    canonicalize(
                        [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))],
                        [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
                    )
                )
            k = rng.randint(-2, 2)
            a, b, c = sorted(us)
            ta, tb, tc = (inverse_branch(P_b, k, u) for u in (a, b, c))
            assert cyclic_between(ta, tb, tc)


class TestSNu:
    def test_examples(self, P_a):
        assert is_in_S_nu(P_a, Plain(addr([], [1])))
        assert not is_in_S_nu(P_a, Plain(addr([1, 0], [1])))
        assert is_in_S_nu(P_a, PreSingular((5,)))

    def test_kneading_itself_is_member(self, P_a, P_b):
        assert is_in_S_nu(P_a, P_a.kneading)
        assert is_in_S_nu(P_b, P_b.kneading)


class TestKneadingAgreement:
    def test_sibling_bases_share_kneading(self, acceptance_corpus):
        for P in acceptance_corpus.partitions[:20]:
            for s2 in addresses_of(P, P.kneading):
                P2 = validate_base(s2)
                assert P2.kneading == P.kneading
                for it in omega_plus(P)[1:]:
                    for a in addresses_of(P, it).addresses:
                        assert itinerary(P2, a) == it


def _twin(cls):
    """A generated ``@dataclass(frozen=True, slots=True)`` with the fields
    of ``cls`` and its hand-written ``__repr__``/``__str__``, if any."""
    source = inspect.getsourcefile(cls)
    own = {
        k: v
        for k in ("__repr__", "__str__")
        if (v := vars(cls).get(k)) is not None and v.__code__.co_filename == source
    }
    fields = [(f.name, f.type) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=own, frozen=True, slots=True
    )


def _value_objects():
    """``(cls, args, other_args)``: two distinct argument tuples per class."""
    P, Q = validate_base(addr([0], [1])), validate_base(addr([0], [0, 1]))
    return [
        (ExtAddress, ((0,), (1,)), ((), (1, 2))),
        (Plain, (P.base,), (Q.base,)),
        (PreSingular, ((1, 2),), ((),)),
        (
            Partition,
            (P.base, P.offset_j0, P.kneading),
            (Q.base, Q.offset_j0, Q.kneading),
        ),
        (
            Vertex,
            (0, PreSingular(()), VertexKind.SINGULAR),
            (2, P.kneading, VertexKind.POST_SINGULAR),
        ),
    ]


@pytest.mark.parametrize(
    "cls, args, other",
    _value_objects(),
    ids=["ExtAddress", "Plain", "PreSingular", "Partition", "Vertex"],
)
class TestValueObjects:
    """The hand-written ``__init__`` of the frozen slotted value objects
    (and of the tree's :class:`~exptree.treebuild.Vertex`) keeps what the
    generated one gives."""

    def test_positional_and_keyword_construction(self, cls, args, other):
        names = [f.name for f in dataclasses.fields(cls)]
        x = cls(*args)
        assert [getattr(x, n) for n in names] == list(args)
        assert cls(**dict(zip(names, args))) == x
        assert list(inspect.signature(cls).parameters) == names
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, args[0])

    def test_replace(self, cls, args, other):
        names = [f.name for f in dataclasses.fields(cls)]
        x = cls(*args)
        for i, name in enumerate(names):
            y = dataclasses.replace(x, **{name: other[i]})
            want = list(args)
            want[i] = other[i]
            assert type(y) is cls and y == cls(*want)
        assert dataclasses.replace(x) == x

    def test_copy_and_pickle(self, cls, args, other):
        x = cls(*args)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and hash(y) == hash(x)

    def test_frozen(self, cls, args, other):
        x = cls(*args)
        name = dataclasses.fields(cls)[0].name
        for attr in (name, "not_a_field"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, attr, other[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, attr)
        assert getattr(x, name) == args[0]

    def test_eq_hash_repr_match_a_generated_twin(self, cls, args, other):
        twin = _twin(cls)
        assert cls.__slots__ == twin.__slots__
        assert cls.__match_args__ == twin.__match_args__
        for a in (args, other):
            x, t = cls(*a), twin(*a)
            assert hash(x) == hash(t)
            assert repr(x) == repr(t) and str(x) == str(t)
            for b in (args, other):
                assert (x == cls(*b)) == (t == twin(*b))
                assert (x != cls(*b)) == (t != twin(*b))
        assert cls(*args) != twin(*args)
