import dataclasses
import importlib
import pkgutil
import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import exptree
from exptree.errors import EmptyPeriodError, NotDistinctError
from exptree.sequences import (
    ExtAddress,
    Ordering,
    _primitive_root,
    canonicalize,
    compare_lex,
    cyclic_between,
)

from fine_wilf import extremal_tails
from oracles import materialize, seq_compare

entries = st.integers(min_value=-6, max_value=6)
preperiods = st.lists(entries, min_size=0, max_size=5)
periods = st.lists(entries, min_size=1, max_size=5)


def addr(pre, per):
    return canonicalize(pre, per)


class TestCanonicalize:
    def test_rotation_into_period(self):
        assert addr([1], [2, 1]) == ExtAddress((), (1, 2))

    def test_power_of_shorter_word(self):
        assert addr([], [1, 1]) == ExtAddress((), (1,))

    def test_already_canonical(self):
        assert addr([0], [1]) == ExtAddress((0,), (1,))

    def test_constructor_stores_what_it_is_given(self):
        x = ExtAddress((1,), (1, 1))
        assert (x.preperiod, x.period) == ((1,), (1, 1))
        assert x != canonicalize((1,), (1, 1))

    def test_empty_period_rejected(self):
        with pytest.raises(EmptyPeriodError):
            canonicalize([0], [])

    @given(preperiods, periods)
    def test_idempotent(self, pre, per):
        a = canonicalize(pre, per)
        assert canonicalize(a.preperiod, a.period) == a

    @given(preperiods, periods)
    def test_same_sequence_as_input(self, pre, per):
        a = canonicalize(pre, per)
        raw = materialize(pre, per, 30)
        assert a.entries(30) == raw

    @given(preperiods, periods)
    def test_unrolled_forms_collapse(self, pre, per):
        a = canonicalize(pre, per)
        b = canonicalize(list(pre) + list(per[:1]), list(per[1:]) + list(per[:1]))
        c = canonicalize(pre, list(per) * 2)
        assert a == b == c


def _list_primitive_root(word):
    """The shortest root, trying every divisor of the length."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _list_canonicalize(preperiod, period):
    """The list-based canonical form: pop trailing preperiod entries into
    the period one at a time."""
    pre = list(preperiod)
    per = list(_list_primitive_root(tuple(period)))
    if not per:
        raise EmptyPeriodError("period word must be nonempty")
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per.insert(0, per.pop())
    return tuple(pre), tuple(per)


def _words(max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        yield from product((0, 1, 2), repeat=n)


class TestCanonicalizeExhaustive:
    """The tuple-based :func:`canonicalize` against the list-based one, on
    every preperiod of length <= 3 and period of length <= 4 over
    ``{0, 1, 2}``, each given as a tuple, a list and a generator."""

    @pytest.mark.parametrize("kind", [tuple, list, iter])
    def test_matches_list_based_version(self, kind):
        for pre in _words(3):
            for per in _words(4, 1):
                a = canonicalize(kind(pre), kind(per))
                assert type(a.preperiod) is tuple and type(a.period) is tuple
                want = _list_canonicalize(pre, per)
                assert (a.preperiod, a.period) == want, (pre, per)

    @pytest.mark.parametrize("kind", [tuple, list, iter])
    def test_empty_period(self, kind):
        for pre in _words(3):
            with pytest.raises(EmptyPeriodError):
                canonicalize(kind(pre), kind(()))

    @pytest.mark.parametrize(
        "word, root",
        [((1, 1), (1,)), ((1, 2, 1), (1, 2, 1)), ((1, 2, 1, 2), (1, 2)), ((), ())],
    )
    def test_primitive_root(self, word, root):
        assert _primitive_root(word) == root

    def test_primitive_root_matches_every_divisor_search(self):
        for word in _words(6, 1):
            assert _primitive_root(word) == _list_primitive_root(word), word


class TestEntryShiftPrepend:
    def test_entry_examples(self):
        assert addr([0], [1]).entry(1) == 0
        assert addr([0], [1]).entry(5) == 1
        assert addr([], [1, 2]).entry(4) == 2

    def test_shift_examples(self):
        assert addr([0], [1]).shift() == addr([], [1])
        assert addr([], [1, 2]).shift() == addr([], [2, 1])
        assert addr([0], [0, 1]).shift() == addr([], [0, 1])

    def test_prepend_examples(self):
        assert addr([], [1]).prepend(0) == addr([0], [1])
        assert addr([], [1]).prepend(1) == addr([], [1])
        assert addr([0], [1]).prepend(-2) == addr([-2, 0], [1])

    @given(preperiods, periods, entries)
    def test_shift_of_prepend_is_identity(self, pre, per, k):
        a = canonicalize(pre, per)
        assert a.prepend(k).shift() == a
        assert a.prepend(k).entry(1) == k

    @given(preperiods, periods)
    def test_entry_agrees_after_shift(self, pre, per):
        a = canonicalize(pre, per)
        assert a.shift().entries(20) == a.entries(21)[1:]


    @given(preperiods, periods)
    def test_shifts_match_the_seen_set_loop(self, pre, per):
        a = canonicalize(pre, per)
        want, cur = [a], a.shift()
        while cur not in want:
            want.append(cur)
            cur = cur.shift()
        assert a.shifts() == want
        assert len(want) == len(a.preperiod) + len(a.period)


class TestCanonicalByConstruction:
    """``shift`` and ``prepend`` build their results without
    ``canonicalize``; they must agree with it."""

    short_preperiods = st.lists(entries, min_size=0, max_size=4)
    short_periods = st.lists(entries, min_size=1, max_size=6)

    @given(short_preperiods, short_periods)
    def test_shift_agrees_with_canonicalize(self, pre, per):
        a = canonicalize(pre, per)
        if a.preperiod:
            want = canonicalize(a.preperiod[1:], a.period)
        else:
            want = canonicalize((), a.period[1:] + a.period[:1])
        got = a.shift()
        assert got == want
        assert canonicalize(got.preperiod, got.period) == got

    @given(short_preperiods, short_periods, st.integers(min_value=-7, max_value=7))
    def test_prepend_agrees_with_canonicalize(self, pre, per, k):
        a = canonicalize(pre, per)
        # the last period entry is the one that can rotate into the period
        for j in (k, a.period[-1]):
            got = a.prepend(j)
            assert got == canonicalize((j,) + a.preperiod, a.period)
            assert canonicalize(got.preperiod, got.period) == got


def frozen_slotted_classes():
    """Every ``@dataclass(frozen=True, slots=True)`` class of the library,
    found by importing each of its modules."""
    found = []
    for info in pkgutil.iter_modules(exptree.__path__):
        module = importlib.import_module(f"exptree.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
            and obj.__dataclass_params__.frozen
            and "__slots__" in vars(obj)
        ]
    return found


class TestFrozenValueObjects:
    CLASSES = frozen_slotted_classes()

    def test_introspection_finds_the_value_objects(self):
        names = {cls.__name__ for cls in self.CLASSES}
        assert {"ExtAddress", "Partition", "Plain", "PreSingular", "Vertex", "Triod"} <= names
        assert len(names) >= 12

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_any_assignment_or_deletion_raises(self, cls):
        # Built without __init__: the slots may stay empty, as the
        # attempts must fail before any slot is touched.
        obj = object.__new__(cls)
        for name in (dataclasses.fields(cls)[0].name, "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    def test_a_built_address_keeps_its_fields(self):
        a = addr([0], [1, 2])
        for attempt in (
            lambda: setattr(a, "extra", 1),
            lambda: delattr(a, "period"),
            lambda: setattr(a, "period", (3,)),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                attempt()
        assert (a.preperiod, a.period) == ((0,), (1, 2))
        assert dataclasses.replace(a, period=(3,)) == ExtAddress((0,), (3,))


class TestCompare:
    def test_examples(self):
        assert compare_lex(addr([0], [1]), addr([], [1])) is Ordering.LT
        assert compare_lex(addr([0], [1]), addr([0], [1])) is Ordering.EQ
        # (0,0,1,0,0,1,...) vs (0,0,1,0,1,...): entries 5 are 0 vs 1,
        # so the first sequence is smaller; frozen from the brute-force
        # prefix comparison.
        assert compare_lex(addr([], [0, 0, 1]), addr([0], [0, 1])) is Ordering.LT
        assert seq_compare([], [0, 0, 1], [0], [0, 1]) == -1

    @given(preperiods, periods, preperiods, periods)
    def test_against_bruteforce(self, pa, qa, pb, qb):
        a, b = canonicalize(pa, qa), canonicalize(pb, qb)
        want = seq_compare(pa, qa, pb, qb)
        assert compare_lex(a, b).value == want

    @given(preperiods, periods, preperiods, periods)
    def test_eq_iff_canonical_equal(self, pa, qa, pb, qb):
        a, b = canonicalize(pa, qa), canonicalize(pb, qb)
        assert (compare_lex(a, b) is Ordering.EQ) == (a == b)

    def test_total_order_on_random_triples(self):
        rng = random.Random(5)
        pool = [
            canonicalize(
                [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))],
                [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))],
            )
            for _ in range(60)
        ]
        for _ in range(300):
            a, b, c = rng.sample(pool, 3)
            assert (a < b) == (b > a) or a == b
            if a < b and b < c:
                assert a < c
            if a <= b and b <= a:
                assert a == b


class TestCyclicOrder:
    def test_examples(self):
        x, y, z = addr([], [0]), addr([], [1]), addr([], [2])
        assert cyclic_between(x, y, z)
        assert cyclic_between(y, z, x)
        assert not cyclic_between(z, y, x)

    def test_rotation_invariance_and_swap(self):
        rng = random.Random(6)
        for _ in range(200):
            trio = set()
            while len(trio) < 3:
                trio.add(
                    canonicalize(
                        [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))],
                        [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
                    )
                )
            a, b, c = trio
            assert cyclic_between(a, b, c) == cyclic_between(b, c, a)
            assert cyclic_between(a, b, c) != cyclic_between(b, a, c)

    def test_not_distinct(self):
        with pytest.raises(NotDistinctError):
            cyclic_between(addr([], [1]), addr([], [1]), addr([], [2]))


class TestDecisionLength:
    """Distinct pairs that agree on one entry less than the decision
    length ``max |pre| + p + q - gcd(p, q)``: no shorter length decides."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(preperiods, extremal_tails())
    def test_extremal_pairs_against_oracle(self, pre, tails):
        a, b = addr(pre, tails[0]), addr(pre, tails[1])
        p, q = len(a.period), len(b.period)
        bound = max(len(a.preperiod), len(b.preperiod)) + p + q - gcd(p, q)
        xs, ys = (materialize(pre, per, bound) for per in tails)
        assert xs[:-1] == ys[:-1] and xs[-1] != ys[-1]
        for x, y in ((a, b), (b, a)):
            want = seq_compare(x.preperiod, x.period, y.preperiod, y.period)
            assert compare_lex(x, y).value == want
            assert (x < y, x <= y, x > y, x >= y) == (
                want < 0,
                want <= 0,
                want > 0,
                want >= 0,
            )
