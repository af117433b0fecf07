"""Exact arithmetic on eventually periodic integer sequences.

An :class:`ExtAddress` stands for the infinite sequence
``preperiod . period . period . ...`` over the integers.  Values are kept
in a canonical form so that two addresses denote the same infinite
sequence exactly when they are equal as Python objects; this makes them
usable as dict keys and set members throughout the library.

Entries are plain Python integers, so magnitudes are unbounded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from math import gcd
from typing import Any, Iterable, Sequence

from .errors import EmptyPeriodError, NotDistinctError

__all__ = [
    "ExtAddress",
    "Ordering",
    "address",
    "canonicalize",
    "compare_lex",
    "cyclic_between",
]


class Ordering(Enum):
    LT = -1
    EQ = 0
    GT = 1


def _primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest word whose repetition gives ``word``.

    A proper repetition ``u^m`` (``m >= 2``) has ``word[|u|] == word[0]``,
    so a word whose first entry occurs once is primitive; otherwise a
    root is at most half as long as the word.
    """
    if not word or word.count(word[0]) == 1:
        return word
    n = len(word)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _min_rotation(word: tuple) -> tuple:
    """The least rotation ``word[k:] + word[:k]`` of ``word``."""
    return min((word[k:] + word[:k] for k in range(len(word))), default=word)


def _frozen(cls: type) -> type:
    """Make assigning or deleting any attribute of the frozen slotted
    dataclass ``cls`` raise ``FrozenInstanceError``.  The methods that
    ``@dataclass(frozen=True, slots=True)`` generates on Python 3.11 refer
    to the class as it was before its slots were added, so for a name that
    is not a field they raise ``TypeError`` from ``super()`` instead."""

    def __setattr__(self: Any, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self: Any, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class ExtAddress:
    """Canonical eventually periodic integer sequence.

    Do not call the constructor with non-canonical data; use
    :func:`canonicalize` (or the :func:`address` shorthand) instead.  The
    constructor stores its arguments as given and does not canonicalize.

    This class and the itinerary value objects built on it
    (:class:`~exptree.partition.Plain`,
    :class:`~exptree.partition.PreSingular` and
    :class:`~exptree.partition.Partition`) are frozen slotted dataclasses
    with a hand-written ``__init__`` of the generated signature.  The
    generated ``__init__`` of a frozen dataclass stores each field through
    ``object.__setattr__``, which looks the name up on the type to find
    the slot's descriptor.  The hand-written one calls the descriptors'
    ``__set__`` (``ExtAddress.preperiod.__set__``, ...), bound once at
    import, which is the same store without the lookup; a query builds
    about a dozen of these objects.  Everything else stays generated: eq,
    hash, ``dataclasses.replace``, pickling and copying (which do not call
    ``__init__`` but restore the slots).  Every frozen slotted dataclass
    of the library goes through :func:`_frozen`, so any assignment or
    deletion raises ``FrozenInstanceError``.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]) -> None:
        _set_preperiod(self, preperiod)
        _set_period(self, period)

    def entry(self, i: int) -> int:
        """The ``i``-th entry of the denoted sequence, ``i >= 1``."""
        if i < 1:
            raise IndexError(f"entry index must be >= 1, got {i}")
        i -= 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def entries(self, count: int) -> list[int]:
        """The first ``count`` entries as a list."""
        return list(_word(self.preperiod, self.period, count))

    def shift(self) -> "ExtAddress":
        """Drop the first entry (the left shift).

        A rotation of a primitive period is primitive and the last
        preperiod entry is kept, so the result is canonical as built.
        """
        if self.preperiod:
            return ExtAddress(self.preperiod[1:], self.period)
        return ExtAddress((), self.period[1:] + self.period[:1])

    def prepend(self, k: int) -> "ExtAddress":
        """The address ``k`` followed by this one.

        Canonical as built, except that ``k`` equal to the last period
        entry of a periodic address rotates into the period.
        """
        if self.preperiod or k != self.period[-1]:
            return ExtAddress((k,) + self.preperiod, self.period)
        return ExtAddress((), self.period[-1:] + self.period[:-1])

    def shifts(self) -> list["ExtAddress"]:
        """All distinct forward shifts, starting with the address itself.

        There are exactly ``|pre| + |per|`` of them.  The first ``|pre|``
        have preperiods of lengths ``|pre|, ..., 1``; the rest are the
        ``|per|`` rotations of the primitive period, which are pairwise
        distinct, and the next shift is the first rotation again.  All
        are canonical, so distinct forms denote distinct sequences.
        """
        out = [self]
        for _ in range(len(self.preperiod) + len(self.period) - 1):
            out.append(out[-1].shift())
        return out

    def is_periodic(self) -> bool:
        """True iff the shift orbit returns to the address itself."""
        return not self.preperiod

    def __lt__(self, other: "ExtAddress") -> bool:
        return _compare(self, other) < 0

    def __le__(self, other: "ExtAddress") -> bool:
        return _compare(self, other) <= 0

    def __gt__(self, other: "ExtAddress") -> bool:
        return _compare(self, other) > 0

    def __ge__(self, other: "ExtAddress") -> bool:
        return _compare(self, other) >= 0

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"{pre}({per})" if pre else f"({per})"

    def __repr__(self) -> str:
        return f"ExtAddress({self})"


_set_preperiod = ExtAddress.preperiod.__set__
_set_period = ExtAddress.period.__set__


def canonicalize(preperiod: Iterable[int], period: Iterable[int]) -> ExtAddress:
    """Canonical form of ``preperiod . period^infinity``.

    The period word is reduced to its primitive root, and trailing
    preperiod entries equal to the last period entry are rotated into the
    period: folding ``k`` entries keeps ``pre[:-k]`` and rotates the
    period right by ``k``, where entry ``pre[-1-i]`` folds iff it equals
    ``per[-1-i mod n]``.  Raises :class:`EmptyPeriodError` for an empty
    period.
    """
    pre = tuple(preperiod)
    per = _primitive_root(tuple(period))
    if not per:
        raise EmptyPeriodError("period word must be nonempty")
    n, r, k = len(per), len(pre), 0
    while k < r and pre[r - 1 - k] == per[(-1 - k) % n]:
        k += 1
    if k:
        pre, i = pre[: r - k], n - k % n
        per = per[i:] + per[:i]
    return ExtAddress(pre, per)


def address(text_or_pre, period=None) -> ExtAddress:
    """Convenience constructor: ``address([0], [1])`` or ``address("0(1)")``."""
    if isinstance(text_or_pre, str):
        from .notation import parse_address

        return parse_address(text_or_pre)
    return canonicalize(text_or_pre, period)


def _word(pre: tuple, per: tuple, count: int) -> tuple:
    """The first ``count`` entries of ``pre . per^infinity`` as a tuple."""
    return (pre + per * (count // len(per) + 1))[:count]


def _words(heads: Sequence[tuple[tuple, tuple]]) -> list[tuple]:
    """The words (:func:`_word`) of the heads ``(pre, per)``, canonical or
    not, at their :func:`_word_length`: they order as the sequences do, and
    are equal exactly when the sequences are."""
    L = _word_length(max([0] + [len(h[0]) for h in heads]), [len(h[1]) for h in heads])
    return [_word(pre, per, L) for pre, per in heads]


def _decision_length(pre: int, p: int, q: int) -> int:
    """Entries on which two sequences, periodic with periods ``p`` and
    ``q`` after at most ``pre`` entries, must agree to be equal; see
    :func:`compare_lex`."""
    return pre + p + q - gcd(p, q)


def _word_length(pre: int, periods: Iterable[int]) -> int:
    """A length at which the words (:func:`_words`) of addresses that are
    periodic after at most ``pre`` entries, with periods among
    ``periods``, order as the addresses do and are equal only for equal
    addresses: the greatest decision length of two such addresses (see
    :func:`compare_lex`)."""
    periods = set(periods)
    return max(
        (_decision_length(pre, p, q) for p in periods for q in periods), default=pre
    )


def _compare(a: ExtAddress, b: ExtAddress) -> int:
    """-1, 0 or 1 as ``a`` is below, equal to or above ``b``.

    The heads ``pre + per`` are the first entries of the sequences, so
    where the shorter head differs from the other's start the order is
    decided; otherwise the words of the decision length decide it.
    """
    x, y = a.preperiod + a.period, b.preperiod + b.period
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if x == y:
        d = _decision_length(
            max(len(a.preperiod), len(b.preperiod)), len(a.period), len(b.period)
        )
        x, y = _word(a.preperiod, a.period, d), _word(b.preperiod, b.period, d)
    return (x > y) - (x < y)


_ORDERINGS = (Ordering.LT, Ordering.EQ, Ordering.GT)


def compare_lex(a: ExtAddress, b: ExtAddress) -> Ordering:
    """Lexicographic comparison of the denoted infinite sequences.

    The comparison is decided on the first
    ``D = max(|pre_a|, |pre_b|) + p + q - gcd(p, q)`` entries, with
    ``p = |per_a|`` and ``q = |per_b|``.  From entry ``max |pre| + 1`` on,
    the sequences are periodic with periods ``p`` and ``q``; if they agree
    on ``D`` entries, their common tail word has length
    ``p + q - gcd(p, q)`` and both periods, so by Fine and Wilf it has
    period ``gcd(p, q)``.  Each tail repeats its first ``p`` (or ``q``)
    entries, a prefix of that word, so both tails repeat the word's first
    ``gcd(p, q)`` entries and the sequences are equal.  No shorter length
    works: for all ``p`` and ``q`` some distinct sequences agree on
    ``D - 1`` entries.
    """
    return _ORDERINGS[_compare(a, b) + 1]


def cyclic_between(a: ExtAddress, b: ExtAddress, c: ExtAddress) -> bool:
    """True iff ``b`` lies between ``a`` and ``c`` in the induced cyclic order.

    Equivalent to ``(a<b<c) or (b<c<a) or (c<a<b)``.  The three addresses
    must be pairwise distinct.
    """
    if a == b or b == c or a == c:
        raise NotDistinctError("cyclic order requires pairwise distinct addresses")
    return (a < b < c) or (b < c < a) or (c < a < b)


def _gap_of(anchors: Sequence[Any], a: Any) -> int | None:
    """Index ``i`` of the gap ``(anchors[i], anchors[i+1 mod q])`` that
    holds ``a``, or ``None`` when ``a`` is an anchor.

    ``anchors`` must strictly increase, in any total order (addresses,
    or their words in the tree build); the last gap wraps around, so it
    holds both the keys above the last anchor and those below the first.
    """
    j = bisect_left(anchors, a)
    if j < len(anchors) and anchors[j] == a:
        return None
    return (j - 1) % len(anchors)
