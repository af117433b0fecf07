"""Exact arithmetic on eventually periodic integer sequences.

An :class:`ExtAddress` stands for the infinite sequence
``preperiod . period . period . ...`` over the integers.  Values are kept
in a canonical form so that two addresses denote the same infinite
sequence exactly when they are equal as Python objects; this makes them
usable as dict keys and set members throughout the library.

Entries are plain Python integers, so magnitudes are unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable

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
    """Shortest word whose repetition gives ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _least_rotation(word: tuple) -> int:
    """The ``k`` whose rotation ``word[k:] + word[:k]`` is least."""
    return min(range(len(word)), key=lambda i: word[i:] + word[:i])


@dataclass(frozen=True, slots=True)
class ExtAddress:
    """Canonical eventually periodic integer sequence.

    Do not call the constructor with non-canonical data; use
    :func:`canonicalize` (or the :func:`address` shorthand) instead.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

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
        pre, per = self.preperiod, self.period
        return list((pre + per * (count // len(per) + 1))[:count])

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
        """All distinct forward shifts, starting with the address itself."""
        out = [self]
        seen = {self}
        cur = self
        while True:
            cur = cur.shift()
            if cur in seen:
                return out
            seen.add(cur)
            out.append(cur)

    def is_periodic(self) -> bool:
        """True iff the shift orbit returns to the address itself."""
        return not self.preperiod

    def __lt__(self, other: "ExtAddress") -> bool:
        return compare_lex(self, other) is Ordering.LT

    def __le__(self, other: "ExtAddress") -> bool:
        return compare_lex(self, other) is not Ordering.GT

    def __gt__(self, other: "ExtAddress") -> bool:
        return compare_lex(self, other) is Ordering.GT

    def __ge__(self, other: "ExtAddress") -> bool:
        return compare_lex(self, other) is not Ordering.LT

    def __str__(self) -> str:
        pre = ",".join(str(k) for k in self.preperiod)
        per = ",".join(str(k) for k in self.period)
        return f"{pre}({per})" if pre else f"({per})"

    def __repr__(self) -> str:
        return f"ExtAddress({self})"


def canonicalize(preperiod: Iterable[int], period: Iterable[int]) -> ExtAddress:
    """Canonical form of ``preperiod . period^infinity``.

    The period word is reduced to its primitive root, and trailing
    preperiod entries equal to the last period entry are rotated into the
    period.  Raises :class:`EmptyPeriodError` for an empty period.
    """
    pre = list(preperiod)
    per = list(_primitive_root(tuple(period)))
    if not per:
        raise EmptyPeriodError("period word must be nonempty")
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per.insert(0, per.pop())
    return ExtAddress(tuple(pre), tuple(per))


def address(text_or_pre, period=None) -> ExtAddress:
    """Convenience constructor: ``address([0], [1])`` or ``address("0(1)")``."""
    if isinstance(text_or_pre, str):
        from .notation import parse_address

        return parse_address(text_or_pre)
    return canonicalize(text_or_pre, period)


def compare_lex(a: ExtAddress, b: ExtAddress) -> Ordering:
    """Lexicographic comparison of the denoted infinite sequences.

    Two eventually periodic sequences that agree on the first
    ``max(|pre_a|, |pre_b|) + lcm(|per_a|, |per_b|)`` entries are equal,
    so the comparison is decided within that bound.
    """
    la, lb = len(a.period), len(b.period)
    bound = max(len(a.preperiod), len(b.preperiod)) + la * lb // gcd(la, lb)
    for i in range(1, bound + 1):
        x, y = a.entry(i), b.entry(i)
        if x != y:
            return Ordering.LT if x < y else Ordering.GT
    return Ordering.EQ


def cyclic_between(a: ExtAddress, b: ExtAddress, c: ExtAddress) -> bool:
    """True iff ``b`` lies between ``a`` and ``c`` in the induced cyclic order.

    Equivalent to ``(a<b<c) or (b<c<a) or (c<a<b)``.  The three addresses
    must be pairwise distinct.
    """
    if a == b or b == c or a == c:
        raise NotDistinctError("cyclic order requires pairwise distinct addresses")
    return (a < b < c) or (b < c < a) or (c < a < b)
