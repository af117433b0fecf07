"""Fine–Wilf extremal pairs: distinct eventually periodic sequences that
agree on as many entries as their periods allow.

For periods ``p`` and ``q`` with ``g = gcd(p, q)``, the positions
``0 .. p+q-g-2`` of a word, joined where they are ``p`` or ``q`` apart,
fall into more than ``g`` classes.  One letter per class gives a word of
length ``p + q - g - 1`` with periods ``p`` and ``q`` but not ``g``; its
``p``- and ``q``-periodic continuations are distinct and agree on
exactly that word.
"""

from __future__ import annotations

from math import gcd

from hypothesis import strategies as st


def extremal_periods(p: int, q: int, letters) -> tuple[list[int], list[int]]:
    """Period words of lengths ``p`` and ``q`` whose periodic sequences
    agree on exactly ``p + q - gcd(p, q) - 1`` entries.  ``letters`` must
    hold enough distinct values (at most 13 for ``p, q <= 12``)."""
    n = p + q - gcd(p, q) - 1
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for d in (p, q):
            if i + d < n:
                parent[find(i + d)] = find(i)
    letters = iter(letters)
    label = {r: next(letters) for r in sorted({find(i) for i in range(n)})}
    word = [label[find(i)] for i in range(n)]
    # A period longer than the word (p divides q or q divides p) ends in a
    # letter of its own.
    return tuple(word[:k] if k <= n else word + [next(letters)] for k in (p, q))


@st.composite
def extremal_tails(draw, max_period: int = 12, entry: int = 6):
    """``(p_word, q_word)`` from :func:`extremal_periods` with periods up
    to ``max_period`` and letters in ``[-entry, entry]``."""
    p = draw(st.integers(1, max_period))
    q = draw(st.integers(1, max_period))
    letters = draw(st.permutations(range(-entry, entry + 1)))
    return extremal_periods(p, q, letters)
