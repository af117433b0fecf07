"""Seeded inputs for the exptree benchmark, independent of the library.

Nothing here imports ``exptree``, so a change to the library cannot
change what the benchmark feeds it.  Addresses are ``(preperiod,
period)`` pairs of int tuples in the library's canonical form (primitive
period, no preperiod entry that could be rotated into the period).  The
few symbolic operations the generators need -- shift, prepend, the
lexicographic order, sectors and itineraries -- are written out below,
and they double as an independent check of the library's answers.

``random_base`` and ``random_external_address`` keep the draw order of
``exptree.verify``, so ``bases(20240810, 3, 4, 3)`` starts with the
100-base acceptance corpus.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cmp_to_key
from itertools import count
from math import gcd

Address = tuple[tuple[int, ...], tuple[int, ...]]

ACCEPTANCE_SHAPE = (3, 4, 3)  # max preperiod, max period, entry range
# Periods stop at 8: with periods up to 10, a base costs up to 2 s, a
# 35 s run holds about 110 bases, and their median time moved by 0.2 to
# 0.4 of itself from seed to seed.
LONG_SHAPE = (6, 8, 5)
SHAPE_DRAWS = 10_000
# separating_addresses is left out: on about one random address triod in
# 30,000 it raises GapAssignmentFailureError (a library defect; see
# BASELINE.md), and a run must have no failed op.  It returns once fixed.
QUERY_KINDS = ("itinerary", "same_map", "triod", "addresses")

# Each run starts with the first BATCH inputs of its workload; for the
# default seed they are the inputs the stored reference answers cover.
# corpus: the acceptance corpus; long: five rounds of period lengths 1..8.
WORKLOADS = ("corpus", "long", "queries")
DEFAULT_SEED = {"corpus": 20240810, "long": 7, "queries": 20240810}
BATCH = {"corpus": 100, "long": 40, "queries": 1000}
# A timed run ends on a whole round, so that its mix of input shapes does
# not depend on how many ops the host's speed let in: long serves one
# base per period length in turn, queries one query per kind.
ROUND = {"corpus": 1, "long": LONG_SHAPE[1], "queries": len(QUERY_KINDS)}


def canon(pre, per) -> Address:
    pre = list(pre)
    per = tuple(per)
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    per = list(per)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per.insert(0, per.pop())
    return tuple(pre), tuple(per)


def entry(a: Address, i: int) -> int:
    """Entry ``i >= 0`` of the denoted sequence (0-based)."""
    pre, per = a
    return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]


def shift(a: Address) -> Address:
    pre, per = a
    return canon(pre[1:], per) if pre else canon((), per[1:] + per[:1])


def prepend(a: Address, k: int) -> Address:
    return canon((k,) + a[0], a[1])


def compare(a: Address, b: Address) -> int:
    la, lb = len(a[1]), len(b[1])
    for i in range(max(len(a[0]), len(b[0])) + la * lb // gcd(la, lb)):
        x, y = entry(a, i), entry(b, i)
        if x != y:
            return -1 if x < y else 1
    return 0


class Partition:
    """The sectors cut out by a strictly preperiodic base ``s``."""

    def __init__(self, s: Address):
        self.s = s
        self.j0 = s[0][0] - 1 if compare(shift(s), s) < 0 else s[0][0]
        self.kneading = self.itinerary(s)

    def sector(self, t: Address) -> int | None:
        """Sector index of ``t``, or None on the partition boundary."""
        c = compare(shift(t), self.s)
        if c == 0:
            return None
        return (entry(t, 0) if c > 0 else entry(t, 0) - 1) - self.j0

    def itinerary(self, t: Address) -> str:
        """The itinerary of ``t`` written as the library prints it."""
        out = []
        cur = t
        for _ in range(len(t[0]) + len(t[1])):
            k = self.sector(cur)
            if k is None:
                return ",".join([str(x) for x in out] + ["*"])
            out.append(k)
            cur = shift(cur)
        return fmt(canon(out[: len(t[0])], out[len(t[0]) :]))

    def is_formal_point(self, t: Address, it: str) -> bool:
        """Membership of It(t) in S_nu: no strict shift equals nu."""
        if it.endswith("*"):
            return True
        cur = t
        for _ in range(len(t[0]) + len(t[1])):
            cur = shift(cur)
            if self.itinerary(cur) == self.kneading:
                return False
        return True

    def inverse_branch(self, k: int, u: Address) -> Address:
        return prepend(u, self.j0 + k + (0 if compare(u, self.s) > 0 else 1))


def fmt(a: Address) -> str:
    pre = ",".join(map(str, a[0]))
    per = ",".join(map(str, a[1]))
    return f"{pre}({per})" if pre else f"({per})"


def random_base(rng: random.Random, max_pre: int, max_per: int, er: int) -> Address:
    """A random strictly preperiodic address with leading entry 0."""
    while True:
        pre = [0] + [rng.randint(-er, er) for _ in range(rng.randint(0, max_pre - 1))]
        per = [rng.randint(-er, er) for _ in range(rng.randint(1, max_per))]
        a = canon(pre, per)
        if a[0] and a[0][0] == 0:
            return a


def random_external_address(rng: random.Random, P: Partition, er: int = 4) -> Address:
    """A random address: generic, boundary preimage, or sector pullback."""
    kind = rng.random()
    if kind < 0.7:
        pre = [rng.randint(-er, er) for _ in range(rng.randint(0, 3))]
        per = [rng.randint(-er, er) for _ in range(rng.randint(1, 4))]
        return canon(pre, per)
    if kind < 0.85:
        return prepend(P.s, rng.randint(-er, er))
    a = prepend(P.s, rng.randint(-er, er))
    for _ in range(rng.randint(1, 2)):
        a = P.inverse_branch(rng.randint(-2, 2), a)
    return a


def bases(seed: int, max_pre: int, max_per: int, er: int):
    """Endless stream of distinct random bases, in draw order."""
    rng = random.Random(seed)
    seen = set()
    while True:
        a = random_base(rng, max_pre, max_per, er)
        if a not in seen:
            seen.add(a)
            yield a


def corpus_inputs(seed: int):
    yield from bases(seed, *ACCEPTANCE_SHAPE)


def long_inputs(seed: int):
    """Long bases, served so that every run sees the same mix of shapes.

    The cost of a base grows about twofold per unit of period length and
    also with the preperiod length, so in plain draw order the mix of
    lengths in one run would decide its throughput.  Round ``j`` serves
    one base of each period length ``n`` with preperiod length
    ``1 + (j + n) % 6``; six rounds cover every shape once.  Which bases
    fill the shapes is still up to the seed.  A shape can run out of
    distinct bases (there are ten of shape (1, 1)); once ``SHAPE_DRAWS``
    draws in a row bring none, its turns go to the next preperiod length.
    """
    max_pre, max_per, _ = LONG_SHAPE
    stream = bases(seed, *LONG_SHAPE)
    waiting: dict[tuple[int, int], list[Address]] = defaultdict(list)
    spent: set[tuple[int, int]] = set()

    def fill(shape: tuple[int, int]) -> bool:
        draws = 0
        while not waiting[shape]:
            if shape in spent or draws == SHAPE_DRAWS:
                spent.add(shape)
                return False
            a = next(stream)
            waiting[len(a[0]), len(a[1])].append(a)
            draws += 1
        return True

    for j in count():
        for n in range(1, max_per + 1):
            for k in range(max_pre):
                shape = (1 + (j + n + k) % max_pre, n)
                if fill(shape):
                    break
            yield waiting[shape].pop(0)


def _address_triod(rng: random.Random, P: Partition):
    """Three addresses in increasing order with distinct itineraries in
    S_nu, or None when 200 draws found none."""
    for _ in range(200):
        triple = {random_external_address(rng, P) for _ in range(3)}
        if len(triple) != 3:
            continue
        members = sorted(triple, key=cmp_to_key(compare))
        its = [P.itinerary(a) for a in members]
        if len(set(its)) == 3 and all(map(P.is_formal_point, members, its)):
            return tuple(members)
    return None


def query_inputs(seed: int):
    """Endless stream of ``(kind, partition, args)`` single-call queries on
    acceptance-shaped bases, the kinds taken in turn."""
    rng = random.Random(seed)
    while True:
        for kind in QUERY_KINDS:
            while True:
                s = random_base(rng, *ACCEPTANCE_SHAPE)
                P = Partition(s)
                if kind == "itinerary":
                    args = (random_external_address(rng, P),)
                elif kind == "same_map":
                    args = (random_base(rng, *ACCEPTANCE_SHAPE),)
                else:
                    args = _address_triod(rng, P)
                    if args is None:
                        continue
                yield kind, P, args
                break

