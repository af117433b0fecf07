"""The formal triod map on itineraries and on external addresses.

A triod is a triple of distinct formal (pre-)periodic points.  One step
of the triod map shifts all members when their first symbols agree,
chops the odd one out (replacing it by the kneading sequence) when
exactly two agree, and stops when all three first symbols are pairwise
distinct.  The star symbol counts as distinct from every integer; the
only itinerary starting with the star is ``*nu`` itself.

The stream of majority votes assembles the middle point of the triple:
the branch point if the triple is branched, the middle member if it is
linear.  A triple whose first symbols are pairwise distinct is the stop
case at once, with middle point ``*nu``, and :func:`middle_point` answers
it without a map.  One triod map on integer itinerary ids
(:class:`_TriodMap`) computes every other middle point, for
:func:`middle_point` and for the tree build.  It keys the ids by raw
canonical tuples, shifts and prepends on those tuples, and keeps middle
points as ids: a vote is prepended to an id through a ``(first symbol,
shift id) -> id`` table.  An itinerary is built only for an id that is
handed back.  :func:`triod_step` and :func:`majority_vote` are the
reference it agrees with.  The address-level map does the same
bookkeeping through partition sectors and is semi-conjugate to the
itinerary-level map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    InternalInvariantError,
    IsStopCaseError,
    NotCyclicallyOrderedError,
    NotDistinctError,
    NotFormalError,
)
from .partition import (
    STAR,
    Itinerary,
    Partition,
    Plain,
    PreSingular,
    is_in_S_nu,
    itinerary,
    sector_of,
    shift_itinerary,
)
from .sequences import ExtAddress, _frozen, _primitive_root, cyclic_between

__all__ = [
    "AddressTriod",
    "Triod",
    "TriodShape",
    "Shape",
    "address_triod_step",
    "classify",
    "majority_vote",
    "middle_point",
    "to_itinerary_triod",
    "triod_step",
]


class Shape(Enum):
    BRANCHED = "branched"
    LINEAR = "linear"
    PRESINGULAR_BRANCHED = "presingular-branched"
    PRESINGULAR_LINEAR = "presingular-linear"


@_frozen
@dataclass(frozen=True, slots=True)
class TriodShape:
    """Shape of a triod; ``middle`` is the 1-based member index for the
    linear variants and ``None`` for the branched ones."""

    shape: Shape
    middle: int | None = None

    def is_linear(self) -> bool:
        return self.shape in (Shape.LINEAR, Shape.PRESINGULAR_LINEAR)

    def is_presingular(self) -> bool:
        return self.shape in (Shape.PRESINGULAR_BRANCHED, Shape.PRESINGULAR_LINEAR)

    def __str__(self) -> str:
        if self.middle is None:
            return self.shape.value
        return f"{self.shape.value}(middle={self.middle})"


@_frozen
@dataclass(frozen=True, slots=True)
class Triod:
    """Ordered triple of distinct itineraries in the ambient partition."""

    members: tuple[Itinerary, Itinerary, Itinerary]
    partition: Partition

    def __post_init__(self):
        t, u, v = self.members
        if t == u or u == v or t == v:
            raise NotDistinctError("triod members must be pairwise distinct")

    def validate(self) -> None:
        """Check membership of all members in the formal point space."""
        for m in self.members:
            if not is_in_S_nu(self.partition, m):
                raise NotFormalError(
                    f"itinerary {m} has a forward shift equal to the kneading sequence"
                )

    def __str__(self) -> str:
        return _bracketed(self.members)


@_frozen
@dataclass(frozen=True, slots=True)
class AddressTriod:
    """Triple of external addresses in positive cyclic order whose
    itineraries are distinct formal (pre-)periodic points."""

    members: tuple[ExtAddress, ExtAddress, ExtAddress]
    partition: Partition

    def __post_init__(self):
        t, u, v = self.members
        if not cyclic_between(t, u, v):
            raise NotCyclicallyOrderedError(
                "address triod members must be listed in positive cyclic order"
            )

    def validate(self) -> None:
        to_itinerary_triod(self).validate()

    def __str__(self) -> str:
        return _bracketed(self.members)


def _bracketed(members) -> str:
    return "[" + ", ".join(map(str, members)) + "]"


def _odd_one_out(a, b, c) -> int | None:
    """The step rule of every triod map, on the members' first symbols
    (or sectors): the index of the one that differs from the other two,
    3 when all three agree, ``None`` when no two agree (the stop case)."""
    if a == b:
        return 3 if a == c else 2
    if a == c:
        return 1
    return 0 if b == c else None


def _shift_key(key: tuple, nu: tuple) -> tuple:
    """The key (see :class:`_TriodMap`) of the shift of the itinerary keyed
    ``key``; ``nu``, the kneading sequence's key, is the shift of ``*nu``."""
    if len(key) == 1:
        return (key[0][1:],) if key[0] else nu
    pre, per = key
    return (pre[1:], per) if pre else ((), per[1:] + per[:1])


def to_itinerary_triod(A: AddressTriod) -> Triod:
    """The associated triod of itineraries."""
    P = A.partition
    return Triod(tuple(itinerary(P, x) for x in A.members), P)


def triod_step(T: Triod) -> Triod | None:
    """One application of the formal triod map, or ``None`` for stop.

    Members whose first symbols form the majority are shifted; a member
    whose first symbol differs from the other two is replaced by the
    kneading sequence.
    """
    P = T.partition
    odd = _odd_one_out(*(m.first_symbol() for m in T.members))
    if odd is None:
        return None
    nu, sh = P.kneading, shift_itinerary
    return Triod(tuple(nu if i == odd else sh(P, m) for i, m in enumerate(T.members)), P)


def majority_vote(T: Triod) -> int:
    """The integer shared by at least two first symbols."""
    firsts = [m.first_symbol() for m in T.members]
    odd = _odd_one_out(*firsts)
    if odd is None:
        raise IsStopCaseError(f"triod {T} is in the stop case")
    vote = firsts[1 if odd == 0 else 0]
    if vote == STAR:
        raise InternalInvariantError(
            f"triod {T}: two members start with the star, but only *nu does"
        )
    return vote


class _TriodMap:
    """The triod map of one partition on integer itinerary ids.

    An itinerary is keyed by its raw canonical tuples: ``(preperiod,
    period)`` for a plain itinerary and ``(prefix,)`` for a pre-singular
    one.  A key gets an id the first time it is seen, with its first
    symbol; the id of its shift is filled in when a step first shifts it,
    and so is the entry ``(first symbol, shift id) -> id`` of the prepend
    table.  Shifts and prepends work on the keys, and an itinerary is
    built only for an id that is handed back (:meth:`itinerary`).

    Keys are canonical by construction, so ids are in bijection with
    itineraries and id equality is itinerary equality.  The keys of
    itineraries given to :meth:`id` are the canonical forms they hold.
    The shift of a canonical key is canonical (see
    :meth:`~exptree.sequences.ExtAddress.shift`): the last preperiod entry
    is kept, and a rotation of a primitive period is primitive.  A prepend
    is canonical with the rotation rule of
    :meth:`~exptree.sequences.ExtAddress.prepend`, and the periodic tail
    that closes a cycle of states is reduced to its primitive root.  A
    pre-singular prefix is its own canonical form.

    A state is the sorted triple of member ids: the middle point does not
    depend on the order of the members.  Every state solved is memoized
    with the id of its middle point, so one map answers many triples of
    one partition without repeating work.
    """

    __slots__ = (
        "P", "ids", "keys", "firsts", "shifts", "prepends", "memo", "formals", "nu"
    )

    def __init__(self, P: Partition):
        self.P = P
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.firsts: list = []
        self.shifts: dict[int, int] = {}
        self.prepends: dict[tuple, int] = {}
        self.memo: dict[tuple[int, int, int], int] = {}
        self.formals: dict[int, bool] = {}
        self.nu = self.key_id((P.kneading.seq.preperiod, P.kneading.seq.period))

    def key_id(self, key: tuple) -> int:
        """The id of the canonical key ``key``."""
        n = len(self.keys)
        i = self.ids.setdefault(key, n)
        if i == n:
            self.keys.append(key)
            if len(key) == 2:
                self.firsts.append((key[0] or key[1])[0])
            else:
                self.firsts.append(key[0][0] if key[0] else STAR)
        return i

    def id(self, it: Itinerary) -> int:
        """The id of the itinerary ``it``."""
        if isinstance(it, Plain):
            return self.key_id((it.seq.preperiod, it.seq.period))
        return self.key_id((it.prefix,))

    def itinerary(self, i: int) -> Itinerary:
        """The itinerary with id ``i``."""
        key = self.keys[i]
        return Plain(ExtAddress(*key)) if len(key) == 2 else PreSingular(key[0])

    def _shift(self, i: int) -> int:
        j = self.shifts.get(i)
        if j is None:
            j = self.key_id(_shift_key(self.keys[i], self.keys[self.nu]))
            self.shifts[i] = j
            self.prepends[self.firsts[i], j] = i
        return j

    def _prepend(self, vote: int, i: int) -> int:
        """The id of ``vote`` followed by the itinerary with id ``i``."""
        j = self.prepends.get((vote, i))
        if j is None:
            key = self.keys[i]
            if len(key) == 1:
                key = ((vote,) + key[0],)
            elif key[0] or vote != key[1][-1]:
                key = ((vote,) + key[0], key[1])
            else:
                key = ((), key[1][-1:] + key[1][:-1])
            j = self.key_id(key)
            self.shifts[j] = i
            self.prepends[vote, i] = j
        return j

    def formal(self, i: int) -> bool:
        """Whether the itinerary with id ``i`` lies in ``S_nu``
        (:func:`~exptree.partition.is_in_S_nu`): it is pre-singular, or
        following its shift ids never reaches the kneading sequence's id.
        Each id on the way keeps the answer: its strict shifts are those
        of the next id plus that id."""
        if len(self.keys[i]) == 1:
            return True
        path: list[int] = []
        while (ok := self.formals.get(i)) is None:
            if i in path:
                ok = True
                break
            path.append(i)
            i = self._shift(i)
            if i == self.nu:
                ok = False
                break
        for j in path:
            self.formals[j] = ok
        return ok

    def _str(self, state: tuple[int, ...]) -> str:
        return _bracketed(map(self.itinerary, state))

    def middle(self, *members: int) -> int:
        """The id of the middle point of the triod with the three member ids.

        The map walks states until the stop case (tail ``*nu``), a state
        of this walk repeats (tail the periodic vote word from there on)
        or a state is memoized; then it walks back, prepending one vote
        per state, and memoizes every state on the way.
        """
        memo = self.memo
        state = tuple(sorted(members))
        if (tail := memo.get(state)) is not None:
            return tail
        firsts, sh, nu = self.firsts, self._shift, self.nu
        # state -> votes cast before it; the dict keeps the walk's order
        seen: dict[tuple[int, ...], int] = {}
        votes: list[int] = []
        while (tail := memo.get(state)) is None:
            if state in seen:
                tail = self.key_id(((), _primitive_root(tuple(votes[seen[state] :]))))
                break
            a, b, c = state
            odd = _odd_one_out(firsts[a], firsts[b], firsts[c])
            if odd is None:
                tail = memo[state] = self.key_id(((),))
                break
            vote = firsts[b if odd == 0 else a]
            if vote == STAR:
                raise InternalInvariantError(
                    f"triod {self._str(state)}: two members start with the star, "
                    "but only *nu does"
                )
            seen[state] = len(votes)
            votes.append(vote)
            x, y, z = sorted(
                (nu if odd == 0 else sh(a), nu if odd == 1 else sh(b), nu if odd == 2 else sh(c))
            )
            if x == y or y == z:
                raise NotDistinctError(f"triod {self._str(state)} maps to equal members")
            state = (x, y, z)
        for state, vote in zip(reversed(seen), reversed(votes)):
            tail = memo[state] = self._prepend(vote, tail)
        return tail


def middle_point(T: Triod) -> Itinerary:
    """The middle point of the triod: the stream of majority votes.

    When iteration reaches the stop case after ``i`` votes, the result is
    pre-singular with the collected votes as prefix.  Otherwise the vote
    stream is eventually periodic: every member of an iterated triod is a
    shift of one of the inputs or of the kneading sequence, so the
    iteration revisits a state, at which point the votes split into
    preperiod and period.  Members with pairwise distinct first symbols
    are the stop case before any vote, so the result is ``*nu`` and no
    map is needed; every other call runs the map on a fresh
    :class:`_TriodMap`.
    """
    t, u, v = T.members
    if _odd_one_out(t.first_symbol(), u.first_symbol(), v.first_symbol()) is None:
        return PreSingular(())
    m = _TriodMap(T.partition)
    return m.itinerary(m.middle(*map(m.id, T.members)))


def classify(T: Triod) -> TriodShape:
    """Shape of the triod: linear iff the middle point is a member;
    pre-singular variants iff iteration reached the stop case."""
    return _shape(T, middle_point(T))


def _shape(T: Triod, b: Itinerary) -> TriodShape:
    """Shape of ``T`` given its middle point ``b``."""
    presing = isinstance(b, PreSingular)
    for i, m in enumerate(T.members, start=1):
        if m == b:
            return TriodShape(
                Shape.PRESINGULAR_LINEAR if presing else Shape.LINEAR, middle=i
            )
    return TriodShape(Shape.PRESINGULAR_BRANCHED if presing else Shape.BRANCHED)


def address_triod_step(A: AddressTriod) -> AddressTriod | None:
    """One step of the triod map on external addresses, or ``None`` for stop.

    Members sharing a partition sector are shifted; the member outside
    the shared sector is replaced by the base address.  Stop iff no two
    share a sector; a member on the partition boundary shares none.
    """
    P = A.partition
    odd = _odd_one_out(*(sector_of(P, x) for x in A.members))
    if odd is None:
        return None
    return AddressTriod(
        tuple(P.base if i == odd else x.shift() for i, x in enumerate(A.members)), P
    )
