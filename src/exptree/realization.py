"""Enumerate the external addresses realizing a given itinerary.

Every formal (pre-)periodic itinerary is realized by finitely many
external addresses, all sharing one preperiod length and one period
length (a multiple ``m * n`` of the itinerary's period ``n``).  Those
of a periodic itinerary are the periodic points of the composed inverse
branch ``G`` of its period word; :func:`_periodic_search` iterates ``G``
once from each of its cuts, certifies the periodic address that the
repeating prepended words spell, and adds its ``G``-orbit.  The base
``s`` bounds the multiplier ``m`` by ``2(|pre_s| + |per_s|) + 1``, and
with it the steps per seed; an explicit ``m_max`` caps the search.  This is
the pull-back machinery of Bruin and Schleicher's *Symbolic Dynamics of
Quadratic Polynomials*, carried over to exponential addresses.

Every other family is a pullback (:func:`_pullback`): the shift maps
each sector ``I_k`` one-to-one, so the realizations of ``k.t`` are the
images under the inverse branch ``L_k`` of those of ``t`` other than the
base.  Preperiodic itineraries are pulled back from their periodic part,
pre-singular ones from the boundary sheets ``m.s``.  Nothing is kept
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    EmptyRangeError,
    GapAssignmentFailureError,
    InternalInvariantError,
    RealizationBoundExceededError,
)
from .partition import (
    STAR,
    Itinerary,
    Partition,
    Plain,
    PreSingular,
    inverse_branch,
    itinerary,
)
from .sequences import ExtAddress, _gap_of, canonicalize
from .triods import (
    AddressTriod,
    TriodShape,
    _shape,
    address_triod_step,
    middle_point,
    to_itinerary_triod,
)

__all__ = [
    "AddressSet",
    "SeparatingAddress",
    "addresses_of",
    "addresses_of_periodic",
    "separating_addresses",
]


@dataclass(frozen=True, slots=True)
class AddressSet:
    """Finite, lexicographically sorted family of addresses sharing one
    itinerary."""

    addresses: tuple[ExtAddress, ...]
    itinerary: Itinerary

    def __post_init__(self):
        if not self.addresses:
            return
        pre_lens = {len(a.preperiod) for a in self.addresses}
        per_lens = {len(a.period) for a in self.addresses}
        if len(pre_lens) != 1 or len(per_lens) != 1:
            raise InternalInvariantError(
                f"realizing addresses of {self.itinerary} disagree on preperiod/period"
            )
        if isinstance(self.itinerary, Plain):
            n = len(self.itinerary.seq.period)
            if per_lens.pop() % n != 0:
                raise InternalInvariantError(
                    f"address period is not a multiple of the itinerary period for {self.itinerary}"
                )

    def __iter__(self):
        return iter(self.addresses)

    def __len__(self):
        return len(self.addresses)


def addresses_of_periodic(
    P: Partition, p: Plain, m_max: int | None = None
) -> AddressSet:
    """All periodic external addresses with itinerary ``p``.

    Each call runs one search on ``p``'s own period word.  Raises
    :class:`RealizationBoundExceededError` when the search needs a
    multiplier above ``m_max``; ``None`` means the bound that the base
    gives (see :func:`_periodic_search`), which every search meets.
    """
    if not isinstance(p, Plain) or p.seq.preperiod:
        raise ValueError(f"itinerary {p} is not purely periodic")
    return AddressSet(tuple(sorted(_periodic_search(P, p.seq.period, m_max))), p)


def _pull(P: Partition, letters: Sequence[int], x: ExtAddress) -> ExtAddress:
    """``L_{letters[0]} o ... o L_{letters[-1]}`` applied to ``x``, unfiltered:
    the periodic search's cut test needs the ``<= s`` rule at the base."""
    for k in reversed(letters):
        x = inverse_branch(P, k, x)
    return x


def _periodic_search(
    P: Partition, word: tuple[int, ...], m_max: int | None = None
) -> tuple[ExtAddress, ...]:
    """The periodic addresses whose itinerary has period ``word``.

    These are the periodic points of ``G = L_{p_1} o ... o L_{p_n}``
    (``L_k`` is :func:`inverse_branch`).  ``G`` prepends one ``n``-word
    per step and jumps only at its cuts: the ``sigma^r s`` (``0 <= r <
    n``) that the last ``r`` letters of ``word`` pull back to the base
    ``s`` exactly, ``s`` itself among them.  Iterating ``G`` once from
    each cut, by the ``<= s`` rule, finds every orbit.  Each ``L_k`` is
    increasing on the circle cut at ``s``, left-continuous (``s`` goes to
    the top ``(j0+k+1).s`` of ``I_k^-``) and continuous elsewhere in the
    order completion, so ``G^m`` is increasing and continuous on each arc
    ``(q, q']`` between its jumps.  Near a realizing ``x0`` of
    ``G``-period ``m``, ``G^m`` prepends a fixed word, so ``x0`` attracts
    from both sides and is the only fixed point on its arc (completion
    points are not fixed, and two attracting fixed points need a third
    between them).  So the iterates of the top ``q'`` converge to ``x0``,
    and ``q'``, a jump of ``G^m``, lands on a cut of ``G`` within ``m``
    steps; from there on it is that cut's seed.

    Once the last ``j`` prepended words repeat the ``j`` words before
    them, the periodic address with those ``j`` words as its period is
    certified by its itinerary (or found among the addresses already
    certified), and its whole ``G``-orbit, the rotations of its period
    word by multiples of ``n``, is added.  All orbits share one
    multiplier ``m``, the address period over ``n``.  With ``j`` at most
    ``m_max`` and ``2 * m_max + 2`` steps per seed, a seed that does not
    close raises :class:`RealizationBoundExceededError`.

    The base bounds the multiplier, and ``m_max=None`` takes that bound
    ``N = 2(|pre_s| + |per_s|) + 1``.  Let ``O`` be the ``|pre_s| +
    |per_s|`` distinct shifts of ``s``: ``O`` is closed under the shift and
    totally ordered, so an address either equals a point of ``O`` or lies
    strictly between two neighbours, one of ``N`` positions.  ``L_k(u) =
    e.u`` with ``e = j0+k+1`` if ``u <= s`` and ``e = j0+k`` otherwise, so
    ``e`` is fixed by ``u``'s position.  For ``o = f.sigma(o)`` in ``O``,
    ``e.u`` compares with ``o`` as ``e`` with ``f``, and when ``e == f`` as
    ``u`` with ``sigma(o)``, again a point of ``O``.  So the position of
    ``L_k(u)``, and every word ``G`` prepends, are functions of ``u``'s
    position: the words of a seed are eventually periodic with transient
    plus period at most ``N``.  Every multiplier is therefore at most
    ``N``, and each seed closes within ``2N`` steps.
    """
    n, s = len(word), P.base
    if m_max is None:
        m_max = 2 * (len(s.preperiod) + len(s.period)) + 1
    found: set[ExtAddress] = set()
    cut = s
    for r in range(n):
        if _pull(P, word[n - r :], cut) == s:
            found |= _seed_orbit(P, word, cut, m_max, found)
        cut = cut.shift()
    return tuple(found)


def _seed_orbit(
    P: Partition,
    word: tuple[int, ...],
    x: ExtAddress,
    m_max: int,
    found: set[ExtAddress],
) -> set[ExtAddress]:
    """The ``G``-orbit that the seed ``x`` closes on."""
    n = len(word)
    words: list[tuple[int, ...]] = []
    for i in range(1, 2 * m_max + 3):
        x = _pull(P, word, x)
        words.append(tuple(x.entries(n)))
        for j in range(1, min(i // 2, m_max) + 1):
            if words[i - j :] != words[i - 2 * j : i - j]:
                continue
            t = canonicalize((), [e for w in reversed(words[i - j :]) for e in w])
            if t in found or itinerary(P, t) == Plain(canonicalize((), word)):
                per = t.period
                rotations = range(0, len(per), n)
                return {ExtAddress((), per[r:] + per[:r]) for r in rotations}
    raise RealizationBoundExceededError(
        f"no realizing address of the rotations of {canonicalize((), word)} "
        f"over the base {P.base} found for m <= {m_max}"
    )


def _pullback(
    P: Partition, letters: Sequence[int], family: Iterable[ExtAddress]
) -> list[ExtAddress]:
    """The realizations of ``letters.t``, given those of ``t``: ``L_k``
    for each letter ``k``, the last first, applied to every address but
    the base ``s``.  ``L_k(a)`` lies strictly inside ``I_k``, with itinerary
    ``k.itin(a)``, unless ``a == s``, which it sends to the bound
    ``(j0+k+1).s``, a pre-singular point.  So the filter keeps exactly the
    pullbacks with itinerary ``letters.t``, and as the shift inverts ``L_k``
    on ``I_k`` there are no others."""
    out = list(family)
    for k in reversed(letters):
        out = [inverse_branch(P, k, a) for a in out if a != P.base]
    return out


def _presingular_sheets(firsts: Iterable[int]) -> range:
    """Sheets for the boundary pullbacks of a pre-singular itinerary,
    given the first entries of what the pullbacks must separate: from one
    below the least to one above the greatest, so the sheets reach past
    both ends.  Where a range is too narrow, :func:`separating_addresses`
    raises :class:`GapAssignmentFailureError`."""
    firsts = list(firsts)
    return range(min(firsts) - 1, max(firsts) + 2)


def _vertex_sheets(P: Partition, its: Iterable[Itinerary]) -> range:
    """Sheets for the boundary pullbacks of a tree's pre-singular vertices:
    a vertex whose itinerary starts with ``k`` lies in sector ``I_k``,
    between the sheets ``j0 + k`` and ``j0 + k + 1``, and the range runs
    from the least of these sheets to the greatest.

    No sheet beyond either end changes the tree.  At a branch vertex
    ``w*nu`` the pullbacks of ``m.s`` and ``(m+1).s`` along ``w`` bound the
    addresses whose ``|w|``-fold shift lies in ``I_{m-j0}``, and those
    shifts of branch addresses lie in sectors of vertices or on the
    sheets, so no branch address falls in a gap an outer sheet adds."""
    firsts = [P.offset_j0 + it.first_symbol() for it in its if it.first_symbol() != STAR]
    return range(min(firsts), max(firsts) + 2)


def addresses_of(
    P: Partition,
    t: Itinerary,
    m_max: int | None = None,
    m_range: Iterable[int] | None = None,
) -> AddressSet:
    """External addresses realizing the itinerary ``t``.

    A preperiodic ``t`` takes the :func:`_pullback` of the realizations of
    its periodic part through its preperiod.  A pre-singular ``t`` has one
    realization per sheet ``m.s`` of the partition boundary, so the caller
    supplies a finite ``m_range``; the base is not periodic, so no pullback
    of a sheet is the base and none is dropped.
    """
    if isinstance(t, PreSingular):
        family, letters = [P.base.prepend(m) for m in m_range or ()], t.prefix
        if not family:
            raise EmptyRangeError("pre-singular realization requires a nonempty m range")
    else:
        family = addresses_of_periodic(P, Plain(canonicalize((), t.seq.period)), m_max)
        if not t.seq.preperiod:
            return family
        letters = t.seq.preperiod
    return AddressSet(tuple(sorted(_pullback(P, letters, family))), t)


@dataclass(frozen=True, slots=True)
class SeparatingAddress:
    """An address of the middle-point itinerary, located relative to the
    triod: strictly inside cyclic gap ``(member_gap, member_gap+1)`` or
    equal to member ``member`` (1-based indices, None otherwise)."""

    address: ExtAddress
    gap: int | None
    member: int | None


def _stop_stage(A: AddressTriod, steps: int) -> AddressTriod:
    """The address triod ``steps`` steps after ``A``, in the stop case: the
    address map stops when the itinerary map does, after one step per vote."""
    cur: AddressTriod | None = A
    for _ in range(steps):
        if (cur := address_triod_step(cur)) is None:
            break
    if cur is None or address_triod_step(cur) is not None:
        raise InternalInvariantError(f"address triod {A} does not stop at step {steps}")
    return cur


def separating_addresses(
    P: Partition,
    A: AddressTriod,
    m_max: int | None = None,
) -> tuple[TriodShape, list[SeparatingAddress]]:
    """Addresses of the triod's middle point, assigned to its cyclic gaps.

    For a branched triod every gap must receive at least one address; for
    a linear triod the middle member itself realizes the middle point and
    at least one further address lies in the gap opposite the middle.
    A violation raises :class:`GapAssignmentFailureError` (it would mean
    an internal inconsistency, not bad input).
    """
    T = to_itinerary_triod(A)
    b = middle_point(T)
    shape = _shape(T, b)

    if isinstance(b, PreSingular):
        # Boundary pullbacks; take the sheet range from both the initial
        # and the stop-stage members so the gaps around each member are
        # covered.
        firsts = [x.entry(1) for x in A.members]
        firsts += [x.entry(1) for x in _stop_stage(A, len(b.prefix)).members]
        addrs = _pullback(P, b.prefix, map(P.base.prepend, _presingular_sheets(firsts)))
    else:
        addrs = list(addresses_of(P, b, m_max))

    # The members are a rotation of their sorted order, so the sorted
    # gap ``i`` is the triod's gap ``i + r`` (counted from 0), where
    # member ``r`` is the least.
    anchors = sorted(A.members)
    r = A.members.index(anchors[0])
    out: list[SeparatingAddress] = []
    for a in addrs:
        gap = _gap_of(anchors, a)
        if gap is None:
            out.append(SeparatingAddress(a, gap=None, member=A.members.index(a) + 1))
        else:
            out.append(SeparatingAddress(a, gap=(gap + r) % 3 + 1, member=None))

    got_gaps = {sa.gap for sa in out if sa.gap is not None}
    if shape.is_linear():
        j = shape.middle
        opposite = (j % 3) + 1
        if not any(sa.member == j for sa in out):
            raise GapAssignmentFailureError(
                f"linear triod {A}: middle member {j} does not realize {b}"
            )
        if opposite not in got_gaps:
            raise GapAssignmentFailureError(
                f"linear triod {A}: no address of {b} in the gap opposite member {j}"
            )
    else:
        if got_gaps != {1, 2, 3}:
            raise GapAssignmentFailureError(
                f"branched triod {A}: gaps {sorted(got_gaps)} covered, expected all three"
            )
    return shape, out
