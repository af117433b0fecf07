"""The dynamical partition of the shift space and itineraries.

A strictly preperiodic base address ``s`` splits the shift space into
sectors ``I_k``, the lexicographic intervals between consecutive
preimages ``m.s`` of ``s`` under the shift.  Recording the sector indices
visited by the shift orbit of an address yields its itinerary; entering
the partition boundary (hitting a preimage of ``s`` exactly) is recorded
with the star symbol, after which the tail is forced to be the kneading
sequence.

The sector of ``t`` is read from the order of its shift against ``s``,
so an itinerary compares every strict shift ``sigma^n t`` (``n >= 1``)
with ``s``.  Those shifts are periodic with period ``p = |per_t|`` after
at most ``max(|pre_t| - 1, 0)`` entries, so by Fine and Wilf (see
:func:`~exptree.sequences.compare_lex`) each comparison is decided on
``D = max(|pre_t| - 1, |pre_s|) + p + q - gcd(p, q)`` entries, with
``q = |per_s|``: the slice ``T[n : n + D]`` of one word ``T`` of ``t``'s
entries, against the first ``D`` entries of ``s``.  No shifted address is
built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

from .errors import InternalInvariantError, NormalizationWarning, PeriodicBaseError
from .sequences import ExtAddress, _compare, _decision_length, _frozen, _word, canonicalize

__all__ = [
    "STAR",
    "Itinerary",
    "Partition",
    "Plain",
    "PreSingular",
    "SectorResult",
    "Interior",
    "Boundary",
    "inverse_branch",
    "is_in_S_nu",
    "itinerary",
    "itinerary_entry",
    "kneading",
    "sector_of",
    "shift_itinerary",
    "validate_base",
]

STAR = "*"


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Plain:
    """An itinerary without the star symbol: an eventually periodic
    integer sequence, represented like an external address.  Built like
    :class:`~exptree.sequences.ExtAddress`, by its slot descriptor."""

    seq: ExtAddress

    def __init__(self, seq: ExtAddress) -> None:
        _set_seq(self, seq)

    def first_symbol(self):
        return self.seq.entry(1)

    def __str__(self) -> str:
        return str(self.seq)


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class PreSingular:
    """An itinerary of the form ``prefix . * . nu``.

    Only the integer prefix is stored; the star and the ambient kneading
    sequence tail are implied by context.  Built like
    :class:`~exptree.sequences.ExtAddress`, by its slot descriptor.
    """

    prefix: tuple[int, ...]

    def __init__(self, prefix: tuple[int, ...]) -> None:
        _set_prefix(self, prefix)

    def first_symbol(self):
        return self.prefix[0] if self.prefix else STAR

    def __str__(self) -> str:
        return ",".join([*map(str, self.prefix), STAR])


_set_seq = Plain.seq.__set__
_set_prefix = PreSingular.prefix.__set__

Itinerary = Union[Plain, PreSingular]


@_frozen
@dataclass(frozen=True, slots=True)
class Interior:
    """The queried address lies inside sector ``I_k``."""

    k: int


@_frozen
@dataclass(frozen=True, slots=True)
class Boundary:
    """The queried address equals ``m . base``, a point of the partition
    boundary (the shift preimages of the base address)."""

    m: int


SectorResult = Union[Interior, Boundary]


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Partition:
    """A validated base address together with its derived data.

    ``offset_j0`` is the integer with ``base`` inside
    ``I_0 = (j0.base, (j0+1).base)``; sector ``I_k`` is the interval
    ``((j0+k).base, (j0+k+1).base)``.  Built like
    :class:`~exptree.sequences.ExtAddress`, by its slot descriptors.
    """

    base: ExtAddress
    offset_j0: int
    kneading: Plain

    def __init__(self, base: ExtAddress, offset_j0: int, kneading: Plain) -> None:
        _set_base(self, base)
        _set_offset_j0(self, offset_j0)
        _set_kneading(self, kneading)

    def sector_bounds(self, k: int) -> tuple[ExtAddress, ExtAddress]:
        """The endpoints ``(j0+k).base`` and ``(j0+k+1).base`` of ``I_k``."""
        return (
            self.base.prepend(self.offset_j0 + k),
            self.base.prepend(self.offset_j0 + k + 1),
        )

    def __str__(self) -> str:
        return f"Partition(base={self.base}, j0={self.offset_j0}, nu={self.kneading})"


_set_base = Partition.base.__set__
_set_offset_j0 = Partition.offset_j0.__set__
_set_kneading = Partition.kneading.__set__


def _shift_words(
    t: ExtAddress, s: ExtAddress
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(T, S, D)`` such that the strict shift ``sigma^n t`` for
    ``1 <= n <= |pre_t| + |per_t|`` is below, equal to or above ``s`` as
    the slice ``T[n : n + D]`` is to ``S``; ``D`` is the decision length
    of the module docstring."""
    p, q = len(t.period), len(s.period)
    d = _decision_length(max(len(t.preperiod) - 1, len(s.preperiod)), p, q)
    return _word(t, len(t.preperiod) + p + d), _word(s, d), d


def validate_base(s: ExtAddress) -> Partition:
    """Build the dynamical partition for a strictly preperiodic ``s``.

    Raises :class:`PeriodicBaseError` if ``s`` is purely periodic.  A
    leading entry other than 0 is accepted with a
    :class:`NormalizationWarning`: the partition itself is well defined,
    only the usual normalization of base addresses starts at 0.
    """
    if not s.preperiod:
        raise PeriodicBaseError(f"base address {s} is purely periodic")
    if s.preperiod[0] != 0:
        warnings.warn(
            f"base address {s} does not start with 0",
            NormalizationWarning,
            stacklevel=2,
        )
    # The kneading walk's first comparison, sigma s against s, decides
    # j0 = s_1 - [sigma s < s]; the two differ, as s is not periodic.
    T, S, d = words = _shift_words(s, s)
    j0 = T[0] - (T[1 : 1 + d] < S)
    nu = _itinerary_against(words, j0, s)
    if not isinstance(nu, Plain):
        raise InternalInvariantError(
            f"kneading of the preperiodic base {s} hit the partition boundary"
        )
    return Partition(base=s, offset_j0=j0, kneading=nu)


def sector_of(P: Partition, t: ExtAddress) -> SectorResult:
    """Locate ``t`` in the partition: sector index or boundary sheet."""
    cmp = _compare(t.shift(), P.base)
    if cmp == 0:
        return Boundary(t.entry(1))
    return Interior(t.entry(1) - (cmp < 0) - P.offset_j0)


def _itinerary_against(
    words: tuple[tuple[int, ...], tuple[int, ...], int], j0: int, t: ExtAddress
) -> Itinerary:
    """The itinerary of ``t``, given its :func:`_shift_words` against the
    base and the base's ``j0``."""
    T, S, d = words
    out: list[int] = []
    for r in range(len(t.preperiod) + len(t.period)):
        w = T[r + 1 : r + 1 + d]
        if w < S:
            out.append(T[r] - 1 - j0)
        elif w == S:
            return PreSingular(tuple(out))
        else:
            out.append(T[r] - j0)
    # The entry stream factors through the shift orbit of t, so its
    # preperiod/period divide t's; boundary hits can only occur within
    # the preperiod of t (a boundary address is strictly preperiodic).
    return Plain(canonicalize(out[: len(t.preperiod)], out[len(t.preperiod) :]))


def itinerary(P: Partition, t: ExtAddress) -> Itinerary:
    """The itinerary of ``t`` with respect to the partition base.

    Entry ``k`` is the sector index of the ``(k-1)``-fold shift of ``t``;
    a boundary hit at step ``k`` yields a :class:`PreSingular` value with
    the ``k-1`` entries collected so far.  The shift ``sigma^k t`` and the
    base are compared on their first ``D`` entries (see the module
    docstring): equal words are a boundary hit, and otherwise the entry is
    ``t_k - j0``, less one when the shift lies below the base.
    """
    return _itinerary_against(_shift_words(t, P.base), P.offset_j0, t)


def kneading(P: Partition) -> Plain:
    """The kneading sequence: the itinerary of the base w.r.t. itself."""
    return P.kneading


def inverse_branch(P: Partition, k: int, u: ExtAddress) -> ExtAddress:
    """The unique shift preimage of ``u`` in the half-open sector ``I_k^-``.

    ``I_k^-`` includes its upper endpoint, so ``u <= base`` maps to the
    preimage with first entry ``j0 + k + 1``.
    """
    if _compare(u, P.base) > 0:
        return u.prepend(P.offset_j0 + k)
    return u.prepend(P.offset_j0 + k + 1)


def shift_itinerary(P: Partition, t: Itinerary) -> Itinerary:
    """Shift an itinerary; the star tail of ``*nu`` shifts to ``nu``."""
    if isinstance(t, Plain):
        return Plain(t.seq.shift())
    if t.prefix:
        return PreSingular(t.prefix[1:])
    return P.kneading


def itinerary_entry(P: Partition, t: Itinerary, i: int):
    """Entry ``i >= 1`` of an itinerary; integers or :data:`STAR`."""
    if isinstance(t, Plain):
        return t.seq.entry(i)
    r = len(t.prefix)
    if i <= r:
        return t.prefix[i - 1]
    if i == r + 1:
        return STAR
    return P.kneading.seq.entry(i - r - 1)


def is_in_S_nu(P: Partition, t: Itinerary) -> bool:
    """Membership in the space of formal (pre-)periodic points.

    Pre-singular itineraries always belong; a plain itinerary belongs iff
    no strict forward shift (n >= 1) equals the kneading sequence.  The
    itinerary itself may equal the kneading sequence.
    """
    if isinstance(t, PreSingular):
        return True
    T, N, d = _shift_words(t.seq, P.kneading.seq)
    steps = len(t.seq.preperiod) + len(t.seq.period)
    return all(T[n : n + d] != N for n in range(1, steps + 1))
