"""Enumerate the external addresses realizing a given itinerary.

Every formal (pre-)periodic itinerary is realized by finitely many
external addresses, all sharing one preperiod length and one period
length (a multiple ``m * n`` of the itinerary's period ``n``).  Those
of a periodic itinerary are the cycles of a finite automaton
(:class:`_Positions`): the positions of an address among the shifts of
the base ``s``, moved by the composed inverse branch of its period word
(:func:`_periodic_search`).  A cycle has at most ``2(|pre_s| + |per_s|) +
1`` positions, which bounds ``m``.  This is the pull-back machinery of
Bruin and Schleicher's *Symbolic Dynamics of Quadratic Polynomials*,
carried over to exponential addresses.

Every other family is a pullback (:func:`_pullback`): the shift maps
each sector ``I_k`` one-to-one, so the realizations of ``k.t`` are the
images under the inverse branch ``L_k`` of those of ``t`` other than the
base.  Preperiodic itineraries are pulled back from their periodic part,
pre-singular ones from the boundary sheets ``m.s``.  The public functions
keep nothing between calls and compare addresses to pull them back.  The
tree build instead keeps one automaton, on which a pullback is a table
lookup on positions (:meth:`_Positions.pull`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
)
from .sequences import ExtAddress, _frozen, _gap_of, _primitive_root, _word, canonicalize
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


@_frozen
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
    multiplier above ``m_max``; ``None`` means no cap (see
    :func:`_periodic_search`).
    """
    if not isinstance(p, Plain) or p.seq.preperiod:
        raise ValueError(f"itinerary {p} is not purely periodic")
    return AddressSet(_sorted(_periodic_search(P, p.seq.period, m_max)), p)


def _sorted(family: Iterable[ExtAddress]) -> tuple[ExtAddress, ...]:
    """A family realizing one itinerary in lexicographic order, sorted by
    the heads ``pre + per``.

    The addresses share one preperiod length ``r`` and one period length
    ``p`` (:class:`AddressSet` checks it).  Two of them are decided on
    their first ``r + p + p - gcd(p, p) = r + p`` entries (see
    :func:`~exptree.sequences.compare_lex`), which are exactly their
    heads; so heads, all of that one length, order as the addresses do.
    """
    return tuple(sorted(family, key=lambda a: a.preperiod + a.period))


class _Realization(NamedTuple):
    """A realizing address as the tree build carries it: a preperiod and
    a period word, not reduced to canonical form, and the address's
    position in the automaton of :class:`_Positions`."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    position: int


class _Positions:
    """The position automaton of a partition's base ``s`` (see
    :func:`_periodic_search`): the sorted shifts of ``s``, their keys
    ``(W[i], pos o_{i+1})``, and per letter ``k`` the table of ``L_k`` on
    positions, ``q -> (e, q')``, filled as it is read.  One automaton
    serves every periodic search and pullback of a tree build.  The
    tables fill lazily because builds read only part of them: 38% of the
    entries on the benchmark's ``long`` bases, 55% on ``corpus``."""

    def __init__(self, P: Partition):
        s = P.base
        pre, L = len(s.preperiod), len(s.preperiod) + len(s.period)
        W = _word(s, 2 * L)
        pos = [0] * L
        for r, i in enumerate(sorted(range(L), key=lambda i: W[i : i + L])):
            pos[i] = 2 * r + 1
        self.P, self.size, self.base_position = P, 2 * L + 1, pos[0]
        self._keys = sorted(
            (W[i], pos[i + 1] if i + 1 < L else pos[pre]) for i in range(L)
        )
        per = s.period
        self._base_periods = {per[r:] + per[:r] for r in range(len(per))}
        self._tables: dict[int, list] = {}

    def place(self, e: int, q: int) -> int:
        """The position of ``e.u`` for an address ``u`` at position ``q``."""
        keys = self._keys
        j = bisect_left(keys, (e, q))
        return 2 * j + 1 if j < len(keys) and keys[j] == (e, q) else 2 * j

    def row(self, k: int) -> list:
        """The table of ``L_k``, by position: an entry is ``None`` until
        :meth:`step` fills it."""
        row = self._tables.get(k)
        if row is None:
            row = self._tables[k] = [None] * self.size
        return row

    def step(self, k: int, q: int) -> tuple[int, int]:
        """``(e, q')``: at position ``q``, ``L_k`` prepends ``e``, and the
        image lies at position ``q'``."""
        row = self.row(k)
        if row[q] is None:
            e = self.P.offset_j0 + k + (q <= self.base_position)
            row[q] = (e, self.place(e, q))
        return row[q]

    def cycles(
        self, word: tuple[int, ...], m_max: int | None
    ) -> list[_Realization]:
        """Every periodic address with itinerary period ``word``, each once,
        at its own position: the points that the kept cycles of ``g`` spell
        (see :func:`_periodic_search`)."""
        N, n = self.size, len(word)
        g = list(range(N))
        for k in reversed(word):
            row = self.row(k)
            g = [(row[q] or self.step(k, q))[1] for q in g]

        out, walked = [], [-1] * N
        for start in range(N):
            q = start
            while walked[q] < 0:
                walked[q], q = start, g[q]
            if walked[q] != start:
                continue
            # Walk the cycle pi_0 = q, pi_1, ... once more for the letters
            # G prepends, innermost first: reversed, they spell
            # V = W_{pi_{m-1}} ... W_{pi_0}.
            cycle, letters, c = [], [], q
            while not cycle or c != q:
                cycle.append(c)
                for k in reversed(word):
                    e, c = self.step(k, c)
                    letters.append(e)
            V = tuple(reversed(letters))
            if q % 2 == 0 and _primitive_root(V) in self._base_periods:
                continue
            m = len(cycle)
            if m_max is not None and m > m_max:
                raise RealizationBoundExceededError(self.P.base, word, m_max, m)
            # G^j x = W_{pi_{j-1}} ... W_{pi_0}.x turns V right by j n entries.
            out += [
                _Realization((), V[len(V) - j * n :] + V[: len(V) - j * n], c)
                for j, c in enumerate(cycle)
            ]
        return out

    def sheets(self, ms: Iterable[int]) -> list[_Realization]:
        """The boundary sheets ``m.s``, each located once."""
        s, q = self.P.base, self.base_position
        return [_Realization((m,) + s.preperiod, s.period, self.place(m, q)) for m in ms]

    def pull(self, k: int, family: Iterable[_Realization]) -> list[_Realization]:
        """:func:`_pullback` by one letter ``k``, as table lookups: the base,
        the one address at its position, is dropped."""
        row, out = self.row(k), []
        for a in family:
            if a.position != self.base_position:
                e, q = row[a.position] or self.step(k, a.position)
                out.append(_Realization((e,) + a.preperiod, a.period, q))
        return out


def _periodic_search(
    P: Partition, word: tuple[int, ...], m_max: int | None = None
) -> tuple[ExtAddress, ...]:
    """The periodic addresses whose itinerary has period ``word``: the
    periodic points of ``G = L_{p_1} o ... o L_{p_n}`` (``L_k`` is
    :func:`inverse_branch`, which inverts the shift on ``I_k``; a periodic
    point of ``G`` is no sector bound ``(j0+k+1).s``).

    Positions.  The ``L = |pre_s| + |per_s|`` shifts ``o_i = sigma^i s``
    of the base form ``O``.  They differ within ``L`` entries (see
    :func:`~exptree.sequences.compare_lex`), so the slices ``W[i : i + L]``
    of ``s``'s first ``2L`` entries order them.  An address is a point of
    ``O`` or lies in one of the ``L + 1`` (nonempty) arcs around them:
    ``N = 2L + 1`` positions, numbered upward, the points odd.

    Every transition is well defined.  ``L_k(u) = e.u`` with ``e =
    j0+k+1`` if ``u <= s`` and ``j0+k`` otherwise, fixed by ``u``'s
    position.  ``e.u`` compares with ``o_i = W[i].o_{i+1}`` (``o_L`` is
    ``o_{|pre_s|}``) as ``(e, u)`` with ``(W[i], o_{i+1})``, and ``u`` with
    ``o_{i+1}`` as their positions do, so one bisection of ``(e, pos u)``
    among the sorted keys ``(W[i], pos o_{i+1})`` places ``e.u``.  It
    meets a key only if ``u`` is a point, so arcs go to arcs and points
    to points.  The tables composed over ``word`` give a map ``g`` on
    positions and the word ``W_q`` that ``G`` prepends at ``q``.

    Every realizing address lies on a cycle, whose length is its
    multiplier.  A realizing ``x`` of ``G``-period ``m`` visits ``pi_0,
    pi_1 = g(pi_0), ...``, so ``G^j x = W_{pi_{j-1}} ... W_{pi_0}.x``.  If
    the positions first close after ``j`` steps, ``x = G^{jm} x`` is that
    word prepended ``m`` times to ``x``, so ``x = (W_{pi_{j-1}} ...
    W_{pi_0})^infinity = G^j x``: ``j = m``, ``x`` is what its cycle spells
    from ``pi_0``, and its period is ``m n``, as ``G`` is injective.

    Conversely, the address ``x = V^infinity``, ``V = W_{pi_{m-1}} ...
    W_{pi_0}``, that a cycle of length ``m`` spells from ``pi_0`` is a
    periodic point of ``G`` if it has position ``pi_0``.  A point ``pi_0``
    is one address, fixed by ``G^m``, so it is ``x``.  On an arc ``pi_0 =
    (a, b)`` the iterates ``G^{jm} u`` of any ``u`` stay in it and
    converge to ``x``, so ``x`` lies in the closed ``[a, b]``, at ``pi_0``
    unless it is ``a`` or ``b``, a point of ``O``.

    Such an arc cycle is dropped, which lists each address once, at its
    own position, and changes neither the set nor the multipliers.  Its
    limit ``x`` realizes ``word``: for ``u`` at ``pi_0`` and ``t < r m n``
    the shift ``sigma^t G^{rm} u`` lies inside the sector of letter ``t mod
    n`` of ``word`` (no step meets ``s``, the one address ``L_k`` sends to
    a sector bound, as arcs go to arcs) and agrees with ``sigma^t x`` on
    ``r m n - t`` entries, so ``sigma^t x`` lies in the closed sector, and
    not on its bounds, which are strictly preperiodic.  So ``x`` lies on
    its own cycle, through its point position, of length its multiplier
    ``j``; and ``j n``, the period of ``x = V^infinity``, divides ``|V| =
    m n``, so ``j <= m``.  A periodic point of ``O`` is one whose period is
    a rotation of ``per_s``.

    No cycle is longer than ``N``, so ``m_max=None`` means no cap; an
    explicit ``m_max`` raises :class:`RealizationBoundExceededError` when a
    kept cycle is longer.  This is one use of :class:`_Positions`.
    """
    return tuple(ExtAddress((), a.period) for a in _Positions(P).cycles(word, m_max))


def _pullback(
    P: Partition, letters: Sequence[int], family: Iterable[ExtAddress]
) -> list[ExtAddress]:
    """The realizations of ``letters.t``, given those of ``t``: ``L_k``
    for each letter ``k``, the last first, applied to every address but
    the base ``s``.  ``L_k(a)`` lies strictly inside ``I_k``, with itinerary
    ``k.itin(a)``, unless ``a == s``, which it sends to the bound
    ``(j0+k+1).s``, a pre-singular point.  So the filter keeps exactly the
    pullbacks with itinerary ``letters.t``, and as the shift inverts ``L_k``
    on ``I_k`` there are no others.

    This path stays beside :meth:`_Positions.pull`, which the tree build
    uses, for two reasons: the tests check the automaton's families
    against :func:`addresses_of`, which takes this path, and a one-shot
    query is cheaper without an automaton.  Most queries are pre-singular
    with a prefix of a letter or none, so building the automaton costs
    more than its lookups save."""
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
    return AddressSet(_sorted(_pullback(P, letters, family)), t)


@_frozen
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

    A middle point ``w.nu`` (``|w| >= 1``) is a preimage of the singular
    value.  The singular value is an asymptotic value without preimages,
    and the preimage of a ray landing there is a curve to infinity; so
    after ``|w| - 1`` steps the arcs of the triod meet at the singular
    point ``*nu``, and its middle is the pre-singular point ``w[:-1].*nu``.
    The address map does not stop at that stage, so the sheet range is
    read from the members and from the triod there.  Every ray landing at
    the singular value has such preimages: the sheets pulled back are
    ``m.a`` for every address ``a`` of ``nu``, not only for ``a = s``.
    :func:`~exptree.triods.middle_point` and
    :func:`~exptree.triods.classify` still report ``w.nu``, so on these
    triods ``exptree triod`` and ``exptree separate`` differ.
    """
    T = to_itinerary_triod(A)
    b = middle_point(T)
    if isinstance(b, PreSingular):
        stage = _stop_stage(A, len(b.prefix))
    else:
        nu = P.kneading.seq
        j = len(b.seq.preperiod) - len(nu.preperiod)
        if j >= 1 and b.seq.period == nu.period and b.seq.preperiod[j:] == nu.preperiod:
            b, stage = PreSingular(b.seq.preperiod[: j - 1]), A
            for _ in range(j - 1):
                # the itinerary map does not stop, so neither does this one
                stage = address_triod_step(stage)
    shape = _shape(T, b)

    if isinstance(b, PreSingular):
        # Boundary pullbacks; take the sheet range from both the initial
        # and the last-stage members so the gaps around each member are
        # covered.
        sheets = _presingular_sheets(x.entry(1) for x in A.members + stage.members)
        rays = addresses_of(P, P.kneading)
        addrs = _pullback(P, b.prefix, [a.prepend(m) for a in rays for m in sheets])
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
