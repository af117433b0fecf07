"""Enumerate the external addresses realizing a given itinerary.

Every formal (pre-)periodic itinerary is realized by finitely many
external addresses, all sharing one preperiod length and one period
length (a multiple ``m * n`` of the itinerary's period ``n``).  Those
of a periodic itinerary are the cycles of a finite automaton
(:class:`_Positions`): the positions of an address among the shifts of
the base ``s``, moved by the composed inverse branch of its period word
(:meth:`_Positions.cycles`).  A cycle has at most ``2(|pre_s| + |per_s|) +
1`` positions, which bounds ``m``.  This is the pull-back machinery of
Bruin and Schleicher's *Symbolic Dynamics of Quadratic Polynomials*,
carried over to exponential addresses.

Every other family is a pullback (:func:`_pullback`): the shift maps
each sector ``I_k`` one-to-one, so the realizations of ``k.t`` are the
images under the inverse branch ``L_k`` of those of ``t`` other than the
base.  Preperiodic itineraries are pulled back from their periodic part,
pre-singular ones from the boundary sheets ``m.s``.  The public functions
keep nothing between calls and compare addresses to pull them back.  The
tree build makes one call, :func:`_vertex_words`; this module alone holds
its automaton, where a pullback is a lookup (:meth:`_Positions.pull`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Iterable, Sequence

from .errors import (
    EmptyRangeError,
    GapAssignmentFailureError,
    InternalInvariantError,
    RealizationBoundExceededError,
)
from .partition import (
    Itinerary,
    Partition,
    Plain,
    PreSingular,
    inverse_branch,
)
from .sequences import (
    ExtAddress, _frozen, _gap_of, _primitive_root, _word, _words, canonicalize
)
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


def _check_m_max(m_max: int | None) -> None:
    """``ValueError`` unless ``m_max`` is ``None`` or an integer of at least 1."""
    if m_max is not None and (type(m_max) is bool or not isinstance(m_max, Integral) or m_max < 1):
        raise ValueError(f"m_max must be None or a positive integer, got {m_max!r}")


def addresses_of_periodic(
    P: Partition, p: Plain, m_max: int | None = None
) -> AddressSet:
    """All periodic external addresses with itinerary ``p``: its
    :func:`addresses_of`, one search on ``p``'s own period word and one
    :class:`AddressSet`.  Raises :class:`RealizationBoundExceededError`
    when the search needs a multiplier above ``m_max``; ``None`` means no
    cap (see :meth:`_Positions.cycles`).
    """
    if not isinstance(p, Plain) or p.seq.preperiod:
        raise ValueError(f"itinerary {p} is not purely periodic")
    return addresses_of(P, p, m_max)


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


# A realizing address as the tree build carries it: ``(preperiod, period,
# position)``, a preperiod and a period word, not reduced to canonical
# form, and the address's position in the automaton of :class:`_Positions`.
# A plain tuple, as the build makes one per address and a named tuple
# costs a Python call to make.
_Realization = tuple[tuple[int, ...], tuple[int, ...], int]


class _Positions:
    """The position automaton of a partition's base ``s`` (see
    :meth:`cycles`): the sorted shifts of ``s``, their keys
    ``(W[i], pos o_{i+1})``, and per letter ``k`` the table of ``L_k`` on
    positions, ``q -> (e, q')``, filled as it is read.  One automaton
    serves every periodic search and pullback of a tree build.  The
    tables fill lazily because builds read only part of them: 38% of the
    entries on the benchmark's ``long`` bases, 55% on ``corpus``."""

    def __init__(self, P: Partition):
        s = P.base
        pre, L = len(s.preperiod), len(s.preperiod) + len(s.period)
        W = _word(s.preperiod, s.period, 2 * L)
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
        """Every periodic address with itinerary period ``word``, each once, at
        its own position: the periodic points of ``G = L_{p_1} o ... o
        L_{p_n}`` (``L_k`` is :func:`inverse_branch`, which inverts the shift
        on ``I_k``; a periodic point of ``G`` is no sector bound
        ``(j0+k+1).s``), spelled by the kept cycles of ``g``.

        Positions.  The ``L = |pre_s| + |per_s|`` shifts ``o_i = sigma^i s`` of
        the base form ``O``.  They differ within ``L`` entries (see
        :func:`~exptree.sequences.compare_lex`), so the slices ``W[i : i + L]``
        of ``s``'s first ``2L`` entries order them.  An address is a point of
        ``O`` or lies in one of the ``L + 1`` (nonempty) arcs around them:
        ``N = 2L + 1`` positions, numbered upward, the points odd.

        Every transition is well defined.  ``L_k(u) = e.u`` with ``e = j0+k+1``
        if ``u <= s`` and ``j0+k`` otherwise, fixed by ``u``'s position.
        ``e.u`` compares with ``o_i = W[i].o_{i+1}`` (``o_L`` is
        ``o_{|pre_s|}``) as ``(e, u)`` with ``(W[i], o_{i+1})``, and ``u`` with
        ``o_{i+1}`` as their positions do, so one bisection of ``(e, pos u)``
        among the sorted keys ``(W[i], pos o_{i+1})`` places ``e.u``.  It meets
        a key only if ``u`` is a point, so arcs go to arcs and points to
        points.  The tables composed over ``word`` give a map ``g`` on
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
        (a, b)`` the iterates ``G^{jm} u`` of any ``u`` stay in it and converge
        to ``x``, so ``x`` lies in the closed ``[a, b]``, at ``pi_0`` unless it
        is ``a`` or ``b``, a point of ``O``.

        Such an arc cycle is dropped, which lists each address once, at its own
        position, and changes neither the set nor the multipliers.  Its limit
        ``x`` realizes ``word``: for ``u`` at ``pi_0`` and ``t < r m n`` the
        shift ``sigma^t G^{rm} u`` lies inside the sector of letter ``t mod n``
        of ``word`` (no step meets ``s``, the one address ``L_k`` sends to a
        sector bound, as arcs go to arcs) and agrees with ``sigma^t x`` on
        ``r m n - t`` entries, so ``sigma^t x`` lies in the closed sector, and not
        on its bounds, which are strictly preperiodic.  So ``x`` lies on its
        own cycle, through its point position, of length its multiplier ``j``;
        and ``j n``, the period of ``x = V^infinity``, divides ``|V| = m n``,
        so ``j <= m``.  A periodic point of ``O`` is one whose period is a
        rotation of ``per_s``.

        No cycle is longer than ``N``, so ``m_max=None`` means no cap; an
        explicit ``m_max`` raises :class:`RealizationBoundExceededError` when a
        kept cycle is longer.
        """
        N, n = self.size, len(word)
        rows = [self.row(k) for k in reversed(word)]  # innermost letter first
        g = list(range(N))
        for k, row in zip(reversed(word), rows):
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
            # V = W_{pi_{m-1}} ... W_{pi_0}.  The composition above filled
            # every row entry on the way: row j at the images of g's first j
            # letters, which hold every position the walk reaches.
            cycle, letters, c = [], [], q
            while not cycle or c != q:
                cycle.append(c)
                for row in rows:
                    e, c = row[c]
                    letters.append(e)
            V = tuple(reversed(letters))
            if q % 2 == 0 and _primitive_root(V) in self._base_periods:
                continue
            m = len(cycle)
            if m_max is not None and m > m_max:
                raise RealizationBoundExceededError(self.P.base, word, m_max, m)
            # G^j x = W_{pi_{j-1}} ... W_{pi_0}.x turns V right by j n entries.
            out += [
                ((), V[len(V) - j * n :] + V[: len(V) - j * n], c)
                for j, c in enumerate(cycle)
            ]
        return out

    def pull(self, k: int, family: Iterable[_Realization]) -> list[_Realization]:
        """:func:`_pullback` by one letter ``k``, as table lookups: the base,
        the one address at its position, is dropped."""
        row, base, out = self.row(k), self.base_position, []
        for pre, per, q in family:
            if q != base:
                e, p = row[q] or self.step(k, q)
                out.append(((e,) + pre, per, p))
        return out


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


def _vertex_sheets(P: Partition, sectors: Sequence[tuple[int, Any]]) -> range:
    """Sheets for the boundary pullbacks of a tree's pre-singular vertices,
    from its sorted sectors (``tree.sectors``): the vertices of sector ``k``
    lie between the sheets ``j0 + k`` and ``j0 + k + 1``, and the range runs
    from the least of these sheets to the greatest.

    No sheet beyond either end changes the tree.  At a branch vertex
    ``w*nu`` the pullbacks of ``m.s`` and ``(m+1).s`` along ``w`` bound the
    addresses whose ``|w|``-fold shift lies in ``I_{m-j0}``, and those
    shifts of branch addresses lie in sectors of vertices or on the
    sheets, so no branch address falls in a gap an outer sheet adds."""
    return range(P.offset_j0 + sectors[0][0], P.offset_j0 + sectors[-1][0] + 2)


def _vertex_words(
    P: Partition,
    its: Sequence[Itinerary],
    dynamics: Sequence[int],
    sectors: Sequence[tuple[int, Any]],
    star: int,
    m_max: int | None,
) -> tuple[list[tuple[tuple[int, ...], ...]], Callable[[tuple[int, ...]], str]]:
    """Every vertex's realizing addresses, as their sorted words
    (:func:`~exptree.sequences._words`), and a function that names the
    address of a word, for error messages.  ``dynamics`` holds the ids of
    the vertices' shifts, ``sectors`` the build's sectors and ``star`` the
    id of ``*nu``.

    All are realized on one :class:`_Positions`: the least rotation of
    each periodic cycle takes the automaton's cycles for its period word,
    ``*nu`` the sheets ``m.s`` of :func:`_vertex_sheets`, each located
    once, and every other vertex its image's family pulled back by its
    first symbol, walking the dynamics to a cycle or to ``*nu``; an
    address at the base's position is the base, and is dropped."""
    automaton = _Positions(P)
    s, q = P.base, automaton.base_position
    fams: list[list[_Realization] | None] = [None] * len(its)
    fams[star] = [
        ((m,) + s.preperiod, s.period, automaton.place(m, q))
        for m in _vertex_sheets(P, sectors)
    ]
    # Periodic vertices first: a walk then closes each cycle at its least
    # rotation.  The walks from them fill their families, so the pass over
    # all vertices after them starts walks from the others only.
    periodic = [v for v, it in enumerate(its) if isinstance(it, Plain) and not it.seq.preperiod]
    for v in periodic + list(range(len(its))):
        chain = []
        while fams[v] is None and v not in chain:
            chain.append(v)
            v = dynamics[v]
        if fams[v] is None:
            fams[v] = automaton.cycles(its[v].seq.period, m_max)
        for w in reversed(chain):
            if fams[w] is None:
                fams[w] = automaton.pull(its[w].first_symbol(), fams[dynamics[w]])

    heads = [(pre, per) for f in fams for pre, per, _ in f]
    words = _words(heads)

    def name(word: tuple[int, ...]) -> str:
        return str(canonicalize(*heads[words.index(word)]))

    out, i = [], 0
    for f in fams:
        j = i + len(f)
        out.append(tuple(sorted(words[i:j])))
        i = j
    return out, name


def addresses_of(
    P: Partition,
    t: Itinerary,
    m_max: int | None = None,
    m_range: Iterable[int] | None = None,
) -> AddressSet:
    """External addresses realizing the itinerary ``t``, by one
    :func:`_pullback` into one :class:`AddressSet`.

    A plain ``t`` pulls the cycles of its period word back through its
    preperiod, empty if ``t`` is periodic.  A pre-singular ``t`` has one
    realization per sheet ``m.s`` of the partition boundary, so the caller
    supplies a finite ``m_range``; the base is not periodic, so no pullback
    of a sheet is the base and none is dropped.  ``m_max`` is ``None`` or
    a positive integer (else ``ValueError``).
    """
    _check_m_max(m_max)
    if isinstance(t, PreSingular):
        family, letters = [P.base.prepend(m) for m in m_range or ()], t.prefix
        if not family:
            raise EmptyRangeError("pre-singular realization requires a nonempty m range")
    else:
        found = _Positions(P).cycles(t.seq.period, m_max)
        family, letters = [ExtAddress((), per) for _, per, _ in found], t.seq.preperiod
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
    triods ``exptree triod`` and ``exptree separate`` differ.  ``m_max`` is
    as for :func:`addresses_of`.
    """
    _check_m_max(m_max)
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
        # Boundary pullbacks, on sheets one past the first entries of the
        # initial and the last-stage members at each end, so the gaps around
        # each member are covered; too narrow a range fails the gap check.
        firsts = [x.entry(1) for x in A.members + stage.members]
        sheets = range(min(firsts) - 1, max(firsts) + 2)
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
