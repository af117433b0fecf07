"""Exception hierarchy for the exptree library.

The CLI prints ``error_name(exc)`` for domain errors, so class names are
part of the user-facing contract.  ``__all__`` leaves out
:class:`InternalInvariantError`, which only signals a library defect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .partition import Itinerary
    from .sequences import ExtAddress

__all__ = [
    "ClosureViolationError",
    "ConvergenceFailureError",
    "EmptyPeriodError",
    "EmptyRangeError",
    "ExptreeError",
    "GapAssignmentFailureError",
    "IsStopCaseError",
    "NormalizationWarning",
    "NotATreeError",
    "NotCyclicallyOrderedError",
    "NotDistinctError",
    "NotExpansiveError",
    "NotFormalError",
    "ParseError",
    "PeriodicBaseError",
    "RealizationBoundExceededError",
]


class ExptreeError(Exception):
    """Base class for all library errors."""


class EmptyPeriodError(ExptreeError):
    """An external address was given an empty period word."""


class NotDistinctError(ExptreeError):
    """A cyclic-order query or triod received non-distinct arguments."""


class NotCyclicallyOrderedError(NotDistinctError):
    """Distinct address triod members not listed in positive cyclic order."""


class NotFormalError(ExptreeError, ValueError):
    """A triod member lies outside the formal points ``S_nu``."""


class PeriodicBaseError(ExptreeError):
    """The partition base address is purely periodic."""


class IsStopCaseError(ExptreeError):
    """Majority vote requested for a triod in the stop case."""


class RealizationBoundExceededError(ExptreeError):
    """A realizing address needs a multiplier above the search cap; only
    an explicit ``m_max`` can cause it.

    ``base`` is the partition's base address, ``word`` the itinerary's
    period word, ``m_max`` the cap and ``multiplier`` what the address
    needs.
    """

    def __init__(
        self, base: ExtAddress, word: tuple[int, ...], m_max: int, multiplier: int
    ):
        super().__init__(
            f"no realizing address of the rotations of ({','.join(map(str, word))}) "
            f"over the base {base} found for m <= {m_max}; "
            f"a cycle needs m = {multiplier}"
        )
        self.base, self.word = base, tuple(word)
        self.m_max, self.multiplier = m_max, multiplier


class EmptyRangeError(ExptreeError):
    """A pre-singular realization was requested with an empty index range."""


class GapAssignmentFailureError(ExptreeError):
    """Separating addresses could not be placed one per gap.

    This signals an internal inconsistency: the separation count is a
    theorem for correctly constructed inputs.

    The tree build's gap stage says where it failed: ``vertex`` is the
    itinerary of the vertex whose branches it orders, ``branch`` the id of
    the neighbor through which the failing branch runs and ``address`` the
    failing address in address notation, each ``None`` where it does not
    apply or another caller raised the error.
    """

    def __init__(
        self,
        message: str,
        *,
        vertex: Itinerary | None = None,
        branch: int | None = None,
        address: str | None = None,
    ):
        super().__init__(message)
        self.vertex, self.branch, self.address = vertex, branch, address


class ClosureViolationError(ExptreeError):
    """The computed vertex set is not closed under shift or triods."""


class NotATreeError(ExptreeError):
    """The betweenness relation did not produce a tree."""


class NotExpansiveError(ExptreeError):
    """Two marked points of a supplied tree share an itinerary."""


class InternalInvariantError(ExptreeError):
    """A guard on the library's own bookkeeping failed.

    Raised where a theorem or an earlier check rules the case out, so it
    always signals a defect in the library, never bad input.
    """


class ConvergenceFailureError(ExptreeError):
    """Power iteration hit its step cap (``max_iter``) before its bracket closed."""


class ParseError(ExptreeError):
    """Input text does not match the address/itinerary grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NormalizationWarning(UserWarning):
    """Base address accepted although its leading entry is not 0."""


def error_name(exc: Exception) -> str:
    """Short name of a library error, as printed by the CLI."""
    name = type(exc).__name__
    if name == "ParseError":
        return name
    return name.removesuffix("Error")
