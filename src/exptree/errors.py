"""Exception hierarchy for the exptree library.

The CLI prints ``error_name(exc)`` for domain errors, so class names are
part of the user-facing contract.
"""


class ExptreeError(Exception):
    """Base class for all library errors."""


class EmptyPeriodError(ExptreeError):
    """An external address was given an empty period word."""


class NotDistinctError(ExptreeError):
    """A cyclic-order query or triod received non-distinct arguments."""


class NotFormalError(ExptreeError, ValueError):
    """A triod member lies outside the formal points ``S_nu``."""


class PeriodicBaseError(ExptreeError):
    """The partition base address is purely periodic."""


class IsStopCaseError(ExptreeError):
    """Majority vote requested for a triod in the stop case."""


class RealizationBoundExceededError(ExptreeError):
    """No realizing address found for multipliers up to the search cap.

    Only an explicit ``m_max`` below the bound that the base gives can
    cause it; under the default bound it signals a defect in the library.
    """


class EmptyRangeError(ExptreeError):
    """A pre-singular realization was requested with an empty index range."""


class GapAssignmentFailureError(ExptreeError):
    """Separating addresses could not be placed one per gap.

    This signals an internal inconsistency: the separation count is a
    theorem for correctly constructed inputs.
    """


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
    """Neither the iterative nor the exact spectral-radius method stabilized."""


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
