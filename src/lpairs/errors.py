"""Exception hierarchy for the workbench.

Three families, matching how the CLI maps failures to exit codes:
precondition violations (bad arguments / configuration), data errors
(unusable input files), and numerics errors (a computed quantity broke
its certified contract).
"""


class WorkbenchError(Exception):
    """Base class for all workbench-specific errors."""


class PreconditionError(WorkbenchError, ValueError):
    """An argument violates a documented precondition."""


class DataError(WorkbenchError):
    """An input file is malformed or fails its validity checks."""


class NumericsError(WorkbenchError):
    """A numerical contract (certified bound, cross-check) was violated."""


# --- precondition violations ---------------------------------------------

class NonPrimeModulus(PreconditionError):
    pass


class IndexOutOfRange(PreconditionError):
    pass


class PoleAtNonPositiveInteger(PreconditionError):
    pass


class PoleAtOne(PreconditionError):
    pass


class DomainTooSmall(PreconditionError):
    pass


class OutOfStrip(PreconditionError):
    pass


class PrincipalCharacter(PreconditionError):
    pass


class HeightExceeded(PreconditionError):
    pass


class RangeExceeded(PreconditionError):
    pass


class CutoffTooSmall(PreconditionError):
    pass


class SearchExhausted(PreconditionError):
    pass


# --- data errors -----------------------------------------------------------

class ParseError(DataError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonMonotonic(DataError):
    pass


class CountInconsistent(DataError):
    pass


# --- numerics errors --------------------------------------------------------

class AccuracyLoss(NumericsError):
    pass


class MissedZero(NumericsError):
    pass


class ClosedFormMismatch(NumericsError):
    pass


class SeriesProductDisagreement(NumericsError):
    pass


class OracleAuditFailure(NumericsError):
    pass
