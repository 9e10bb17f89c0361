"""Exception types shared across the package.

Solver non-convergence is not an exception: solvers return a report with
``converged=False``.  Exceptions are reserved for invalid inputs and for
no-go verdicts that refuse to start a computation.
"""


class GravortexError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GravortexError):
    """Invalid configuration value; the message names the violated constraint."""


class NumericInputError(GravortexError):
    """Non-finite or otherwise unusable numeric field passed to an operation."""


class WrongRankError(GravortexError):
    """Operation called with a Higgs configuration of the wrong rank."""


class InfeasibleError(GravortexError):
    """Solve refused because the stated solvability window is violated."""


class PoleError(GravortexError):
    """Rational predicate hit a vanishing denominator; the message names it."""


class ObstructionError(GravortexError):
    """Solve refused because an existence obstruction fired.

    Carries the verdict so callers (the CLI) can report the reason and exit
    with the obstruction status code.
    """

    def __init__(self, message: str, reasons: list[str] | None = None):
        super().__init__(message)
        self.reasons = reasons or [message]
