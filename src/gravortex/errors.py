"""Exception types shared across the package.

Solver non-convergence is not an exception: solvers return a report with
``converged=False``.  Exceptions are reserved for invalid inputs and for
no-go verdicts that refuse to start a computation.  The value checks that
every module shares (:func:`is_integer`, :func:`require_integer`,
:func:`finite_float`) live here too, so that any module may import them.
"""

import math
import numbers


class GravortexError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GravortexError):
    """Invalid configuration value; the message names the violated constraint.

    A type that checks its own fields may record the offending value as
    ``field``: the pair (field name, key), with key None for a scalar field.
    """

    field: tuple | None = None


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


def is_integer(value) -> bool:
    """Whether value is an integer; a boolean is not, although Python treats it as one."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def require_integer(value, name: str):
    """value when it is an integer (:func:`is_integer`); ConfigurationError otherwise."""
    if not is_integer(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def finite_float(value, name: str, message: str | None = None) -> float:
    """value as a finite float; ConfigurationError otherwise.

    A boolean is not a number, although float() takes it, and neither is a
    string.  ``message`` replaces the "<name> must be a number" of the error
    a non-number gets.
    """
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{message or name + ' must be a number'}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(
            f"{name} must be a finite number, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number, got {number!r}")
    return number
