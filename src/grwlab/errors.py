"""Exception taxonomy shared by all grwlab modules."""

from __future__ import annotations

import operator


class GrwLabError(Exception):
    """Base class for all errors raised by grwlab."""


class InvalidArgumentError(GrwLabError, ValueError):
    """An argument violates a documented precondition."""


def parse_number(text: str, convert, what: str):
    """convert(text) for convert int or float; text that does not parse
    raises InvalidArgumentError naming ``what``."""
    try:
        return convert(text)
    except ValueError:
        raise InvalidArgumentError(
            f"{what}: {text.strip()!r} is not a valid {convert.__name__}") from None


def as_int(value, what: str) -> int:
    """value as a Python int.  An int or a numpy integer is taken; a bool, a
    float (even an integral one) or anything else raises
    InvalidArgumentError naming ``what``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")


class RankDeficientError(GrwLabError):
    """Columns that must be linearly independent are not (within tolerance)."""


class NoConvergenceError(GrwLabError):
    """An iterative routine hit its iteration cap before converging."""


class NotSeparableError(GrwLabError):
    """Classification data admits no separating hyperplane (or a degenerate one)."""


class UnsupportedError(GrwLabError):
    """The requested variant is outside the implemented surface."""


class FormatError(GrwLabError):
    """A binary or text input does not match its documented format."""


class TraceIoError(GrwLabError):
    """Reading or writing a trace file failed."""


class DivergedError(GrwLabError):
    """Training hit a non-finite risk.

    Carries the partial trace and the last parameter vector so callers can
    inspect the run up to the failure point.
    """

    def __init__(self, message: str, trace=None, params=None):
        super().__init__(message)
        self.trace = trace
        self.params = params
