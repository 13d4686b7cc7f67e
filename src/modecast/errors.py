"""Exception and warning types shared across the package, and the frame
its warnings name."""

import os
import sys

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def caller_stacklevel() -> int:
    """The warnings.warn stacklevel, for the function calling this one, that
    names the first frame outside the package: the user's call, however
    many package functions lie in between."""
    level = 1
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level += 1
        frame = frame.f_back
    return level


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ParseError(ValidationError):
    """CSV ingestion failed on a specific line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateDataError(ValueError):
    """The data carries no usable signal (all singular values below floor)."""


class EnsembleError(RuntimeError):
    """Too many Monte Carlo realizations failed to form an ensemble."""


class InstabilityWarning(UserWarning):
    """A forecast propagates eigenvalues beyond the growth guard."""
