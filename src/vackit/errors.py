"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """A geometric quantity left its valid domain (e.g. non-positive depth)."""


class DataFormatError(ValueError):
    """A data file could not be parsed.

    Attributes:
        path: File the error occurred in, if known.
        line: 1-based line number, if known.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None) -> None:
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class FitError(RuntimeError):
    """The least-squares fit could not start: its residual is not finite."""
