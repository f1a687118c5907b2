"""Exception taxonomy shared by all genboot modules.

Every domain failure raises a subclass of :class:`GenbootError`, so callers
(and the CLI) can distinguish bad input files (:class:`ParseError`) from
violated preconditions of the analysis itself.
"""

from __future__ import annotations


class GenbootError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GenbootError):
    """A log or DFG file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class OutOfBounds(GenbootError):
    """A positional trace operator was called outside its valid range."""


class EmptyLog(GenbootError):
    """An operation that needs at least one trace received an empty log."""


class EmptyLanguage(GenbootError):
    """An automaton that accepts nothing where a non-empty language is required."""


class NoConvergence(GenbootError):
    """Power iteration did not converge within the iteration cap."""


class ZeroDenominator(GenbootError):
    """A precision/recall denominator degenerated to zero."""


class InvalidSite(GenbootError):
    """Crossover was attempted at positions that are not a breeding site."""


class Unreachable(GenbootError):
    """The output marker of a DFG cannot be reached from the input marker."""


class RetryExhausted(GenbootError):
    """Too many consecutive random walks exceeded the length cap."""


class AllFiltered(GenbootError):
    """Trace filtering removed every distinct trace from the log."""


class EmptyData(GenbootError):
    """Aggregation was asked to summarize an empty data set."""


class WorkerDied(GenbootError):
    """A worker process of the bootstrap pool ended before returning."""
