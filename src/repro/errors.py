"""Exception hierarchy for the repro compiler and runtime.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch one type. Errors carry optional source locations
(line, column) to make diagnostics from the mini-HPF front end usable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SourceError(ReproError):
    """An error tied to a location in mini-HPF source text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + loc)


class LexError(SourceError):
    """Invalid character or malformed token in the source text."""


class ParseError(SourceError):
    """Source text does not conform to the mini-HPF grammar."""


class DirectiveError(SourceError):
    """Malformed or inconsistent !HPF$ directive."""


class SemanticError(ReproError):
    """Program is grammatical but semantically invalid (bad types,
    undeclared names, inconsistent shapes, ...)."""


class AnalysisError(ReproError):
    """Internal failure of a program-analysis pass."""


class MappingError(ReproError):
    """Invalid or inconsistent data-mapping request (distribution,
    alignment, privatization)."""


class PartitionError(ReproError):
    """Computation-partitioning failure (no executor set derivable)."""


class SimulationError(ReproError):
    """Runtime failure inside the machine simulator."""


class InterpreterError(ReproError):
    """Runtime failure inside the sequential reference interpreter."""
