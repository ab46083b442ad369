"""Exception types shared across the engine.

Errors that originate in a source file carry a line/column pair so the CLI
can point at the offending text, and the file's path when a program is read
from several files.
"""

from __future__ import annotations


class NdlpError(Exception):
    """Base class for all engine errors."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None,
                 path: str | None = None):
        self.message, self.line, self.column, self.path = message, line, column, path
        where = f"{line}:{column}: " if path is None else f"{path}:{line}:{column}: "
        super().__init__(message if line is None else where + message)


class ParseError(NdlpError):
    """Malformed input text (tokenizer or grammar level)."""


class ProgramError(NdlpError):
    """Structurally invalid program: arity clash, unsafe rule, empty NdAtom."""


class GroundingError(NdlpError):
    """Grounding cannot proceed: missing horizon or uncoverable variable."""


class EvaluationError(NdlpError):
    """A semantic operation was called outside its contract."""


class InconsistencyError(EvaluationError):
    """A well-founded step produced overlapping positive and negative sets."""
