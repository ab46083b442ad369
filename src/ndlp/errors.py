"""Exception types shared across the engine.

Errors that originate in a source file carry a line/column pair so the CLI
can point at the offending text.
"""

from __future__ import annotations


class NdlpError(Exception):
    """Base class for all engine errors."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        if line is not None:
            super().__init__(f"{line}:{column}: {message}")
        else:
            super().__init__(message)


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
