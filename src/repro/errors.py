"""Exception hierarchy for the AQL system.

The paper (Section 2) makes errors explicit: both array subscripting and
``get`` may be *undefined*, producing the error value ⊥.  At run time we
model ⊥ as the exception :class:`BottomError`; in the core calculus it also
exists as an AST node (``Bottom``) so that optimization rules can introduce
and manipulate partiality, exactly as the β^p rule of Section 5 requires.
"""

from __future__ import annotations


class AQLError(Exception):
    """Base class for every error raised by the AQL system."""


class LexError(AQLError):
    """Raised when the lexer meets an invalid token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"lex error at {line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(AQLError):
    """Raised when AQL surface syntax cannot be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"parse error at {line}:{column}: {message}")
        self.line = line
        self.column = column


class DesugarError(AQLError):
    """Raised when surface syntax cannot be translated to the core calculus."""


class TypeCheckError(AQLError):
    """Raised when an expression violates the typing rules of Figure 1."""


class UnificationError(TypeCheckError):
    """Raised when two types cannot be unified during inference."""


class EvalError(AQLError):
    """Raised when evaluation fails for reasons other than ⊥ (internal)."""


class BottomError(EvalError):
    """The error value ⊥ of the calculus.

    Produced by out-of-bounds subscripting, ``get`` on a non-singleton set,
    evaluating the explicit ``Bottom`` construct, and any operation applied
    to ⊥ (errors propagate strictly).
    """

    def __init__(self, reason: str = "undefined"):
        super().__init__(f"bottom (undefined value): {reason}")
        self.reason = reason


class ExchangeFormatError(AQLError):
    """Raised when a byte stream is not valid complex-object exchange format."""


class NetCDFError(AQLError):
    """Raised on malformed NetCDF classic files or unsupported features."""


class RegistrationError(AQLError):
    """Raised when registering a primitive/reader/writer/rule fails."""


class SessionError(AQLError):
    """Raised by the AQL top level (unknown reader, unbound value, ...)."""


class NestingError(AQLError):
    """Raised when a statement parses but nests or chains deeper than a
    later pipeline stage can recurse (e.g. 5 000 terms of ``1 + … + 1``)."""
