"""Lexer for the AQL surface syntax.

Token inventory follows the paper's concrete examples (Sections 1, 3, 4):
slash-binders (``\\x``), function application ``!``, generators ``<-``,
binding shorthand ``:==``/``==``, SML-style nested comments ``(* ... *)``,
``fn P => e`` lambdas, and identifiers that may contain primes
(``WS'``).  Brackets are *not* fused: ``[[`` is two ``[`` tokens, which
lets ``A[B[0]]`` lex unambiguously.

:func:`lex` is one compiled master regex matched once per token.  Its
output is three parallel lists — kinds, texts and source offsets —
closed by an :data:`END` sentinel, so the parser builds no per-token
object; line and column are computed from an offset only for an error
or by :func:`tokenize`.  docs/LANGUAGE.md "Lexical structure" states
the token grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import LexError

#: keywords of the surface language
KEYWORDS = frozenset({
    "fn", "if", "then", "else", "let", "val", "in", "end",
    "true", "false", "bottom", "and", "or", "not", "union", "bunion",
    "macro", "readval", "writeval", "using", "at",
})

#: the kind (and text) of the sentinel closing every token list
END = ""

#: an identifier: a letter, or ``_`` with more to follow (a lone ``_``
#: is the wildcard symbol), then letters, digits, ``_`` and primes.
#: ``[^\W\d_]`` is a little wider than "letter": it also admits
#: non-decimal numerals such as ``²``, which :func:`lex` rejects
_NAME = r"(?:[^\W\d_]|_(?=[\w']))[\w']*"

#: optional whitespace, then at most one token; ``lastindex`` is its
#: class.  ``(*`` is tried before the ``(`` symbol, and symbols are
#: listed longest first (maximal munch)
_TOKEN = re.compile(r"""[ \t\r\n]*(?:
      ([0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
    | ([0-9]+)
    | \\(NAME)
    | (NAME)
    | (\(\*)
    | (:==|==|<>|<=|>=|<-|=>|[(){}\[\],;|:=<>+\-*/%!\\_])
    | (")
    )?""".replace("NAME", _NAME), re.VERBOSE)
_REAL, _NAT, _BINDER, _WORD, _COMMENT, _SYMBOL, _STRING = range(1, 8)

_STRING_BODY = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}
_NESTING = re.compile(r"\(\*|\*\)")


@dataclass(frozen=True)
class Token:
    """A single lexeme with its source position."""

    kind: str  # 'ident' | 'binder' | 'nat' | 'real' | 'string' | 'kw' | symbol
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r})"


def position(source: str, offset: int) -> Tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def tokenize(source: str) -> List[Token]:
    """Tokenize AQL source text; raises :class:`~repro.errors.LexError`.

    Keyword tokens have kind ``'kw'`` here; :func:`lex`, which the
    parser reads, gives a keyword its own text as its kind.
    """
    kinds, texts, offsets = lex(source)
    return [Token("kw" if kind in KEYWORDS else kind, text,
                  *position(source, offset))
            for kind, text, offset in zip(kinds[:-1], texts, offsets)]


def lex(source: str) -> Tuple[List[str], List[str], List[int]]:
    """The token kinds, texts and offsets of ``source``, each list
    closed by an :data:`END` entry at ``len(source)``.

    A kind is ``'ident'``, ``'binder'`` (text without the ``\\``),
    ``'nat'``, ``'real'``, ``'string'`` (text unescaped), the keyword
    itself, or the symbol itself.
    """
    kinds: List[str] = []
    texts: List[str] = []
    offsets: List[int] = []
    match = _TOKEN.match
    pos = 0
    while True:
        found = match(source, pos)
        group = found.lastindex
        pos = found.end()
        if group == _SYMBOL:
            text = found[_SYMBOL]
            kinds.append(text)
        elif group == _WORD:
            text = found[_WORD]
            if text[0] > "z":
                _check_letter(source, pos - len(text))
            kinds.append(text if text in KEYWORDS else "ident")
        elif group == _NAT:
            text = found[_NAT]
            kinds.append("nat")
        elif group == _BINDER:
            text = found[_BINDER]
            if text[0] > "z":
                _check_letter(source, pos - len(text))
            kinds.append("binder")
            texts.append(text)
            offsets.append(pos - len(text) - 1)
            continue
        elif group == _REAL:
            text = found[_REAL]
            kinds.append("real")
        elif group == _STRING:
            start = pos - 1
            body = _STRING_BODY.match(source, start)
            if body is None:
                raise LexError("unterminated string", *position(source, start))
            pos = body.end()
            text = body[1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            kinds.append("string")
            texts.append(text)
            offsets.append(start)
            continue
        elif group == _COMMENT:
            pos = _skip_comment(source, pos)
            continue
        elif pos < len(source):
            raise LexError(f"unexpected character {source[pos]!r}",
                           *position(source, pos))
        else:
            break
        texts.append(text)
        offsets.append(pos - len(text))
    kinds.append(END)
    texts.append(END)
    offsets.append(len(source))
    return kinds, texts, offsets


def _check_letter(source: str, offset: int) -> None:
    """A name starts with a letter: reject a numeral such as ``²``."""
    if not source[offset].isalpha():
        raise LexError(f"unexpected character {source[offset]!r}",
                       *position(source, offset))


def _unescape(escape: re.Match) -> str:
    return _ESCAPES.get(escape[1], escape[1])


def _skip_comment(source: str, pos: int) -> int:
    """The offset just past the comment whose ``(*`` ends at ``pos``."""
    start, depth = pos - 2, 1
    while depth:
        delimiter = _NESTING.search(source, pos)
        if delimiter is None:
            raise LexError("unterminated comment", *position(source, start))
        depth += 1 if delimiter[0] == "(*" else -1
        pos = delimiter.end()
    return pos


__all__ = ["END", "KEYWORDS", "Token", "lex", "position", "tokenize"]
