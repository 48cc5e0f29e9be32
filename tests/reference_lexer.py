"""The character-at-a-time AQL lexer that ``repro.surface.lexer``
replaced, kept unchanged as the reference the differential test in
``test_lexer.py`` compares the master-regex lexer with.

It differs from the production lexer in one documented place: it starts
a number at any character ``str.isdigit`` accepts (``²``, ``١``, ``𝟙``),
where the production grammar takes ASCII ``[0-9]`` only.  No module
under ``src/`` imports this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import LexError

#: keywords of the surface language
KEYWORDS = frozenset({
    "fn", "if", "then", "else", "let", "val", "in", "end",
    "true", "false", "bottom", "and", "or", "not", "union", "bunion",
    "macro", "readval", "writeval", "using", "at",
})

#: multi-character symbols, longest first so maximal munch works
_SYMBOLS = (
    ":==", "==", "<>", "<=", ">=", "<-", "=>",
    "(", ")", "{", "}", "[", "]", ",", ";", "|", ":",
    "=", "<", ">", "+", "-", "*", "/", "%", "!", "\\", "_",
)


@dataclass(frozen=True)
class Token:
    """A single lexeme with its source position."""

    kind: str  # 'ident' | 'binder' | 'nat' | 'real' | 'string' | 'kw' | symbol
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Tokenize AQL source text; raises :class:`~repro.errors.LexError`."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    position = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal position, line, column
        for _ in range(count):
            if position < length and source[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        ch = source[position]
        if ch in " \t\r\n":
            advance(1)
            continue
        # SML-style nested comments
        if source.startswith("(*", position):
            depth = 1
            start_line, start_col = line, column
            advance(2)
            while depth and position < length:
                if source.startswith("(*", position):
                    depth += 1
                    advance(2)
                elif source.startswith("*)", position):
                    depth -= 1
                    advance(2)
                else:
                    advance(1)
            if depth:
                raise LexError("unterminated comment", start_line, start_col)
            continue
        if ch == '"':
            yield _lex_string(source, position, line, column, advance)
            continue
        if ch.isdigit():
            yield _lex_number(source, position, line, column, advance)
            continue
        if ch == "\\":
            # a binder \x — must be followed by an identifier
            start_line, start_col = line, column
            advance(1)
            name = _scan_ident(source, position)
            if not name:
                yield Token("\\", "\\", start_line, start_col)
                continue
            advance(len(name))
            yield Token("binder", name, start_line, start_col)
            continue
        if ch.isalpha() or ch == "_":
            name = _scan_ident(source, position)
            if name:
                kind = "kw" if name in KEYWORDS else "ident"
                yield Token(kind, name, line, column)
                advance(len(name))
                continue
            # a bare `_` is the wildcard token; fall through to symbols
        matched = False
        for symbol in _SYMBOLS:
            if source.startswith(symbol, position):
                yield Token(symbol, symbol, line, column)
                advance(len(symbol))
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", line, column)


def _scan_ident(source: str, position: int) -> str:
    end = position
    length = len(source)
    if end < length and (source[end].isalpha() or source[end] == "_"):
        end += 1
        while end < length and (source[end].isalnum()
                                or source[end] in "_'"):
            end += 1
    text = source[position:end]
    return "" if text in ("", "_") else text


def _lex_string(source, position, line, column, advance) -> Token:
    start_line, start_col = line, column
    chars: List[str] = []
    index = position + 1  # skip the opening quote
    while index < len(source):
        ch = source[index]
        if ch == "\\" and index + 1 < len(source):
            escape = source[index + 1]
            chars.append({"n": "\n", "t": "\t"}.get(escape, escape))
            index += 2
            continue
        if ch == '"':
            advance(index + 1 - position)  # quote, body, closing quote
            return Token("string", "".join(chars), start_line, start_col)
        chars.append(ch)
        index += 1
    raise LexError("unterminated string", start_line, start_col)


def _lex_number(source, position, line, column, advance) -> Token:
    start_line, start_col = line, column
    end = position
    length = len(source)
    while end < length and source[end].isdigit():
        end += 1
    is_real = False
    if end < length and source[end] == "." and end + 1 < length \
            and source[end + 1].isdigit():
        is_real = True
        end += 1
        while end < length and source[end].isdigit():
            end += 1
    if end < length and source[end] in "eE":
        probe = end + 1
        if probe < length and source[probe] in "+-":
            probe += 1
        if probe < length and source[probe].isdigit():
            is_real = True
            end = probe
            while end < length and source[end].isdigit():
                end += 1
    text = source[position:end]
    advance(end - position)
    return Token("real" if is_real else "nat", text, start_line, start_col)


__all__ = ["Token", "tokenize", "KEYWORDS"]
