"""The complex-object data exchange format of Section 3.

The paper defines a literal grammar for complex objects and uses it as a
*data exchange format*: "Any driver which produces a stream of bytes in
this format can quickly be plugged into our system by registering it as a
new reader."  This module is the codec for that format.

Grammar (extended with reals, strings and — for Section 6 — bags)::

    co ::= true | false
         | nat                        e.g. 42
         | real                       e.g. 67.3, 1e-9
         | string                     e.g. "NYC"
         | ( co , ... , co )          k-tuples, k >= 2
         | { co , ... , co }          sets
         | {| co , ... , co |}        bags
         | [[ co , ... , co ]]        1-d array literal
         | [[ n1 , ... , nk ; co , ... ]]   k-d array, row-major values

:func:`dumps` always emits the canonical (dims-prefixed) array form and
prints sets in the canonical ``<_t`` order, so output is deterministic and
``loads(dumps(v)) == v`` for every value.

:func:`pretty` produces the *display* form the paper's read-eval-print
loop shows, e.g. ``[[(0,0,0):67.3, (1,0,0):67.3, ...]]``.
"""

from __future__ import annotations

import re
from typing import Any, List

from repro.errors import ExchangeFormatError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.ordering import sort_values
from repro.objects.values import value_kind


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dumps(value: Any) -> str:
    """Serialize a complex object to canonical exchange format."""
    pieces: List[str] = []
    _write(value, pieces)
    return "".join(pieces)


def _write(value: Any, out: List[str]) -> None:
    kind = value_kind(value)
    if kind == "bool":
        out.append("true" if value else "false")
    elif kind == "nat":
        if value < 0:
            raise ExchangeFormatError(f"negative natural {value}")
        out.append(str(value))
    elif kind == "real":
        out.append(_format_real(value))
    elif kind == "string":
        out.append('"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif kind == "tuple":
        out.append("(")
        for position, item in enumerate(value):
            if position:
                out.append(", ")
            _write(item, out)
        out.append(")")
    elif kind == "set":
        out.append("{")
        for position, item in enumerate(sort_values(value)):
            if position:
                out.append(", ")
            _write(item, out)
        out.append("}")
    elif kind == "bag":
        out.append("{|")
        ordered: List[Any] = []
        for item in sort_values(value.support()):
            ordered.extend([item] * value.count(item))
        for position, item in enumerate(ordered):
            if position:
                out.append(", ")
            _write(item, out)
        out.append("|}")
    elif kind == "array":
        out.append("[[")
        out.append(", ".join(str(d) for d in value.dims))
        out.append("; ")
        block = value.block
        if block is not None:
            _write_block(block, out)
        else:
            for position, item in enumerate(value.flat):
                if position:
                    out.append(", ")
                _write(item, out)
        out.append("]]")
    else:  # pragma: no cover - value_kind is exhaustive
        raise AssertionError(kind)


def _write_block(block: Any, out: List[str]) -> None:
    """Serialize a dense backing block without caching boxed elements.

    The transient ``tolist`` yields exactly the ints/floats/bools the
    object path would have walked, so the emitted text — including the
    negative-natural rejection, in row-major first-occurrence order —
    is byte-identical to per-element :func:`_write` dispatch.  A list's
    ``repr`` joins its items' ``repr`` with ``", "``: for an int that is
    its ``str``, and a float's ``repr`` always holds ``.``, ``e``,
    ``inf`` or ``nan``, so :func:`_format_real` would append nothing —
    a block of numbers is written in one call.
    """
    values = block.data.ravel().tolist()
    if block.tag == "bool":
        out.append(", ".join("true" if item else "false" for item in values))
        return
    if block.tag == "int" and block.lo < 0:  # a negative cell is possible
        for item in values:
            if item < 0:
                raise ExchangeFormatError(f"negative natural {item}")
    out.append(repr(values)[1:-1])


def _format_real(value: float) -> str:
    text = repr(float(value))
    # guarantee the token re-lexes as a real, not a nat
    if "e" not in text and "E" not in text and "." not in text \
            and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def pretty(value: Any, limit: int = 12) -> str:
    """The display form of the paper's REPL (sparse ``(index):value`` pairs).

    ``limit`` bounds how many array entries / set members are shown before
    an ellipsis; pass ``limit=0`` for no truncation.  A function value
    (a query may return one) shows as ``fn``, as in SML.
    """
    if callable(value):
        return "fn"
    kind = value_kind(value)
    if kind == "array":
        entries = []
        for position, (index, item) in enumerate(
            zip(value.indices(), value.flat)
        ):
            if limit and position >= limit:
                entries.append("...")
                break
            key = str(index[0]) if value.rank == 1 else ",".join(
                str(i) for i in index
            )
            entries.append(f"({key}):{pretty(item, limit)}")
        return "[[" + ", ".join(entries) + "]]"
    if kind == "set":
        members = sort_values(value)
        shown = [pretty(v, limit) for v in members[:limit or None]]
        if limit and len(members) > limit:
            shown.append("...")
        return "{" + ", ".join(shown) + "}"
    if kind == "tuple":
        return "(" + ", ".join(pretty(v, limit) for v in value) + ")"
    return dumps(value)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_WS = r"[ \t\r\n]*"
#: a real is what ``_format_real`` emits — digits that go on with a
#: fraction or an exponent, ``inf``, ``-inf``, ``nan``; a malformed
#: exponent (``1e``) still lexes as one token, so the error names it
_REAL = r"-?[0-9]+(?=[.eE])(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?|-?inf|nan"
_NAT = r"[0-9]+(?![0-9.eE])"

#: optional whitespace, then at most one token; ``lastgroup`` names it
_TOKEN = re.compile(rf"""{_WS}(?:
      (?P<real>{_REAL})
    | (?P<nat>-?[0-9]+)
    | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<word>true|false)
    | (?P<punct>\[\[|\]\]|\{{\||\|\}}|[{{}}(),;])
    )?""", re.VERBOSE | re.DOTALL)

#: ``, n, n, ...`` after a number of the same kind: the rest of a
#: homogeneous array body, consumed as one match (cf. ``_write_block``)
_RUNS = {
    "nat": (re.compile(rf"(?:{_WS},{_WS}{_NAT})+"), int),
    "real": (re.compile(rf"(?:{_WS},{_WS}(?:{_REAL}))+"), float),
}

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class _Scanner:
    """The tokenizer driving the recursive-descent grammar below.

    ``pos`` is the end of the last token consumed; :meth:`peek` moves
    it over whitespace to the next token and describes that token in
    ``kind``/``token``/``end`` (``kind`` is ``None`` at the end of
    input and at a character that starts no token).
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked = -1

    def error(self, message: str) -> ExchangeFormatError:
        return ExchangeFormatError(f"at offset {self.pos}: {message}")

    def peek(self) -> str:
        if self._peeked != self.pos:
            match = _TOKEN.match(self.text, self.pos)
            self.kind = kind = match.lastgroup
            self.token = match.group(kind) if kind else ""
            self.end = match.end()
            self.pos = self._peeked = self.end - len(self.token)
        return self.token

    def eat(self, token: str) -> bool:
        if self.peek() == token and self.kind == "punct":
            self.pos = self.end
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.eat(token):
            raise self.error(f"expected {token!r}")


def loads(text: str) -> Any:
    """Parse one complex object from exchange format text."""
    scanner = _Scanner(text)
    try:
        value = _parse(scanner)
    except RecursionError:
        raise scanner.error("complex object too deeply nested") from None
    scanner.peek()
    if scanner.pos < len(text):
        raise scanner.error("trailing input after complex object")
    return value


_OPENERS = ("[[", "{|", "{", "(")


def _parse(s: _Scanner) -> Any:
    token, kind = s.peek(), s.kind
    if kind in _RUNS:
        try:
            value = _RUNS[kind][1](token)
        except ValueError:  # "1e"; more digits than int() converts
            raise s.error(f"malformed number {token!r}") from None
        s.pos = s.end
        if value < 0 and kind == "nat":
            raise s.error("naturals are non-negative")
        return value
    if kind is None or (kind == "punct" and token not in _OPENERS):
        if s.pos >= len(s.text):
            raise s.error("unexpected end of input")
        ch = s.text[s.pos]
        if ch == '"':
            s.pos = len(s.text)
            raise s.error("unterminated string")
        raise s.error(f"unexpected character {ch!r}")
    s.pos = s.end
    if kind == "word":
        return token == "true"
    if kind == "string":
        return _ESCAPE.sub(r"\1", token[1:-1])
    if token == "[[":
        return _parse_array(s)
    if token == "{|":
        return Bag(_parse_items(s, "|}"))
    if token == "{":
        return frozenset(_parse_items(s, "}"))
    items = _parse_items(s, ")")
    if len(items) < 2:
        raise s.error("tuples have arity >= 2")
    return tuple(items)


def _parse_items(s: _Scanner, closer: str) -> List[Any]:
    items: List[Any] = []
    if s.eat(closer):
        return items
    while True:
        items.append(_parse(s))
        if s.eat(closer):
            return items
        s.expect(",")


def _parse_array(s: _Scanner) -> Array:
    items: List[Any] = []
    dims: List[int] | None = None
    if s.eat("]]"):
        return Array((0,), [])
    while True:
        s.peek()
        run = _RUNS.get(s.kind)
        items.append(_parse(s))
        match = run and run[0].match(s.text, s.pos)
        if match:
            # the numbers that follow, in one step; one that does not
            # convert is left to the item loop, which names its offset
            try:
                items.extend(list(map(run[1], match.group().split(",")[1:])))
                s.pos = match.end()
            except ValueError:
                pass
        if s.eat(";"):
            if dims is not None:
                raise s.error("multiple ';' in array literal")
            if not all(type(item) is int for item in items):
                raise s.error("array dims must be naturals")
            dims = items
            items = []
            if s.eat("]]"):
                break
            continue
        if s.eat("]]"):
            break
        s.expect(",")
    if dims is None:
        return Array((len(items),), items)
    try:
        return Array(dims, items)
    except ValueError as exc:
        raise s.error(str(exc)) from exc


__all__ = ["dumps", "loads", "pretty"]
