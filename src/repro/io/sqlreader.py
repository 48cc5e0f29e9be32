"""A fragment-of-SQL driver (Section 4.1: "We plan to add a similar
driver to our system for a fragment of SQL").

The paper's Kleisli ancestor exposed a Sybase driver: SQL text goes out,
complex objects come back.  This driver evaluates the fragment

.. code-block:: sql

    SELECT col [, col ...] | SELECT *
    FROM table [, table ...]
    [WHERE conjunction of  col op (col | constant)  predicates]

against CSV files registered as tables, returning a set of tuples (or a
set of scalars for single-column selections) in the usual exchange
representation.  Multi-table FROM is a cross product, so equality
predicates express joins — enough to surface relational "legacy" data
inside AQL queries.

Usage through the registry::

    registry.register_reader("SQL", make_sql_reader({"emp": "emp.csv"}))
    # AQL:  readval \\rows using SQL at "select name, qty from emp
    #                                    where qty > 3";
"""

from __future__ import annotations

import csv as _csv
import re
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import SessionError
from repro.io.drivers import _typed_field
from repro.objects.ordering import compare_values

_TOKEN = re.compile(
    r"\s*(?:(?P<string>'[^']*')|(?P<number>\d+\.\d+|\d+)"
    r"|(?P<op><=|>=|<>|=|<|>|,|\*|\.)"
    r"|(?P<word>[A-Za-z_][A-Za-z_0-9]*))"
)

_KEYWORDS = {"select", "from", "where", "and"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            if text[position:].strip():
                raise SessionError(
                    f"SQL: cannot tokenize at {text[position:][:20]!r}"
                )
            break
        position = match.end()
        if match.group("string") is not None:
            tokens.append(("string", match.group("string")[1:-1]))
        elif match.group("number") is not None:
            tokens.append(("number", match.group("number")))
        elif match.group("op") is not None:
            tokens.append(("op", match.group("op")))
        else:
            word = match.group("word")
            kind = "kw" if word.lower() in _KEYWORDS else "ident"
            tokens.append((kind, word))
    return tokens


class _Query:
    """A parsed SELECT statement."""

    def __init__(self, columns, tables, predicates):
        self.columns = columns        # ["*"] or [(table|None, col)]
        self.tables = tables          # [name]
        self.predicates = predicates  # [(lhs, op, rhs)]


def _parse(text: str) -> _Query:
    tokens = _tokenize(text)
    position = 0

    def peek():
        return tokens[position] if position < len(tokens) else (None, None)

    def take(expected_kind=None, expected_text=None):
        nonlocal position
        kind, value = peek()
        if kind is None:
            raise SessionError("SQL: unexpected end of query")
        if expected_kind and kind != expected_kind:
            raise SessionError(f"SQL: expected {expected_kind}, got {value!r}")
        if expected_text and value.lower() != expected_text:
            raise SessionError(f"SQL: expected {expected_text!r}, got {value!r}")
        position += 1
        return value

    def column_ref():
        name = take("ident")
        if peek() == ("op", "."):
            take()
            return (name, take("ident"))
        return (None, name)

    take("kw", "select")
    columns: List[Any] = []
    if peek() == ("op", "*"):
        take()
        columns = ["*"]
    else:
        columns.append(column_ref())
        while peek() == ("op", ","):
            take()
            columns.append(column_ref())
    take("kw", "from")
    tables = [take("ident")]
    while peek() == ("op", ","):
        take()
        tables.append(take("ident"))
    predicates = []
    if peek()[0] == "kw" and peek()[1].lower() == "where":
        take()
        while True:
            lhs = column_ref()
            op = take("op")
            kind, value = peek()
            if kind == "ident":
                rhs: Any = ("col", column_ref())
            elif kind == "number":
                take()
                rhs = ("const", float(value) if "." in value else int(value))
            elif kind == "string":
                take()
                rhs = ("const", value)
            else:
                raise SessionError(f"SQL: bad predicate operand {value!r}")
            if rhs[0] == "col":
                pass
            predicates.append((lhs, op, rhs))
            if peek()[0] == "kw" and peek()[1].lower() == "and":
                take()
                continue
            break
    if peek()[0] is not None:
        raise SessionError(f"SQL: trailing input {peek()[1]!r}")
    return _Query(columns, tables, predicates)


def _load_table(path: str) -> Tuple[List[str], List[List[Any]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(_csv.reader(handle))
    if not rows:
        raise SessionError(f"SQL: empty table file {path!r}")
    header = [name.strip() for name in rows[0]]
    data = [[_typed_field(field) for field in row] for row in rows[1:] if row]
    return header, data


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    outcome = compare_values(left, right)
    return {"<": outcome < 0, "<=": outcome <= 0,
            ">": outcome > 0, ">=": outcome >= 0}[op]


def make_sql_reader(tables: Dict[str, str]
                    ) -> Callable[[Any], frozenset]:
    """Build an SQL reader over ``table name -> CSV path``."""

    def read(query_text: Any) -> frozenset:
        if not isinstance(query_text, str):
            raise SessionError("SQL expects the query text as a string")
        query = _parse(query_text)
        loaded = []
        for table in query.tables:
            path = tables.get(table)
            if path is None:
                raise SessionError(f"SQL: unknown table {table!r}")
            loaded.append((table, *_load_table(path)))

        # resolve a column reference to (table position, column position)
        def resolve(ref):
            table_name, column = ref
            hits = []
            for table_pos, (name, header, _) in enumerate(loaded):
                if table_name is not None and table_name != name:
                    continue
                if column in header:
                    hits.append((table_pos, header.index(column)))
            if len(hits) != 1:
                raise SessionError(
                    f"SQL: column {column!r} is "
                    f"{'ambiguous' if hits else 'unknown'}"
                )
            return hits[0]

        if query.columns == ["*"]:
            outputs = [
                (table_pos, col_pos)
                for table_pos, (_, header, _) in enumerate(loaded)
                for col_pos in range(len(header))
            ]
        else:
            outputs = [resolve(ref) for ref in query.columns]
        checks = []
        for lhs, op, rhs in query.predicates:
            left = resolve(lhs)
            right = ("col", resolve(rhs[1])) if rhs[0] == "col" \
                else ("const", rhs[1])
            checks.append((left, op, right))

        results = set()

        def cross(table_pos: int, chosen: List[Sequence[Any]]) -> None:
            if table_pos == len(loaded):
                for (lt, lc), op, right in checks:
                    left_value = chosen[lt][lc]
                    right_value = (chosen[right[1][0]][right[1][1]]
                                   if right[0] == "col" else right[1])
                    if not _compare(op, left_value, right_value):
                        return
                row = tuple(chosen[t][c] for t, c in outputs)
                results.add(row if len(row) > 1 else row[0])
                return
            for row in loaded[table_pos][2]:
                chosen.append(row)
                cross(table_pos + 1, chosen)
                chosen.pop()

        cross(0, [])
        return frozenset(results)

    return read


__all__ = ["make_sql_reader"]
