"""Helpers for complex-object values.

The Python representation of the object types of Section 2:

=====================  ==========================================
object type            Python carrier
=====================  ==========================================
``B`` (booleans)       ``bool``
``N`` (naturals)       non-negative ``int``
``real`` (base)        ``float``
``string`` (base)      ``str``
``t1 × ... × tk``      ``tuple`` of length k
``{t}``                ``frozenset``
``{|t|}`` (bags, §6)   :class:`~repro.objects.bag.Bag`
``[[t]]_k``            :class:`~repro.objects.array.Array`
=====================  ==========================================

Everything is immutable and hashable, so values nest freely — a set of
arrays of tuples of sets is a perfectly good value, as the type grammar
requires.
"""

from __future__ import annotations

import operator
from typing import Any

from repro.errors import BottomError, EvalError
from repro.objects.array import Array
from repro.objects.bag import Bag


def value_kind(value: Any) -> str:
    """Classify a Python object as one of the complex-object kinds.

    Returns one of ``"bool"``, ``"nat"``, ``"real"``, ``"string"``,
    ``"tuple"``, ``"set"``, ``"bag"``, ``"array"``.  Raises ``TypeError``
    for objects outside the value universe.
    """
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "nat"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "string"
    if isinstance(value, tuple):
        return "tuple"
    if isinstance(value, frozenset):
        return "set"
    if isinstance(value, Bag):
        return "bag"
    if isinstance(value, Array):
        return "array"
    raise TypeError(f"not a complex-object value: {value!r}")


def is_value(value: Any) -> bool:
    """True iff ``value`` lies in the complex-object universe (recursively)."""
    try:
        kind = value_kind(value)
    except TypeError:
        return False
    if kind == "nat":
        return value >= 0
    if kind == "tuple":
        return all(is_value(item) for item in value)
    if kind in ("set", "bag", "array"):
        return all(is_value(item) for item in value)
    return True


def value_equal(a: Any, b: Any) -> bool:
    """Structural equality of complex objects.

    Python's ``==`` already does the right thing for our carriers, except
    that ``True == 1`` and ``1.0 == 1`` — the calculus distinguishes those
    types, so we compare kinds first.
    """
    try:
        kind_a = value_kind(a)
        kind_b = value_kind(b)
    except TypeError:
        return a == b
    if kind_a != kind_b:
        return False
    if kind_a == "tuple":
        return len(a) == len(b) and all(value_equal(x, y) for x, y in zip(a, b))
    if kind_a == "set":
        # value_equal refines host ==: unequal hosts settle it, and in
        # equal ones each x has exactly one host-equal partner in b,
        # found by hash, against which only the kinds are left to check
        if a != b:
            return False
        partner = {y: y for y in b}
        return all(value_equal(x, partner[x]) for x in a)
    if kind_a == "array":
        # Array.__eq__ is kind-first (and block-aware) since the dense
        # store landed, so delegation preserves this function's contract
        # while same-tag blocks compare in one vectorized pass.
        return a == b
    if kind_a == "bag":
        return a == b
    return a == b


def apply_arith(op: str, left: Any, right: Any) -> Any:
    """Overloaded arithmetic: monus/integer ops on nats, field ops on reals."""
    nat_left = isinstance(left, int) and not isinstance(left, bool)
    nat_right = isinstance(right, int) and not isinstance(right, bool)
    if nat_left and nat_right:
        if op == "+":
            return left + right
        if op == "-":
            return max(0, left - right)  # monus
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise BottomError("division by zero")
            return left // right
        if op == "%":
            if right == 0:
                raise BottomError("modulo by zero")
            return left % right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        if op == "+":
            return float(left) + float(right)
        if op == "-":
            return float(left) - float(right)
        if op == "*":
            return float(left) * float(right)
        if op == "/":
            if right == 0:
                raise BottomError("division by zero")
            return float(left) / float(right)
        raise BottomError(f"operator {op} is not defined on reals")
    raise EvalError(f"arithmetic {op} on {left!r} and {right!r}")


#: Where the host agrees with :func:`apply_arith`, for the code
#: generator: operator -> {type: host operator}, valid when *both*
#: operands have exactly that type (``type(x) is``: no ``bool`` as
#: ``int``, no ``numpy.float64`` as ``float``).  ``ZeroDivisionError``,
#: like any pair not tabled, is ``apply_arith``'s to answer.
ARITH_HOST = {
    "+": dict.fromkeys((int, float), operator.add),
    "-": {int: lambda a, b: a - b if a > b else 0,  # monus
          float: operator.sub},
    "*": dict.fromkeys((int, float), operator.mul),
    "/": {int: operator.floordiv, float: operator.truediv},
    "%": {int: operator.mod},
}


def value_repr(value: Any) -> str:
    """A short deterministic display string (sets printed in canonical order)."""
    from repro.objects.ordering import sort_values

    kind = value_kind(value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "nat":
        return str(value)
    if kind == "real":
        return repr(value)
    if kind == "string":
        return f'"{value}"'
    if kind == "tuple":
        return "(" + ", ".join(value_repr(v) for v in value) + ")"
    if kind == "set":
        return "{" + ", ".join(value_repr(v) for v in sort_values(value)) + "}"
    if kind == "bag":
        parts = []
        for item, count in sorted(value.items(), key=lambda kv: repr(kv[0])):
            parts.extend([value_repr(item)] * count)
        return "{|" + ", ".join(parts) + "|}"
    if kind == "array":
        dims = ",".join(str(d) for d in value.dims)
        body = ", ".join(value_repr(v) for v in value.flat)
        return f"[[{dims}; {body}]]"
    raise AssertionError(kind)
