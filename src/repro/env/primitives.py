"""Builtin native primitives.

Section 3: "For reasons of efficiency, we also assume the following
derived operators to be primitive constructs of our language: min, max,
∈."  (Membership desugars to a Σ-expression; ``min``/``max`` over sets
are implemented natively here so they run in linear rather than quadratic
time, exactly the paper's motivation for making them primitive.)

A native primitive is a Python callable ``fn(value, evaluator)``; the
evaluator handle lets higher-order primitives apply AQL closures.  Each
is registered alongside a type scheme for the checker.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.compile import NativePrim
from repro.errors import BottomError, EvalError
from repro.objects.ordering import sort_values
from repro.objects.values import value_kind
from repro.types.types import (
    HOST_TYPES,
    TArray,
    TArrow,
    TBag,
    TBool,
    TNat,
    TProduct,
    TReal,
    TSet,
    TString,
    Type,
    TypeScheme,
    fresh_tvar,
)
from repro.types.unify import generalize

NativeImpl = NativePrim
PrimEntry = Tuple[NativeImpl, TypeScheme]


#: the kind (:func:`~repro.objects.values.value_kind`) each result type
#: demands; type variables, arrows and named base types demand none
_RESULT_KINDS = {TBool: "bool", TNat: "nat", TReal: "real", TString: "string",
                 TProduct: "tuple", TSet: "set", TBag: "bag", TArray: "array"}
_BASE_KINDS = {host: _RESULT_KINDS[base]
               for base, host in HOST_TYPES.items()}
#: the kind of every cell of a dense block, by its tag
_TAG_KINDS = {"int": "nat", "real": "real", "bool": "bool"}


def _kind(value: Any) -> str:
    """``value``'s kind, a base kind only for its exact host type."""
    kind = _BASE_KINDS.get(type(value))
    if kind is None:
        try:
            kind = value_kind(value)
        except TypeError:
            kind = None
        if kind in (None, *_BASE_KINDS.values()):
            return type(value).__name__
    return kind


def _misfit(value: Any, expected: Type) -> Optional[str]:
    """What in ``value`` lacks the kind ``expected`` demands, elements
    included (an array's cells read off its dense tag), or ``None``."""
    want = _RESULT_KINDS.get(type(expected))
    if want is None:
        return None
    kind = _kind(value)
    article = "an" if kind[0] in "aeiou" else "a"
    if kind != want:
        return f"{article} {kind}"
    if kind == "tuple":
        if len(value) != len(expected.items):
            return f"a {len(value)}-tuple"
        parts = zip(value, expected.items)
    elif kind == "array":
        if value.rank != expected.rank:
            return f"a rank-{value.rank} array"
        block = value.dense_block()
        if block is not None:
            cells = _TAG_KINDS[block.tag]
            return None if _RESULT_KINDS.get(type(expected.elem)) in (
                None, cells) else f"an array of {cells}"
        parts = ((cell, expected.elem) for cell in value.flat)
    elif kind in ("set", "bag"):
        parts = ((item, expected.elem) for item in (
            value if kind == "set" else value.support()))
    else:
        return None
    for item, item_type in parts:
        inner = _misfit(item, item_type)
        if inner is not None:
            return f"{article} {kind} holding {inner}"
    return None


def simple_prim(fn: Callable[[Any], Any], name: Optional[str] = None,
                signature: Optional[Type | TypeScheme] = None) -> NativeImpl:
    """Wrap a plain function of the argument value as a native primitive.

    Given the primitive's ``name`` and declared ``signature``, every
    result is checked, once, for the kinds the declared result type
    demands — a base result for its exact host type, a collection,
    tuple or array down to its elements: an ill-kinded result is an
    :class:`EvalError` naming the primitive, not a host exception (or a
    wrongly typed answer that a typed plan would trust) later.
    """
    body = signature.body if isinstance(signature, TypeScheme) else signature
    result_type = body.result if isinstance(body, TArrow) else None
    host = HOST_TYPES.get(type(result_type))

    def native(value: Any, evaluator: Any) -> Any:
        return fn(value)

    def checked(value: Any, evaluator: Any) -> Any:
        result = fn(value)
        if type(result) is not host:
            misfit = _misfit(result, result_type)
            if misfit is not None:
                raise EvalError(f"primitive {name!r} returned {misfit}, "
                                f"not the {result_type} its type declares")
        return result

    return native if type(result_type) not in _RESULT_KINDS else checked


def scheme(body) -> TypeScheme:
    """Generalize a type into a scheme (quantifying its free variables)."""
    return generalize(body, {})


def _min_set(value: Any) -> Any:
    if not isinstance(value, frozenset):
        raise EvalError(f"min of non-set {value!r}")
    if not value:
        raise BottomError("min of empty set")
    return sort_values(value)[0]


def _max_set(value: Any) -> Any:
    if not isinstance(value, frozenset):
        raise EvalError(f"max of non-set {value!r}")
    if not value:
        raise BottomError("max of empty set")
    return sort_values(value)[-1]


def _sort_set(value: Any) -> Any:
    """``sort : {a} -> [[a]]`` — enumerate a set in the canonical order.

    This is Theorem 6.2 as a primitive: an array is exactly a ranked
    collection, and ``sort`` is the ranking made first-class (it is
    definable in NRCA — see ``expressiveness.rank.set_to_array_by_rank``
    — but, like ``min``/``max``, far more efficient natively).
    """
    from repro.objects.array import Array

    if not isinstance(value, frozenset):
        raise EvalError(f"sort of non-set {value!r}")
    ordered = sort_values(value)
    return Array((len(ordered),), ordered)


def _sqrt(value: Any) -> float:
    if value < 0:
        raise BottomError("sqrt of negative real")
    return math.sqrt(float(value))


def _pair_real(fn: Callable[[float, float], float]) -> Callable[[Any], float]:
    def apply(value: Any) -> float:
        if not isinstance(value, tuple) or len(value) != 2:
            raise EvalError("expected a pair of reals")
        return float(fn(float(value[0]), float(value[1])))

    return apply


def builtin_primitives() -> Dict[str, PrimEntry]:
    """The stock primitive table: name -> (native implementation, scheme)."""
    a = fresh_tvar()
    b = fresh_tvar()
    c = fresh_tvar()
    real2 = TProduct((TReal(), TReal()))

    table: Dict[str, PrimEntry] = {
        # the Section 3 primitives
        "min": (simple_prim(_min_set), scheme(TArrow(TSet(a), a))),
        "max": (simple_prim(_max_set), scheme(TArrow(TSet(b), b))),
        # ranking made first-class (Theorem 6.2); definable, but O(n log n)
        "sort": (simple_prim(_sort_set),
                 scheme(TArrow(TSet(c), TArray(c, 1)))),
        # numeric conveniences for external-style computations
        "real": (simple_prim(lambda v: float(v)),
                 scheme(TArrow(TNat(), TReal()))),
        "floor": (simple_prim(lambda v: int(math.floor(float(v)))),
                  scheme(TArrow(TReal(), TNat()))),
        "round": (simple_prim(lambda v: int(round(float(v)))),
                  scheme(TArrow(TReal(), TNat()))),
        "sqrt": (simple_prim(_sqrt), scheme(TArrow(TReal(), TReal()))),
        "rpow": (simple_prim(_pair_real(lambda x, y: x ** y)),
                 scheme(TArrow(real2, TReal()))),
        "rmax": (simple_prim(_pair_real(max)),
                 scheme(TArrow(real2, TReal()))),
        "rmin": (simple_prim(_pair_real(min)),
                 scheme(TArrow(real2, TReal()))),
        "even": (simple_prim(lambda v: v % 2 == 0),
                 scheme(TArrow(TNat(), TBool()))),
        "odd": (simple_prim(lambda v: v % 2 == 1),
                scheme(TArrow(TNat(), TBool()))),
    }
    return table


__all__ = ["NativeImpl", "PrimEntry", "simple_prim", "scheme",
           "builtin_primitives"]
