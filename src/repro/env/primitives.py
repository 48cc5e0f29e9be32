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
from typing import Any, Callable, Dict, Tuple

from repro.core.compile import NativePrim
from repro.errors import BottomError, EvalError
from repro.objects.ordering import sort_values
from repro.types.types import (
    TArrow,
    TBool,
    TNat,
    TProduct,
    TReal,
    TSet,
    TypeScheme,
    fresh_tvar,
)
from repro.types.unify import generalize

NativeImpl = NativePrim
PrimEntry = Tuple[NativeImpl, TypeScheme]


def simple_prim(fn: Callable[[Any], Any]) -> NativeImpl:
    """Wrap a plain function of the argument value as a native primitive."""

    def native(value: Any, evaluator: Any) -> Any:
        return fn(value)

    return native


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
    from repro.types.types import TArray

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
