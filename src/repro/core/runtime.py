"""What emitted plans call besides their locals and slots.

:mod:`repro.core.compile` emits a plan's fast paths as inline text —
host operators under exact-type guards, a rank's array reader — and
every way out of them as a call into this module or into the general
routines it names (``apply_arith``, ``value_equal``, ``compare_values``),
which own every error and every ⊥ reason.  :data:`NAMES` is what an
emitted plan may name; it holds no value of any plan.  The
``counted_*``/``seen`` helpers are a probe's counter lines.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict

from repro.errors import BottomError, EvalError
from repro.objects.array import Array, index_set_stats
from repro.objects.bag import Bag
from repro.objects.ordering import (COMPARISONS, canonical_elements,
                                    rank_elements)
from repro.objects.values import ARITH_HOST, apply_arith

#: the general routine of each comparison, by its emitted name
COMPARE_NAMES = {"=": "_eq", "<>": "_ne", "<": "_lt", "<=": "_le",
                 ">": "_gt", ">=": "_ge"}
#: an emitted name for each multi-type guard of the host tables
TYPESETS = {types: f"_types{position}" for position, types in enumerate(
    {types: None for table in [*ARITH_HOST.values(),
                               *(host for host, _ in COMPARISONS.values())]
     for types, _ in table if len(types) > 1})}


def natural(value: Any, message: str) -> int:
    """``value`` if it is a natural, else ⊥ ``message.format(value)``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise BottomError(message.format(value))
    return value


def not_a_function(value: Any):
    """The callee of an application that is not callable."""
    raise EvalError(f"not a function: {value!r}")


def array(value: Any) -> Array:
    """The operand of a subscript whose type is not exactly ``Array``."""
    if not isinstance(value, Array):
        raise EvalError(f"subscript into non-array {value!r}")
    return value


def boxed(value: Any) -> Any:
    """A val the plan reads cell by cell: an array's cells boxed first
    (:attr:`Array.flat` keeps them, so once per binding)."""
    if type(value) is Array:
        value.flat
    return value


def tuple_of(value: Any, arity: int) -> tuple:
    """The operand of a projection that is not exactly a ``tuple`` of
    ``arity`` components."""
    if not isinstance(value, tuple) or len(value) != arity:
        raise EvalError(f"π applied to {value!r}")
    return value


def get(value: Any) -> Any:
    """``get``: the element of a singleton set."""
    if isinstance(value, frozenset) and len(value) == 1:
        (element,) = value
        return element
    if isinstance(value, (frozenset, Bag)):
        raise BottomError(f"get of non-singleton ({len(value)} elements)")
    raise EvalError(f"get of non-collection {value!r}")


def dim(value: Any, rank: int) -> Any:
    """``dim_rank``: an extent at rank 1, else the tuple of extents."""
    if not isinstance(value, Array) or value.rank != rank:
        raise BottomError(f"dim_{rank} of {value!r}")
    return value.dims[0] if rank == 1 else value.dims


def dims(extents: tuple, values: int, probe: Any) -> tuple:
    """The extents of an array literal of ``values`` cells, checked."""
    expected = 1
    for extent in extents:
        expected *= extent
    if expected != values:
        raise BottomError(
            f"array literal has {values} values for dims {list(extents)}")
    if probe is not None:
        probe.on_cells(values)
    return extents


def bottom(reason: str):
    """The explicit ⊥ construct."""
    raise BottomError(reason)


def indexed(pairs: Any, rank: int, probe: Any, weight: Any = None) -> Array:
    """``index_rank``: the reference grouping (with ``weight``, each
    cell's Σ of it), counted when probed."""
    result, groups, max_group = index_set_stats(pairs, rank, weight)
    if probe is not None:
        probe.on_index(result.size, groups, len(pairs), max_group=max_group)
    return result


def seen(probe: Any, value: Any) -> Any:
    """``value``, counted as a collection if it is one (a ``range`` is
    a ``gen`` iterated without building its set)."""
    if isinstance(value, (frozenset, Bag, range)):
        probe.on_collection(len(value))
    return value


def counted_filter(probe: Any, size: Any, levels: int) -> None:
    """The unfused plan's collections for one element of a fused
    ``ext``: the member's ``size`` (``None``: an ``{}`` was reached),
    once for the member and once per enclosing conditional."""
    if size is None:
        probe.on_node("EmptySet")
        size = 0
    for _ in range(levels + 1):
        probe.on_collection(size)


def counted_bottom(probe: Any, exc: BottomError) -> None:
    """Count a ⊥ once, however many plans it unwinds through."""
    if not getattr(exc, "_obs_counted", False):
        exc._obs_counted = True
        probe.on_bottom(exc.reason)


NAMES: Dict[str, Any] = {
    "Array": Array, "Bag": Bag, "BottomError": BottomError,
    "canonical_elements": canonical_elements, "rank_elements": rank_elements,
    "_product": product, "_EMPTY": frozenset(),
    "_arith": apply_arith, "_natural": natural,
    "_function": not_a_function, "_array": array, "_tuple": tuple_of,
    "_boxed": boxed, "_get": get, "_dim": dim, "_dims": dims,
    "_bottom": bottom,
    "_indexed": indexed,
    "_seen": seen, "_filtered": counted_filter,
    "_counted_bottom": counted_bottom,
    "_GEN": "gen of non-natural {!r}",
    "_BOUND": "tabulation bound {!r} is not natural",
    "_DIMENSION": "array dimension {!r} is not natural",
    **{name: COMPARISONS[op][1] for op, name in COMPARE_NAMES.items()},
    **{name: types for types, name in TYPESETS.items()},
}

__all__ = ["NAMES", "COMPARE_NAMES", "TYPESETS"]
