"""The canonical linear order ``<_t`` on complex objects.

Section 2 of the paper notes that equality and linear order on the base
types lift definably to *all* object types; Section 6's ranked-union
construct ``⋃_r`` depends on that order to enumerate a set's elements as
``x_1 <_s ... <_s x_n``.  We implement the standard lifting:

* base types: their natural order (False < True; numeric; lexicographic);
* tuples: lexicographic over components;
* sets: compare the canonically-sorted element sequences lexicographically
  (shorter prefix first) — the usual multiset/antichain order;
* bags: same on sorted-with-multiplicity sequences;
* arrays: first by dims (lexicographic), then row-major values.

Across *kinds* we order by a fixed kind index so that heterogeneous
comparisons (which a well-typed program never performs) are still total —
handy for deterministic printing.
"""

from __future__ import annotations

import operator
from functools import cmp_to_key
from typing import Any, Iterable, List

from repro.objects import dense
from repro.objects.values import value_equal, value_kind

_KIND_RANK = {
    "bool": 0,
    "nat": 1,
    "real": 2,
    "string": 3,
    "tuple": 4,
    "set": 5,
    "bag": 6,
    "array": 7,
}


def compare_values(a: Any, b: Any) -> int:
    """Three-way comparison under ``<_t``: negative, zero, or positive."""
    kind_a = value_kind(a)
    kind_b = value_kind(b)
    if kind_a != kind_b:
        # nat/real compare numerically so mixed-numeric data orders sanely
        if {kind_a, kind_b} == {"nat", "real"}:
            return _cmp_scalar(float(a), float(b)) or _cmp_scalar(
                _KIND_RANK[kind_a], _KIND_RANK[kind_b]
            )
        return _cmp_scalar(_KIND_RANK[kind_a], _KIND_RANK[kind_b])
    if kind_a in ("bool", "nat", "real", "string"):
        return _cmp_scalar(a, b)
    if kind_a == "tuple":
        return _cmp_sequences(a, b)
    if kind_a == "set":
        return _cmp_sequences(sort_values(a), sort_values(b))
    if kind_a == "bag":
        return _cmp_sequences(sort_values(list(a)), sort_values(list(b)))
    if kind_a == "array":
        by_dims = _cmp_sequences(a.dims, b.dims)
        if by_dims != 0:
            return by_dims
        block_a = a.block
        block_b = b.block
        if block_a is not None and block_b is not None \
                and block_a.tag == block_b.tag:
            # same tag ⟹ same element kinds, so the vectorized
            # first-difference compare agrees with the scalar walk
            # (None means NaN was present — fall through for exactness)
            outcome = dense.compare_blocks(block_a, block_b)
            if outcome is not None:
                return outcome
        return _cmp_sequences(a.flat, b.flat)
    raise AssertionError(kind_a)


def _cmp_scalar(a: Any, b: Any) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _cmp_sequences(a: Iterable[Any], b: Iterable[Any]) -> int:
    a = list(a)
    b = list(b)
    for x, y in zip(a, b):
        if isinstance(x, (bool, str)) and type(x) is type(y):
            outcome = _cmp_scalar(x, y)
        elif isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and not isinstance(x, bool) and not isinstance(y, bool):
            outcome = _cmp_scalar(x, y)
        else:
            outcome = compare_values(x, y)
        if outcome != 0:
            return outcome
    return _cmp_scalar(len(a), len(b))


def value_lt(a: Any, b: Any) -> bool:
    """``a <_t b`` under the canonical order."""
    return compare_values(a, b) < 0


def value_le(a: Any, b: Any) -> bool:
    """``a <=_t b`` under the canonical order."""
    return compare_values(a, b) <= 0


#: The six comparisons, for the code generator: operator -> ({type:
#: host test}, general test).  The host test is the general one's
#: answer when *both* operands have exactly that scalar type.  ``<=``
#: and ``>=`` are the negated strict tests, not the host operators:
#: ``compare_values`` is 0 for NaN against anything, so ``nan <= x``
#: and ``x >= nan`` hold.
COMPARISONS = {
    op: (dict.fromkeys((bool, int, float, str), host), general)
    for op, host, general in (
        ("=", operator.eq, value_equal),
        ("<>", operator.ne, lambda a, b: not value_equal(a, b)),
        ("<", operator.lt, value_lt),
        ("<=", lambda a, b: not a > b, value_le),
        (">", operator.gt, lambda a, b: compare_values(a, b) > 0),
        (">=", lambda a, b: not a < b, lambda a, b: compare_values(a, b) >= 0),
    )
}


def sort_values(values: Iterable[Any]) -> List[Any]:
    """Sort values ascending under ``<_t`` (stable, deterministic)."""
    return sorted(values, key=cmp_to_key(compare_values))


#: scalar types whose native Python order agrees with ``<_t`` and whose
#: ``sort`` runs at C speed (collections need :func:`sort_values`)
_NATIVE_SORTABLE = (bool, int, float, str)


def canonical_elements(values: Iterable[Any]) -> List[Any]:
    """The elements of a collection in a canonical, deterministic order.

    Python's ``frozenset`` iterates in hash order, which varies between
    processes and platforms — any float computation folded over a set in
    iteration order (e.g. the evaluator's ``Σ``) would be
    nondeterministic, because float addition is not associative.  This
    helper gives loops a pinned order: scalar elements sort natively
    (C-speed, and the typing rules make collections homogeneous), and
    anything else falls back to the total order ``<_t`` of
    :func:`sort_values`.
    """
    ordered = list(values)
    if len(ordered) > 1:
        if isinstance(ordered[0], _NATIVE_SORTABLE):
            try:
                ordered.sort()
                return ordered
            except TypeError:  # heterogeneous (ill-typed) data; <_t totals
                pass
        return sort_values(ordered)
    return ordered


def rank_elements(values: Iterable[Any]) -> List[tuple]:
    """Enumerate a collection in canonical order with 1-based ranks.

    For a set ``{x_1 < ... < x_n}`` this returns
    ``[(x_1, 1), ..., (x_n, n)]`` — the semantics of the paper's
    ``rank`` example for the ⋃_r construct.  For bags, equal values get
    *consecutive* ranks, per Section 6's definition of ``⊎_r``.
    """
    ordered = sort_values(values)
    return [(value, position + 1) for position, value in enumerate(ordered)]


__all__ = [
    "COMPARISONS",
    "compare_values",
    "value_lt",
    "value_le",
    "sort_values",
    "canonical_elements",
    "rank_elements",
]
