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

from functools import cmp_to_key, partial
from typing import Any, Dict, Iterable, List, Tuple

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
    return _compare({}, a, b)


def _compare(memo: Dict[int, Tuple[Any, List[Any]]], a: Any, b: Any) -> int:
    """:func:`compare_values`, sorting each set or bag at most once per
    ``memo`` (see :func:`_sorted`)."""
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
        return _cmp_sequences(a, b, memo)
    if kind_a in ("set", "bag"):
        return _cmp_sequences(_sorted(a, memo), _sorted(b, memo), memo)
    if kind_a == "array":
        by_dims = _cmp_sequences(a.dims, b.dims, memo)
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
        return _cmp_sequences(a.flat, b.flat, memo)
    raise AssertionError(kind_a)


def _sorted(collection: Any, memo: Dict[int, Tuple[Any, List[Any]]]
            ) -> List[Any]:
    """A set's or bag's elements (with multiplicity) under ``<_t``,
    sorted once per ``memo``.  Sorting a collection compares its
    elements, and comparing two nested collections sorts both: without
    the memo (keyed by identity, holding the collection so its id stays
    its own) each level re-sorts every level below it, a cost
    exponential in the nesting depth."""
    entry = memo.get(id(collection))
    if entry is None:
        entry = memo[id(collection)] = (collection, _sort(collection, memo))
    return entry[1]


def _sort(values: Iterable[Any], memo) -> List[Any]:
    return sorted(values, key=cmp_to_key(partial(_compare, memo)))


def _cmp_scalar(a: Any, b: Any) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _cmp_sequences(a: Iterable[Any], b: Iterable[Any], memo) -> int:
    a = list(a)
    b = list(b)
    for x, y in zip(a, b):
        if isinstance(x, (bool, str)) and type(x) is type(y):
            outcome = _cmp_scalar(x, y)
        elif isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and not isinstance(x, bool) and not isinstance(y, bool):
            outcome = _cmp_scalar(x, y)
        else:
            outcome = _compare(memo, x, y)
        if outcome != 0:
            return outcome
    return _cmp_scalar(len(a), len(b))


def value_lt(a: Any, b: Any) -> bool:
    """``a <_t b`` under the canonical order."""
    return compare_values(a, b) < 0


def value_le(a: Any, b: Any) -> bool:
    """``a <=_t b`` under the canonical order."""
    return compare_values(a, b) <= 0


#: The six comparisons, for the code generator: operator -> (((types,
#: host test text over ``{a}`` and ``{b}``),), general test), in the
#: shape of :data:`repro.objects.values.ARITH_HOST`.  The host test is
#: the general one's answer when *both* operands have exactly one of
#: the scalar types.  ``<=`` and ``>=`` are the negated strict tests,
#: not the host operators: ``compare_values`` is 0 for NaN against
#: anything, so ``nan <= x`` and ``x >= nan`` hold.
COMPARISONS = {
    op: ((((bool, int, float, str), host),), general)
    for op, host, general in (
        ("=", "{a} == {b}", value_equal),
        ("<>", "{a} != {b}", lambda a, b: not value_equal(a, b)),
        ("<", "{a} < {b}", value_lt),
        ("<=", "not {a} > {b}", value_le),
        (">", "{a} > {b}", lambda a, b: compare_values(a, b) > 0),
        (">=", "not {a} < {b}", lambda a, b: compare_values(a, b) >= 0),
    )
}


def sort_values(values: Iterable[Any]) -> List[Any]:
    """Sort values ascending under ``<_t`` (stable, deterministic); a
    collection nested at any depth is sorted once per call."""
    return _sort(values, {})


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
