"""The object module (Figure 3): the complex object library.

Query evaluation produces *complex object* values: free nestings of sets
and tuples over base values, plus k-dimensional arrays viewed as functions
from rectangular index domains to values (Section 2 of the paper), and —
for the Section 6 expressiveness results — bags.

Public surface:

* :class:`~repro.objects.array.Array` — immutable k-dimensional array.
* :class:`~repro.objects.bag.Bag` — immutable multiset.
* :mod:`~repro.objects.values` — helpers for building/validating values.
* :mod:`~repro.objects.ordering` — the canonical linear order ``<_t``.
* :mod:`~repro.objects.exchange` — the data exchange format of Section 3.
"""

from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.ordering import compare_values, sort_values, value_le, value_lt
from repro.objects.values import (
    is_value,
    value_equal,
    value_kind,
)
from repro.objects.exchange import dumps, loads, pretty

__all__ = [
    "Array",
    "Bag",
    "compare_values",
    "sort_values",
    "value_le",
    "value_lt",
    "is_value",
    "value_equal",
    "value_kind",
    "dumps",
    "loads",
    "pretty",
]
