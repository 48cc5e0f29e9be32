"""Kernel recognition and numpy-vectorized execution for dense tabulations.

The ``:profile`` counters show dense rectangular tabulations dominate the
end-to-end benchmarks (``cells_materialized`` — see the ROADMAP's
"Vectorized tabulation backend" item).  This module converts that
dominant cost into a bulk array operation: a *kernel-recognition pass*
classifies tabulation bodies that are **closed arithmetic over the index
variables, numeric literals, and subscripts of numeric-element arrays**,
and a *vectorized executor* evaluates recognized kernels over the whole
index grid at once with numpy broadcasting.

Design constraints (see ``docs/VECTOR_BACKEND.md``):

* **Gated on numpy.**  ``import numpy`` is attempted once; without it
  (or with ``REPRO_NO_VECTORIZE=1`` in the environment) every query
  evaluates through the ordinary scalar paths.  Nothing outside this
  module imports numpy.
* **Fallback is the contract.**  :func:`execute` returns ``None``
  whenever it cannot *prove* the vectorized result would be
  cell-for-cell identical to the scalar loop — non-numeric or mixed
  int/float elements, possible ⊥ (division by zero, out-of-bounds or
  real-typed subscripts), or intermediate values that could overflow
  int64.  The caller then runs the unchanged scalar loop, so error
  behaviour (which cell raises, with which reason) is exactly the
  paper's semantics.
* **Blocks in, blocks out.**  Operand arrays are gathered from their
  dense backing blocks (:meth:`Array.dense_block`), and results are
  published as blocks too — :func:`execute` hands the computed ndarray
  straight to :class:`~repro.objects.array.Array`, which adopts it
  zero-copy.  No ``tolist`` round-trip happens on the dense path; boxed
  elements only materialize if a later consumer asks for ``flat``, and
  the lazy coercion produces exactly the ints/floats the scalar loop
  would have stored, so hashing, canonical ordering, and set membership
  are indistinguishable.  With the store disabled (``REPRO_NO_DENSE=1``)
  results coerce eagerly, reproducing the historical behaviour.

Semantics preserved cell-for-cell:

* nat ``-`` is monus (``max(0, a-b)``) → ``np.maximum(a - b, 0)``;
* nat ``/``/``%`` are floor division / Python-sign modulo, which numpy's
  ``//``/``%`` match exactly; a zero anywhere in the divisor grid means
  some cell is ⊥ → fall back to the scalar loop to raise it;
* mixed nat/real arithmetic promotes to float64, the same
  ``float(x) op float(y)`` the scalar
  :func:`~repro.objects.values.apply_arith` performs (int→double conversion rounds identically in both);
* Python ints are unbounded but int64 is not: an interval analysis runs
  alongside evaluation and falls back before any intermediate could
  exceed ``±2**62``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ast
from repro.core import fastpath
from repro.errors import EvalError
from repro.objects import dense
from repro.objects.array import Array
from repro.objects.values import apply_arith

try:  # pragma: no cover - exercised by the no-numpy CI lane
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: kill switch honoured at call time (tests/CI flip it; numpy absent
#: disables regardless)
ENABLED = os.environ.get("REPRO_NO_VECTORIZE", "") != "1"

#: tabulations smaller than this stay on the scalar loop — recognition
#: and grid setup cost more than they save on tiny domains.  The value
#: lives in :mod:`repro.core.fastpath` (shared with the parallel
#: executor's gate, and overridable per session via
#: ``Session(min_cells=...)``); the name is kept here for callers that
#: treat it as the backend's constant floor.
MIN_CELLS = fastpath.DEFAULT_MIN_CELLS

#: conservative magnitude guard: any intermediate whose *interval bound*
#: could exceed this falls back to the exact Python-int scalar loop.
#: Shared with the dense store so block invariants and kernel analysis
#: agree on what "int64-safe" means.
_INT_GUARD = dense.INT_GUARD


def available() -> bool:
    """True when the vectorized path may run (numpy present + enabled)."""
    return _np is not None and ENABLED


class _Fallback(Exception):
    """Internal: abandon vectorization, let the scalar loop decide."""


@dataclass(frozen=True)
class Kernel:
    """A recognized tabulation body and its external inputs.

    ``inputs`` are the index-variable-free leaves the executor needs
    values for: bare ``Var``/``Const`` scalars and the ``Var``/``Const``
    operands of subscripts.  The caller evaluates each in its own
    environment and passes the values to :func:`execute` positionally.
    """

    body: ast.Expr
    index_vars: Tuple[str, ...]
    inputs: Tuple[ast.Expr, ...]


def recognize(tab: ast.Tabulate) -> Optional[Kernel]:
    """Classify a tabulation body as a vectorizable kernel, or ``None``.

    Recognized grammar (over the tabulation's index variables ``i``)::

        k ::= i | natlit | reallit | var | const
            | k (+|-|*|/|%) k
            | a[k, ..., k]          where a is a var or const

    Everything else — conditionals, comparisons, ``get``, nested
    tabulations, applications, explicit ⊥ — is left to the scalar
    paths.  Whether the runtime values are actually numeric (and the
    subscripts in bounds, divisors non-zero, magnitudes int64-safe) is
    checked by :func:`execute`, which falls back rather than guess.
    """
    inputs: Dict[ast.Expr, None] = {}
    if not _scan(tab.body, frozenset(tab.vars), inputs):
        return None
    return Kernel(tab.body, tab.vars, tuple(inputs))


def recognize_sum(expr: ast.Sum) -> Optional[Kernel]:
    """Classify a Σ body as a kernel over the bound element variable.

    Same grammar as :func:`recognize`, with the Σ variable playing the
    role of the single index variable — except that at execution time
    its "grid" is the (arbitrary-valued) element slice rather than
    ``0..extent-1``, so only :func:`execute_elements` may run the
    result.
    """
    inputs: Dict[ast.Expr, None] = {}
    if not _scan(expr.body, frozenset((expr.var,)), inputs):
        return None
    return Kernel(expr.body, (expr.var,), tuple(inputs))


def _scan(expr: ast.Expr, index_vars: frozenset,
          inputs: Dict[ast.Expr, None]) -> bool:
    if isinstance(expr, ast.Var):
        if expr.name not in index_vars:
            inputs.setdefault(expr, None)
        return True
    if isinstance(expr, (ast.NatLit, ast.RealLit)):
        return True
    if isinstance(expr, ast.Const):
        inputs.setdefault(expr, None)
        return True
    if isinstance(expr, ast.Arith):
        return (_scan(expr.left, index_vars, inputs)
                and _scan(expr.right, index_vars, inputs))
    if isinstance(expr, ast.Subscript):
        operand = expr.array
        if isinstance(operand, ast.Var):
            if operand.name in index_vars:
                return False  # subscripting a nat is ⊥/type error anyway
        elif not isinstance(operand, ast.Const):
            return False
        inputs.setdefault(operand, None)
        return all(_scan(index, index_vars, inputs)
                   for index in expr.indices)
    return False


# ---------------------------------------------------------------------------
# dense numeric blocks (the Array backing store, repro.objects.dense)
# ---------------------------------------------------------------------------

def _dense_block(array: Array):
    """``(ndarray, lo, hi)`` for a homogeneous numeric array, else ⊥fall.

    Consumes the array's first-class backing block zero-copy: arrays
    built dense (tabulation results, NetCDF reads) already carry one,
    and object-backed arrays probe-and-cache on first demand
    (:meth:`Array.dense_block`).  ``bool`` blocks are rejected — the
    arithmetic grammar has no boolean operations, and letting a bool
    buffer into ``_is_int_operand`` would misclassify it as float.
    """
    block = array.dense_block()
    if block is None or block.tag == dense.TAG_BOOL:
        raise _Fallback()
    if block.tag == dense.TAG_INT:
        return block.data, block.lo, block.hi
    return block.data, None, None


# ---------------------------------------------------------------------------
# the vectorized executor
# ---------------------------------------------------------------------------

def execute(kernel: Kernel, extents: Sequence[int],
            input_values: Sequence[Any]) -> Optional[Array]:
    """Evaluate ``kernel`` over the full index grid, or ``None``.

    ``extents`` are the already-evaluated tabulation bounds;
    ``input_values`` the runtime values of ``kernel.inputs``, in order.
    Returns the materialized :class:`Array` (elements coerced back to
    Python ints/floats), or ``None`` when any runtime check fails and
    the caller must run the scalar loop instead.
    """
    if not available():
        return None
    extents = tuple(int(e) for e in extents)
    total = 1
    for extent in extents:
        total *= extent
    if total == 0:
        return Array(extents, [])
    values = dict(zip(kernel.inputs, input_values))
    rank = len(extents)
    grids: Dict[str, Tuple[Any, int, int]] = {}
    for axis, name in enumerate(kernel.index_vars):
        shape = [1] * rank
        shape[axis] = extents[axis]
        grid = _np.arange(extents[axis], dtype=_np.int64).reshape(shape)
        grids[name] = (grid, 0, extents[axis] - 1)
    try:
        out, _, _ = _vec(kernel.body, grids, values)
    except _Fallback:
        return None
    if type(out) is int or type(out) is float:
        # index-free body: one exact scalar replicated over the domain
        # (within the int guard, so the int64/float64 fill is lossless)
        if dense.store_enabled():
            dtype = _np.int64 if type(out) is int else _np.float64
            return Array(extents, _np.full(extents, out, dtype=dtype))
        cells: List[Any] = [out] * total
        return Array(extents, cells)
    block = _np.broadcast_to(out, extents)
    if dense.store_enabled():
        # publish the result as the array's backing block, zero-copy
        # (ascontiguousarray collapses the broadcast view to a buffer)
        return Array(extents, _np.ascontiguousarray(block))
    return Array(extents, block.ravel().tolist())


def execute_elements(kernel: Kernel, elements, bounds: Tuple[Any, Any],
                     total_count: int, input_values: Sequence[Any]):
    """Fold ``kernel`` over an int64 element slice; ``(partial,)`` or ``None``.

    The Σ form of :func:`execute`: ``elements`` is one shard's slice
    of the canonical element list (an int64 ndarray mapped from shared
    memory), and the return value is the exact partial sum of the body
    over that slice, for the parent to fold in shard order.

    Exactness argument: integer addition is associative, and the
    overflow guard ``total_count * max(|lo|, |hi|) <= INT_GUARD``
    (where ``lo``/``hi`` bound the body's value over the *whole*
    element list) keeps every int64 prefix sum — inside this shard and
    across the parent's fold of partials — within int64, so the result
    equals the serial left-to-right fold bit for bit.  Float bodies
    return ``None``: float addition is non-associative and only the
    boxed in-order fold reproduces the serial rounding.  ``bounds``
    are the *global* element bounds, so every proof-based decline here
    is decided identically in all shards; the only shard-local declines
    left are actual-value checks (a zero divisor, an out-of-bounds
    subscript *among this shard's elements*), which imply a ⊥ element,
    so the shard's scalar fold raises and the Σ reruns serially.
    """
    if not available():
        return None
    lo, hi = bounds
    if lo is None or hi is None:
        return None
    count = int(elements.shape[0])
    if count <= 0:
        return None
    values = dict(zip(kernel.inputs, input_values))
    grids = {kernel.index_vars[0]: (elements, int(lo), int(hi))}
    try:
        out, olo, ohi = _vec(kernel.body, grids, values)
    except _Fallback:
        return None
    if olo is None or ohi is None:
        return None  # float-valued body: in-order fold only
    if total_count * max(abs(olo), abs(ohi)) > _INT_GUARD:
        return None
    if type(out) is int:
        # element-free body: count exact copies of one scalar
        return (out * count,)
    if not isinstance(out, _np.ndarray) or out.dtype.kind != "i":
        return None
    return (int(out.sum()),)


def _check(lo: int, hi: int) -> Tuple[int, int]:
    if lo < -_INT_GUARD or hi > _INT_GUARD:
        raise _Fallback()
    return lo, hi


def _is_int_operand(value: Any) -> bool:
    if isinstance(value, bool):
        raise _Fallback()
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return False
    # an ndarray we built: int64 or float64 by construction
    return value.dtype.kind == "i"


def _vec(expr: ast.Expr, grids: Dict[str, Tuple[Any, int, int]],
         values: Dict[ast.Expr, Any]):
    """Evaluate a recognized kernel body to ``(value, lo, hi)``.

    ``value`` is an ndarray (int64/float64, broadcastable to the domain)
    or a Python scalar; ``lo``/``hi`` bound integer results (exact for
    scalars, conservative intervals for arrays) and are ``None`` for
    float results.  Raises :class:`_Fallback` on anything that cannot be
    proven equivalent to the scalar loop.
    """
    if isinstance(expr, ast.Var):
        grid = grids.get(expr.name)
        if grid is not None:
            return grid
        return _scalar_leaf(values[expr])
    if isinstance(expr, ast.NatLit):
        return _leaf_int(expr.value)
    if isinstance(expr, ast.RealLit):
        return float(expr.value), None, None
    if isinstance(expr, ast.Const):
        return _scalar_leaf(values[expr])
    if isinstance(expr, ast.Subscript):
        return _gather(expr, grids, values)
    if isinstance(expr, ast.Arith):
        left = _vec(expr.left, grids, values)
        right = _vec(expr.right, grids, values)
        return _arith(expr.op, left, right)
    raise _Fallback()  # pragma: no cover - recognition is the gate


def _leaf_int(value: int):
    if abs(value) > _INT_GUARD:
        raise _Fallback()
    return value, value, value


def _scalar_leaf(value: Any):
    """A bare Var/Const input used as a number (not subscripted)."""
    if isinstance(value, bool):
        raise _Fallback()
    if isinstance(value, int):
        return _leaf_int(value)
    if isinstance(value, float):
        return value, None, None
    raise _Fallback()  # array/set/... — scalar path raises EvalError


def _gather(expr: ast.Subscript, grids, values):
    operand = values[expr.array]
    if not isinstance(operand, Array) or operand.rank != len(expr.indices):
        raise _Fallback()  # scalar path raises its own error
    block, lo, hi = _dense_block(operand)
    index_grids = []
    for axis, index_expr in enumerate(expr.indices):
        grid, glo, ghi = _vec(index_expr, grids, values)
        if glo is None:  # float-typed index: scalar path raises ⊥
            raise _Fallback()
        extent = operand.dims[axis]
        if isinstance(grid, int):
            if not 0 <= grid < extent:
                raise _Fallback()  # out of bounds somewhere → ⊥
        elif glo < 0 or ghi >= extent:
            # conservative interval may be wrong — ask the actual grid
            if int(grid.min()) < 0 or int(grid.max()) >= extent:
                raise _Fallback()
        index_grids.append(grid)
    gathered = block[tuple(index_grids)]
    return gathered, lo, hi


def _arith(op: str, left, right):
    a, la, ha = left
    b, lb, hb = right
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        # exact Python arithmetic, the very code the scalar loop runs
        try:
            result = apply_arith(op, a, b)
        except EvalError:  # ⊥ (zero divisor, real %) → scalar raises it
            raise _Fallback() from None
        if isinstance(result, int):
            return _leaf_int(result)
        return result, None, None
    int_a = _is_int_operand(a)
    int_b = _is_int_operand(b)
    if int_a and int_b:
        return _int_arith(op, a, la, ha, b, lb, hb)
    return _float_arith(op, a, int_a, b, int_b)


def _int_arith(op: str, a, la, ha, b, lb, hb):
    if op == "+":
        lo, hi = _check(la + lb, ha + hb)
        return a + b, lo, hi
    if op == "-":  # monus: clamp at zero, like apply_arith on nats
        _check(la - hb, ha - lb)  # the pre-clamp intermediate
        return _np.maximum(a - b, 0), max(0, la - hb), max(0, ha - lb)
    if op == "*":
        corners = (la * lb, la * hb, ha * lb, ha * hb)
        lo, hi = _check(min(corners), max(corners))
        return a * b, lo, hi
    # `/` and `%`: any zero divisor means some cell is ⊥
    if isinstance(b, int):
        if b == 0:
            raise _Fallback()
    elif bool((b == 0).any()):
        raise _Fallback()
    if op == "/":
        bound = max(abs(la), abs(ha)) + 1
        return a // b, -bound, bound
    if op == "%":
        bound = max(abs(lb), abs(hb))
        return a % b, -bound, bound
    raise _Fallback()  # pragma: no cover - ARITH_OPS is exhaustive


def _float_arith(op: str, a, int_a: bool, b, int_b: bool):
    # mixed nat/real promotes exactly like apply_arith: float(x) op float(y)
    if int_a and isinstance(a, int):
        a = float(a)
    if int_b and isinstance(b, int):
        b = float(b)
    if op == "+":
        return a + b, None, None
    if op == "-":
        return a - b, None, None
    if op == "*":
        return a * b, None, None
    if op == "/":
        if isinstance(b, float):
            if b == 0.0:
                raise _Fallback()
        elif bool((b == 0).any()):
            raise _Fallback()
        return a / b, None, None
    raise _Fallback()  # real % is ⊥ — the scalar loop raises it


__all__ = ["Kernel", "recognize", "recognize_sum", "execute",
           "execute_elements", "available", "MIN_CELLS", "ENABLED"]
