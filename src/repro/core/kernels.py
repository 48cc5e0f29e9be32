"""Kernel recognition and numpy-vectorized execution for dense tabulations.

A *kernel-recognition pass* classifies tabulation bodies that are
**closed arithmetic over the index variables, numeric literals, and
subscripts of numeric-element arrays**, and a *vectorized executor*
evaluates recognized kernels over the whole index grid at once with
numpy broadcasting.

Design constraints (see ``docs/VECTOR_BACKEND.md``):

* **Gated on numpy.**  ``import numpy`` is attempted once; without it
  (or with ``REPRO_NO_VECTORIZE=1`` in the environment) every query
  evaluates through the ordinary scalar paths.
* **Fallback is the contract.**  :func:`execute` returns ``None``
  whenever it cannot *prove* the vectorized result would be
  cell-for-cell identical to the scalar loop — non-numeric or mixed
  int/float elements, possible ⊥ (division by zero, out-of-bounds or
  real-typed subscripts), or intermediate values that could overflow
  int64.  The caller then runs the unchanged scalar loop, so error
  behaviour (which cell raises, with which reason) is exactly the
  paper's semantics.
* **Blocks in, blocks out.**  Operands are read from their dense
  blocks (:meth:`Array.dense_block`), results published as blocks.  An
  affine subscript (a slab, shift, stride, reversed or permuted axis)
  is a strided *view*; only the rest (``A[B[i]]``, ``A[i, i]``) is
  fancy-indexed.  Temporaries this call allocated are overwritten in
  place, and int results publish the interval the analysis proved.

Semantics preserved cell-for-cell:

* nat ``-`` is monus (``max(0, a-b)``) → ``np.maximum(a - b, 0)``;
* nat ``/``/``%`` are floor division / Python-sign modulo, which numpy's
  ``//``/``%`` match exactly; a zero anywhere in the divisor grid means
  some cell is ⊥ → fall back to the scalar loop to raise it;
* mixed nat/real arithmetic promotes to float64, the same
  ``float(x) op float(y)`` the scalar
  :func:`~repro.objects.values.apply_arith` performs (int→double
  conversion rounds identically in both);
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

#: the default floor below which tabulations stay on the scalar loop
#: (:mod:`repro.core.fastpath`; ``Session(min_cells=...)`` moves it)
MIN_CELLS = fastpath.DEFAULT_MIN_CELLS

#: any intermediate whose *interval bound* could exceed this falls back
#: to the exact Python-int scalar loop (the dense store's int invariant)
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
    return block.data, block.lo, block.hi  # both None for real blocks


# ---------------------------------------------------------------------------
# the vectorized executor
# ---------------------------------------------------------------------------

def execute(kernel: Kernel, extents: Sequence[int],
            input_values: Sequence[Any]) -> Optional[Array]:
    """Evaluate ``kernel`` over the full index grid, or ``None``.

    ``extents`` are the already-evaluated tabulation bounds;
    ``input_values`` the runtime values of ``kernel.inputs``, in order.
    Returns the result :class:`Array`, backed by the computed block, or
    ``None`` when any runtime check fails and the caller must run the
    scalar loop instead.
    """
    if not available():
        return None
    extents = tuple(int(e) for e in extents)
    if 0 in extents:
        return Array(extents, [])
    values = dict(zip(kernel.inputs, input_values))
    rank = len(extents)
    grids: Dict[str, Tuple[Any, int, int, bool]] = {}
    for axis, name in enumerate(kernel.index_vars):
        shape = [1] * rank
        shape[axis] = extents[axis]
        grid = _np.arange(extents[axis], dtype=_np.int64).reshape(shape)
        grids[name] = (grid, 0, extents[axis] - 1, False)
    try:
        out, lo, hi, owned = _vec(kernel.body, grids, values)
    except _Fallback:
        return None
    # a scalar body fills losslessly (it is inside the int guard); only
    # a buffer this call allocated is published uncopied, so a result
    # never pins an operand's buffer
    if _np.shape(out) != extents:
        out = _np.broadcast_to(out, extents)
    data = _np.ascontiguousarray(out) if owned else _np.array(out, order="C")
    return Array(extents, data, None if lo is None else (lo, hi))


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
    grids = {kernel.index_vars[0]: (elements, int(lo), int(hi), False)}
    try:
        out, olo, ohi, _ = _vec(kernel.body, grids, values)
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


def _nonzero(divisor: Any) -> None:
    if bool(_np.any(divisor == 0)):  # a zero divisor: some cell is ⊥
        raise _Fallback()


def _is_int_operand(value: Any) -> bool:
    if isinstance(value, bool):
        raise _Fallback()
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return False
    # an ndarray we built: int64 or float64 by construction
    return value.dtype.kind == "i"


def _vec(expr: ast.Expr, grids: Dict[str, Tuple[Any, int, int, bool]],
         values: Dict[ast.Expr, Any]):
    """Evaluate a recognized kernel body to ``(value, lo, hi, owned)``.

    ``value`` is an ndarray (int64/float64, broadcastable to the domain)
    or a scalar; ``lo``/``hi`` bound integer results (exact for scalars,
    conservative intervals for arrays) and are ``None`` for float
    results; ``owned`` marks a buffer this call allocated (a fancy
    gather, an arithmetic result) — never a grid, view or input block —
    and only such a buffer is ever written in place.  Raises
    :class:`_Fallback` on anything not provably the scalar loop's.
    """
    if isinstance(expr, ast.Var):
        grid = grids.get(expr.name)
        if grid is not None:
            return grid
        return _scalar_leaf(values[expr])
    if isinstance(expr, ast.NatLit):
        return _leaf_int(expr.value)
    if isinstance(expr, ast.RealLit):
        return float(expr.value), None, None, False
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
    return value, value, value, False


def _scalar_leaf(value: Any):
    """A bare Var/Const input used as a number (not subscripted)."""
    if isinstance(value, bool):
        raise _Fallback()
    if isinstance(value, int):
        return _leaf_int(value)
    if isinstance(value, float):
        return value, None, None, False
    raise _Fallback()  # array/set/... — scalar path raises EvalError


def _gather(expr: ast.Subscript, grids, values):
    operand = values[expr.array]
    if not isinstance(operand, Array) or operand.rank != len(expr.indices):
        raise _Fallback()  # scalar path raises its own error
    block, lo, hi = _dense_block(operand)
    keys = []
    for extent, index_expr in zip(operand.dims, expr.indices):
        key, klo, khi, _ = _vec(index_expr, grids, values)
        if klo is None:  # float-typed index: scalar path raises ⊥
            raise _Fallback()
        if isinstance(key, int):
            if not 0 <= key < extent:
                raise _Fallback()  # out of bounds somewhere → ⊥
        elif klo < 0 or khi >= extent:
            # conservative interval may be wrong — ask the actual key
            if int(key.min()) < 0 or int(key.max()) >= extent:
                raise _Fallback()
        keys.append(key)
    view = _view(block, keys)
    if view is not None:
        dense.COUNTERS.subscripts_viewed += 1
        return view, lo, hi, False
    dense.COUNTERS.subscripts_gathered += 1
    return block[tuple(keys)], lo, hi, True


def _view(block, keys):
    """``block[keys]`` as a strided view of ``block``, or ``None``.

    Each key must be one value, or an int64 vector varying along one
    index axis of its own as an arithmetic progression with a non-zero
    step — an affine map of one variable, however spelled (``i + c``,
    ``2*i``, ``n - 1 - i`` through monus).  It becomes a ``slice``; the
    sliced block is permuted into index-axis order with unit dims added.
    The test is O(extent), not O(cells).
    """
    picks: List[Any] = []
    axes: List[int] = []
    shape: List[int] = []
    for key in keys:
        vec = _np.ravel(key)
        if vec.size == 1:
            picks.append(int(vec[0]))
            continue
        shape = shape or [1] * key.ndim
        varying = [axis for axis, n in enumerate(key.shape) if n > 1]
        if len(varying) != 1 or varying[0] in axes:
            return None
        start, step = int(vec[0]), int(vec[1]) - int(vec[0])
        if step == 0 or not bool((vec[1:] - vec[:-1] == step).all()):
            return None
        stop = int(vec[-1]) + step
        picks.append(slice(start, stop if stop >= 0 else None, step))
        axes.append(varying[0])
        shape[varying[0]] = vec.size
    view = block[tuple(picks)]
    if not axes:
        return view
    order = sorted(range(len(axes)), key=axes.__getitem__)
    return view.transpose(order).reshape(shape)


def _arith(op: str, left, right):
    a, la, ha, own_a = left
    b, lb, hb, own_b = right
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        # exact Python arithmetic, the very code the scalar loop runs
        try:
            result = apply_arith(op, a, b)
        except EvalError:  # ⊥ (zero divisor, real %) → scalar raises it
            raise _Fallback() from None
        if isinstance(result, int):
            return _leaf_int(result)
        return result, None, None, False
    int_a = _is_int_operand(a)
    int_b = _is_int_operand(b)
    # an operand buffer this call allocated, shaped and typed like the
    # result, receives it: same ufunc, same dtypes, so the same bits
    dtype = _np.int64 if int_a and int_b else _np.float64
    out = next((value for value, owned, other in ((a, own_a, b),
                                                  (b, own_b, a))
                if owned and type(value) is _np.ndarray
                and value.dtype == dtype and _fits(other, value)), None)
    if int_a and int_b:
        return _int_arith(op, a, la, ha, b, lb, hb, out) + (True,)
    return _float_arith(op, a, int_a, b, int_b, out) + (True,)


def _fits(value, target) -> bool:
    """``value`` broadcasts into ``target`` (both of the domain's rank)."""
    return _np.ndim(value) == 0 or all(
        n == 1 or n == m for n, m in zip(value.shape, target.shape))


def _int_arith(op: str, a, la, ha, b, lb, hb, out):
    if op == "+":
        lo, hi = _check(la + lb, ha + hb)
        return _np.add(a, b, out=out), lo, hi
    if op == "-":  # monus: clamp at zero, like apply_arith on nats
        _check(la - hb, ha - lb)  # the pre-clamp intermediate
        diff = _np.subtract(a, b, out=out)
        clamp = diff if isinstance(diff, _np.ndarray) else None
        return (_np.maximum(diff, 0, out=clamp),
                max(0, la - hb), max(0, ha - lb))
    if op == "*":
        corners = (la * lb, la * hb, ha * lb, ha * hb)
        lo, hi = _check(min(corners), max(corners))
        return _np.multiply(a, b, out=out), lo, hi
    _nonzero(b)
    if op == "/":
        bound = max(abs(la), abs(ha)) + 1
        return _np.floor_divide(a, b, out=out), -bound, bound
    if op == "%":
        bound = max(abs(lb), abs(hb))
        return _np.remainder(a, b, out=out), -bound, bound
    raise _Fallback()  # pragma: no cover - ARITH_OPS is exhaustive


def _float_arith(op: str, a, int_a: bool, b, int_b: bool, out):
    # mixed nat/real promotes exactly like apply_arith: float(x) op float(y)
    if int_a and isinstance(a, int):
        a = float(a)
    if int_b and isinstance(b, int):
        b = float(b)
    if op == "+":
        return _np.add(a, b, out=out), None, None
    if op == "-":
        return _np.subtract(a, b, out=out), None, None
    if op == "*":
        return _np.multiply(a, b, out=out), None, None
    if op == "/":
        _nonzero(b)
        return _np.true_divide(a, b, out=out), None, None
    raise _Fallback()  # real % is ⊥ — the scalar loop raises it


__all__ = ["Kernel", "recognize", "recognize_sum", "execute",
           "execute_elements", "available", "MIN_CELLS", "ENABLED"]
