"""Kernel recognition and numpy-vectorized execution for dense tabulations
and ``Σ``.

A *kernel-recognition pass* classifies tabulation and ``Σ`` bodies that
are **closed arithmetic over the index variables, numeric literals,
subscripts and extents of numeric-element arrays, and sums of such**,
and a *vectorized executor* evaluates them over the whole index grid at
once with numpy broadcasting, each ``Σ`` folded in the paper's order.

Design constraints (see ``docs/VECTOR_BACKEND.md``):

* **Gated on numpy.**  ``import numpy`` is attempted once; without it
  :func:`recognize` declines every body, so no plan emits a kernel
  branch and every query evaluates through the ordinary scalar paths.
  Whether a recognised body runs as a kernel is then a function of its
  cell count alone (``DispatchConfig.wants_kernel``).
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
  exceed ``±2**62``;
* IEEE real arithmetic is the same in both, so numpy's floating-point
  warnings are silenced (every ⊥ is declined before a ufunc runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ast
from repro.errors import EvalError
from repro.objects import dense
from repro.objects.array import Array
from repro.objects.values import apply_arith

try:  # pragma: no cover - exercised by the no-numpy CI lane
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: any intermediate whose *interval bound* could exceed this falls back
#: to the exact Python-int scalar loop (the dense store's int invariant)
_INT_GUARD = dense.INT_GUARD


def available() -> bool:
    """True when the vectorized path may run (numpy is importable)."""
    return _np is not None


class _Fallback(Exception):
    """Internal: abandon vectorization, let the scalar loop decide."""


@dataclass(frozen=True)
class Kernel:
    """A recognized tabulation or ``Σ`` body, its index variables and
    its external inputs: the index-free ``Var``/``Const`` leaves — bare
    scalars and the operands of subscripts and extents — that the caller
    evaluates in its own environment and passes positionally.
    """

    body: ast.Expr
    index_vars: Tuple[str, ...]
    inputs: Tuple[ast.Expr, ...]


def recognize(expr: ast.Expr) -> Optional[Kernel]:
    """Classify a tabulation body, or the body of a ``Σ`` over
    ``gen!n``, as a vectorizable kernel, or ``None``.

    Recognized grammar (over the index variables ``i``)::

        k ::= i | natlit | reallit | var | const
            | k (+|-|*|/|%) k
            | a[k, ..., k]          where a is a var or const
            | π_j(dim_r(a))         where a is a var or const
            | Σ{k | v ∈ gen!k'}     k' free of every index variable

    Everything else is left to the scalar paths, and so is every body
    when numpy is absent.  Whether the runtime values are numeric (the
    subscripts in bounds, divisors non-zero, magnitudes int64-safe) is
    the executors' to check, and they fall back rather than guess.
    """
    if isinstance(expr, ast.Sum) and type(expr.source) is not ast.Gen:
        return None
    index_vars = expr.vars if isinstance(expr, ast.Tabulate) else (expr.var,)
    inputs: Dict[ast.Expr, None] = {}
    if not available() or not _scan(expr.body, frozenset(index_vars), inputs):
        return None
    return Kernel(expr.body, index_vars, tuple(inputs))


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
        return _operand(expr.array, index_vars, inputs) and all(
            _scan(index, index_vars, inputs) for index in expr.indices)
    if _extent(expr):
        return _operand(expr.expr.expr, index_vars, inputs)
    if isinstance(expr, ast.Sum) and isinstance(expr.source, ast.Gen):
        bound = expr.source.expr
        return (ast.free_vars(bound).isdisjoint(index_vars)
                and _scan(bound, index_vars, inputs)
                and _scan(expr.body, index_vars | {expr.var}, inputs))
    return False


def _operand(operand: ast.Expr, index_vars: frozenset,
             inputs: Dict[ast.Expr, None]) -> bool:
    """A var (not an index: that is a nat) or const array operand."""
    if isinstance(operand, ast.Var):
        if operand.name in index_vars:
            return False
    elif not isinstance(operand, ast.Const):
        return False
    inputs.setdefault(operand, None)
    return True


def _extent(expr: ast.Expr) -> bool:
    """``expr`` is ``π_j(dim_r(a))``, an extent of ``a``: how stdlib
    ``matmul`` and ``matvec`` bound their ``Σ``."""
    return isinstance(expr, ast.Proj) and isinstance(expr.expr, ast.Dim) \
        and expr.expr.rank == expr.arity


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
    """The :class:`Array` of ``kernel`` over the grid of ``extents`` (the
    evaluated bounds), given the values of ``kernel.inputs`` in order,
    or ``None`` when a runtime check fails and the scalar loop must run.
    """
    if not available():
        return None
    extents = tuple(int(e) for e in extents)
    if 0 in extents:
        return Array(extents, [])
    result = _run(kernel, extents, input_values)
    if result is None:
        return None
    out, lo, hi, owned = result
    # a scalar body fills losslessly (it is inside the int guard); only
    # a buffer this call allocated is published uncopied, so a result
    # never pins an operand's buffer
    if _np.shape(out) != extents:
        out = _np.broadcast_to(out, extents)
    data = _np.ascontiguousarray(out) if owned else _np.array(out, order="C")
    return Array(extents, data, None if lo is None else (lo, hi))


def execute_sum(kernel: Kernel, n: int, input_values: Sequence[Any]) -> Any:
    """``Σ{body | v ∈ gen!n}`` as one fold of the body over ``arange(n)``,
    or ``None``.  Nat terms are summed in int64 only where the interval
    proof keeps the total inside the guard; real terms are added left to
    right from ``0.0`` by the sequential ``np.add.accumulate`` (``np.sum``
    is pairwise): the scalar fold's bits, ``-0.0``, NaN and inf included.
    """
    if not available():
        return None
    if n == 0:
        return 0  # the scalar fold's start, whatever the body
    result = _run(kernel, (n,), input_values)
    if result is None:
        return None
    out, lo, hi, _ = result
    terms = _np.broadcast_to(out, (n,))
    if lo is not None:
        if n * max(-lo, hi) > _INT_GUARD:
            return None
        return int(terms.sum())
    partial = _np.concatenate(((0.0,), terms))
    with _np.errstate(all="ignore"):
        return float(_np.add.accumulate(partial, out=partial)[-1])


def _run(kernel: Kernel, extents: Tuple[int, ...], input_values):
    """``_vec`` of the body over the grid of ``extents``, or ``None``."""
    values = dict(zip(kernel.inputs, input_values))
    rank = len(extents)
    grids: Dict[str, Tuple[Any, int, int, bool]] = {}
    for axis, name in enumerate(kernel.index_vars):
        shape = [1] * rank
        shape[axis] = extents[axis]
        grid = _np.arange(extents[axis], dtype=_np.int64).reshape(shape)
        grids[name] = (grid, 0, extents[axis] - 1, False)
    try:
        with _np.errstate(all="ignore"):
            return _vec(kernel.body, grids, values)
    except _Fallback:
        return None


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
    if isinstance(expr, ast.Sum):
        return _fold(expr, grids, values)
    dim = expr.expr  # π_j(dim_r(a)): recognition admits nothing else
    operand = values[dim.expr]
    if not isinstance(operand, Array) or operand.rank != dim.rank:
        raise _Fallback()  # dim of a non-array is ⊥; the scalar path says so
    return _leaf_int(operand.dims[expr.index - 1])


def _fold(expr: ast.Sum, grids, values):
    """``Σ{body | v ∈ gen!b}`` in a body: the slices at ``v = 0, …, b-1``
    added in that order onto the nat ``0``, each by ``_arith`` (so
    promotion, ``out=`` reuse and the interval check are the same)."""
    bound = _vec(expr.source.expr, grids, values)[0]
    if type(bound) is not int or bound < 0:
        raise _Fallback()  # gen of a non-natural is ⊥
    total = _leaf_int(0)
    for k in range(bound):
        term = _vec(expr.body, {**grids, expr.var: _leaf_int(k)}, values)
        total = _arith("+", total, term)
    return total


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


__all__ = ["Kernel", "recognize", "execute", "available"]
