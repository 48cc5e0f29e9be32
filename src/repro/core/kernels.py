"""The run-time library of the numpy kernels emitted for dense tabulations
and ``Σ``.

:class:`~repro.core.compile.Compiler` recognises a tabulation body, or
the body of a ``Σ`` over ``gen!n``, that is **closed arithmetic over the
index variables, numeric literals, subscripts and extents of
numeric-element arrays, and sums of such**, and emits it as straight-line
numpy code inside the plan function, each ``Σ`` an emitted ``for`` that
folds its slices in the paper's order (docs/VECTOR_BACKEND.md).  The
emitted lines call the helpers below on *terms* ``(value, lo, hi,
owned)``; none of them sees an AST node.

Design constraints:

* **Gated on numpy.**  ``import numpy`` is attempted once; without it
  :func:`available` is false and no plan is emitted with a kernel block,
  so every query evaluates through the ordinary scalar paths.  Whether
  an emitted block runs is then a function of its cell count alone
  (``DispatchConfig.wants_kernel``).
* **Fallback is the contract.**  A helper raises :class:`_Fallback`
  whenever it cannot *prove* the vectorized result would be
  cell-for-cell identical to the scalar loop — non-numeric or mixed
  int/float elements, possible ⊥ (division by zero, out-of-bounds or
  real-typed subscripts), or intermediate values that could overflow
  int64.  The plan's ``except _Fallback`` then runs the unchanged scalar
  loop, so error behaviour (which cell raises, with which reason) is
  exactly the paper's semantics.
* **Blocks in, blocks out.**  Operands are read from their dense
  blocks (:meth:`Array.dense_block`), results published as blocks.  An
  affine subscript (a slab, shift, stride, reversed or permuted axis)
  is a strided *view*; only the rest (``A[B[i]]``, ``A[i, i]``) is
  fancy-indexed.  Temporaries the block allocated are overwritten in
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

from typing import Any, List, Sequence

from repro.errors import EvalError
from repro.objects import dense
from repro.objects.array import Array
from repro.objects.values import apply_arith

try:  # pragma: no cover - exercised by the no-numpy CI lane
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: any intermediate whose *interval bound* could exceed this falls back
#: to the exact Python-int scalar loop (the dense store's int invariant);
#: a literal past it keeps its body from being emitted as a kernel
INT_GUARD = dense.INT_GUARD


def available() -> bool:
    """True when kernels may be emitted (numpy is importable)."""
    return _np is not None


class _Fallback(Exception):
    """Abandon the kernel block; the plan runs the scalar loop."""


def quiet():
    """numpy's floating-point warnings off, around one kernel block."""
    return _np.errstate(all="ignore")


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
# terms: grids and leaves
# ---------------------------------------------------------------------------

def grids(extents: Sequence[int]) -> List[Any]:
    """One term per index axis of the grid of ``extents``: an int64
    ``arange`` shaped to broadcast along its own axis."""
    return [(_np.arange(extent, dtype=_np.int64).reshape(
        [extent if other == axis else 1 for other in range(len(extents))]),
        0, extent - 1, False) for axis, extent in enumerate(extents)]


def _check(lo: int, hi: int):
    if lo < -INT_GUARD or hi > INT_GUARD:
        raise _Fallback()
    return lo, hi


def _leaf_int(value: int):
    if abs(value) > INT_GUARD:
        raise _Fallback()
    return value, value, value, False


def scalar(value: Any):
    """The term of a bare ``Var``/``Const`` leaf used as a number: exactly
    an ``int`` (never a ``bool``) or a ``float``."""
    if type(value) is int:
        return _leaf_int(value)
    if type(value) is float:
        return value, None, None, False
    raise _Fallback()  # bool/array/set/... — the scalar path decides


def extent(operand: Any, rank: int, axis: int):
    """``π_axis(dim_rank(operand))``: how stdlib ``matmul`` and
    ``matvec`` bound their ``Σ``."""
    if not isinstance(operand, Array) or operand.rank != rank:
        raise _Fallback()  # dim of a non-array is ⊥; the scalar path says so
    return _leaf_int(operand.dims[axis - 1])


def bound(term) -> int:
    """The natural a body ``Σ`` over ``gen!b`` folds to, from ``b``'s
    term (free of the index variables, so one value)."""
    value = term[0]
    if type(value) is not int or value < 0:
        raise _Fallback()  # gen of a non-natural is ⊥
    return value


def gather(operand: Any, keys: Sequence[Any]):
    """``operand[keys]``: a view where every key is affine, else a fancy
    gather; declines any out-of-bounds or real-typed key first."""
    if not isinstance(operand, Array) or operand.rank != len(keys):
        raise _Fallback()  # scalar path raises its own error
    block, lo, hi = _dense_block(operand)
    picks = []
    for length, (key, klo, khi, _) in zip(operand.dims, keys):
        if klo is None:  # float-typed index: scalar path raises ⊥
            raise _Fallback()
        if isinstance(key, int):
            if not 0 <= key < length:
                raise _Fallback()  # out of bounds somewhere → ⊥
        elif klo < 0 or khi >= length:
            # conservative interval may be wrong — ask the actual key
            if int(key.min()) < 0 or int(key.max()) >= length:
                raise _Fallback()
        picks.append(key)
    view = _view(block, picks)
    if view is not None:
        dense.COUNTERS.subscripts_viewed += 1
        return view, lo, hi, False
    dense.COUNTERS.subscripts_gathered += 1
    return block[tuple(picks)], lo, hi, True


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


# ---------------------------------------------------------------------------
# arithmetic over terms
# ---------------------------------------------------------------------------

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


def arith(op: str, left, right):
    """The term of ``left op right``: exact Python arithmetic on two
    values, else the ufunc, written into an owned operand's buffer when
    it has the result's shape and dtype."""
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
    # an operand buffer this block allocated, shaped and typed like the
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
        limit = max(abs(la), abs(ha)) + 1
        return _np.floor_divide(a, b, out=out), -limit, limit
    if op == "%":
        limit = max(abs(lb), abs(hb))
        return _np.remainder(a, b, out=out), -limit, limit
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


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def publish(term, extents: tuple) -> Array:
    """The tabulation over the grid of ``extents`` whose body is ``term``.
    A scalar body fills losslessly (it is inside the int guard); only a
    buffer the block allocated is published uncopied, so a result never
    pins an operand's buffer."""
    out, lo, hi, owned = term
    if _np.shape(out) != extents:
        out = _np.broadcast_to(out, extents)
    data = _np.ascontiguousarray(out) if owned else _np.array(out, order="C")
    return Array(extents, data, None if lo is None else (lo, hi))


def total(term, n: int) -> Any:
    """``Σ`` of the ``n`` terms of ``term`` in the scalar fold's order.
    Nat terms are summed in int64 only where the interval proof keeps
    the total inside the guard; real terms are added left to right from
    ``0.0`` by the sequential ``np.add.accumulate`` (``np.sum`` is
    pairwise): the scalar fold's bits, ``-0.0``, NaN and inf included."""
    out, lo, hi, _ = term
    terms = _np.broadcast_to(out, (n,))
    if lo is not None:
        if n * max(-lo, hi) > INT_GUARD:
            raise _Fallback()
        return int(terms.sum())
    partial = _np.concatenate(((0.0,), terms))
    return float(_np.add.accumulate(partial, out=partial)[-1])


__all__ = ["available", "quiet", "grids", "scalar", "extent", "bound",
           "gather", "arith", "publish", "total", "INT_GUARD"]
