"""The dense, dtype-tagged backing store behind :class:`Array`.

The paper's arrays are *functions* of rectangular domain, and most arrays
a query touches are homogeneous: every element is a natural, a real, or a
boolean.  For those, :class:`Array` keeps a single contiguous numpy
buffer — a :class:`DenseBlock` — instead of one boxed Python object per
cell.  The block is what the fast paths consume *zero-copy*:

* the kernel backend (:mod:`repro.core.kernels`) gathers operand arrays
  and publishes tabulation results as blocks, never round-tripping
  through ``tolist``;
* pickling an ``Array`` ships the raw buffer plus its dtype tag
  instead of per-element object pickles (see ``Array.__reduce__``);
* the NetCDF codec (:mod:`repro.io.netcdf`) decodes variable payloads
  straight into blocks and encodes blocks straight back to bytes.

Everything outside those boundaries sees ordinary complex-object values:
``Array.flat`` materializes boxed elements lazily, exactly once, and the
value protocol (kind-first equality/hash, ``<_t`` ordering, ⊥ on bad
subscripts) is bit-identical between block-backed and object-backed
arrays — the property suite in ``tests/test_dense_store.py`` pins that.

Tags and their invariants
-------------------------

=========  ==============  ==========================================
tag        numpy dtype     element invariant
=========  ==============  ==========================================
``int``    ``int32`` or    every element is exactly ``int`` (never
           ``int64``       ``bool``) with ``|v| <= INT_GUARD``
``real``   ``float64``     every element is exactly ``float``
``bool``   ``bool_``       every element is exactly ``bool``
=========  ==============  ==========================================

Anything else — strings, tuples, sets, nested arrays, mixed kinds —
falls back to the object tuple representation.  ``int`` blocks carry
sound ``lo``/``hi`` value bounds inside ``INT_GUARD`` — measured by a
scan, or the interval a kernel proved for the cells it computed — so
the kernel interval analysis starts from real ranges rather than the
worst-case guard.  They also fix the block's width, in one place
(:func:`int_dtype`); no observation can tell the two widths apart.

Proof-or-fallback discipline: every function here either returns a
block whose invariant provably holds, or ``None`` so the caller stays
on the object path.  Whether blocks exist at all depends on one thing:
whether numpy is importable (:func:`available`).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

try:  # numpy is optional; every entry point degrades to None without it
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None

#: Magnitude guard for int blocks.  Kept well under 2**63 so the kernel
#: interval analysis (repro.core.kernels) can add/multiply guarded values
#: a few times before overflow checks trigger.
INT_GUARD = 2 ** 62

TAG_INT = "int"
TAG_REAL = "real"
TAG_BOOL = "bool"

#: Kind-signature characters per tag (must agree with array._kind_char).
KIND_CHARS = {TAG_INT: "n", TAG_REAL: "r", TAG_BOOL: "b"}


def available() -> bool:
    """True iff numpy is importable (blocks can exist at all)."""
    return _np is not None


class DenseBlock:
    """One immutable dense buffer: shaped, read-only, dtype-tagged.

    ``data`` is a C-contiguous read-only ndarray shaped like the owning
    array's dims.  ``tag`` is one of ``"int"``/``"real"``/``"bool"``;
    for ``"int"`` sound value bounds ``lo <= data.min()`` and
    ``data.max() <= hi``, both inside ``INT_GUARD``, are carried (both 0
    for empty blocks), for the other tags they are ``None``.
    """

    __slots__ = ("data", "tag", "lo", "hi")

    def __init__(self, data: Any, tag: str,
                 lo: Optional[int], hi: Optional[int]):
        self.data = data
        self.tag = tag
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DenseBlock(tag={self.tag!r}, shape={self.data.shape}, "
                f"lo={self.lo}, hi={self.hi})")


class DenseCounters:
    """Process-wide observability counters for the dense store.

    Single-writer per event in practice (probe/adopt happen under the
    GIL with plain integer adds); the numbers are for observability and
    tests, not for synchronization.
    """

    __slots__ = ("blocks_adopted", "blocks_probed", "probe_rejects",
                 "dense_hits", "materializations", "subscripts_viewed",
                 "subscripts_gathered")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks isolate runs with this)."""
        self.blocks_adopted = 0     # ndarray adopted at construction
        self.blocks_probed = 0      # object tuple probed into a block
        self.probe_rejects = 0      # probe scanned and declined
        self.dense_hits = 0         # scalar reads served from a block
        self.materializations = 0   # block-backed arrays that built .flat
        self.subscripts_viewed = 0    # kernel subscripts taken as views
        self.subscripts_gathered = 0  # kernel subscripts fancy-indexed

    def snapshot(self) -> dict:
        """A JSON-safe copy of the counters (see docs/OBSERVABILITY.md)."""
        return {
            "blocks_adopted": self.blocks_adopted,
            "blocks_probed": self.blocks_probed,
            "probe_rejects": self.probe_rejects,
            "dense_hits": self.dense_hits,
            "materializations": self.materializations,
            "subscripts_viewed": self.subscripts_viewed,
            "subscripts_gathered": self.subscripts_gathered,
        }


COUNTERS = DenseCounters()


def is_ndarray(values: Any) -> bool:
    """True iff ``values`` is a numpy ndarray (False when numpy is absent)."""
    return _np is not None and isinstance(values, _np.ndarray)


def int_dtype(lo: int, hi: int) -> Any:
    """The width of an int block or kernel term whose values lie in
    ``[lo, hi]``: ``int32`` inside its range, else ``int64``."""
    return _np.int32 if -2 ** 31 <= lo and hi < 2 ** 31 else _np.int64


def _int_bounds(data: Any) -> Optional[Tuple[int, int]]:
    """Exact (lo, hi) of an integer ndarray, or None if outside the guard."""
    if data.size == 0:
        return 0, 0
    lo = int(data.min())
    hi = int(data.max())
    if lo < -INT_GUARD or hi > INT_GUARD:
        return None
    return lo, hi


def adopt(values: Any, dims: Tuple[int, ...],
          bounds: Optional[Tuple[int, int]] = None) -> Optional[DenseBlock]:
    """Wrap an ndarray whose size already matches ``dims`` as a block.

    The ndarray is taken over: it is reshaped (a view when contiguous),
    cast to the canonical dtype if needed, and marked read-only.
    Returns ``None`` — caller falls back to boxed elements — when the
    dtype has no tag or an integer value falls outside ``INT_GUARD``.
    ``bounds`` is an interval the caller proved holds every integer
    value; inside ``INT_GUARD`` it becomes the block's ``lo``/``hi``
    and the min/max scan is skipped.  Either way it picks the width.
    """
    kind = values.dtype.kind
    if kind == "i":
        if bounds is None or bounds[0] < -INT_GUARD or bounds[1] > INT_GUARD:
            bounds = _int_bounds(values)
            if bounds is None:
                return None
        lo, hi = bounds
        values = _narrow(values, lo, hi)
        tag = TAG_INT
    elif kind == "f":
        if values.dtype != _np.float64:
            values = values.astype(_np.float64)
        tag, lo, hi = TAG_REAL, None, None
    elif kind == "b":
        if values.dtype != _np.bool_:
            values = values.astype(_np.bool_)
        tag, lo, hi = TAG_BOOL, None, None
    else:
        return None
    data = _np.ascontiguousarray(values).reshape(dims)
    data.flags.writeable = False
    COUNTERS.blocks_adopted += 1
    return DenseBlock(data, tag, lo, hi)


def probe_block(flat: Sequence[Any],
                dims: Tuple[int, ...]) -> Optional[DenseBlock]:
    """Probe an object tuple for dense representability (one type scan).

    Exact-type checks only: ``bool`` is a subclass of ``int`` in Python
    but a distinct kind in the calculus, so ``type(v) is int`` keeps the
    kinds apart.  Returns ``None`` when numpy is missing or the scan
    finds a non-conforming element.
    """
    if _np is None:
        return None
    if all(type(v) is int for v in flat):
        try:
            data = _np.array(flat, dtype=_np.int64) if flat else \
                _np.empty(0, dtype=_np.int64)
        except OverflowError:
            # an element outside int64 entirely — decline, don't crash
            COUNTERS.probe_rejects += 1
            return None
        bounds = _int_bounds(data)
        if bounds is None:
            COUNTERS.probe_rejects += 1
            return None
        lo, hi = bounds
        data = _narrow(data, lo, hi)
        tag = TAG_INT
    elif all(type(v) is float for v in flat):
        data = _np.array(flat, dtype=_np.float64)
        tag, lo, hi = TAG_REAL, None, None
    elif all(type(v) is bool for v in flat):
        data = _np.array(flat, dtype=_np.bool_)
        tag, lo, hi = TAG_BOOL, None, None
    else:
        COUNTERS.probe_rejects += 1
        return None
    data = data.reshape(dims)
    data.flags.writeable = False
    COUNTERS.blocks_probed += 1
    return DenseBlock(data, tag, lo, hi)


def _narrow(values: Any, lo: int, hi: int) -> Any:
    """``values`` at the width :func:`int_dtype` gives ``[lo, hi]``."""
    dtype = int_dtype(lo, hi)
    return values if values.dtype == dtype else values.astype(dtype)


def materialize(block: DenseBlock) -> Tuple[Any, ...]:
    """Box every element of a block into the canonical Python carriers.

    ``ndarray.tolist`` yields exactly ``int``/``float``/``bool`` for the
    three tagged dtypes, so the result is indistinguishable from the
    tuple an object-backed construction would have stored.
    """
    COUNTERS.materializations += 1
    return tuple(block.data.ravel().tolist())


def decode_bytes(raw: bytes, dtype: str) -> Optional[Any]:
    """Decode a big-endian payload to a canonical-width ndarray.

    ``dtype`` is a numpy dtype string (``">i2"``, ``">f4"``, ...); an
    int decodes to the width of its type's range (``>i4``: int32).  The
    widening casts are exact, so element values equal what a per-element
    ``struct.unpack`` + ``int()``/``float()`` walk produces.  Returns
    ``None`` without numpy — the caller keeps its struct path.
    """
    if _np is None:
        return None
    data = _np.frombuffer(raw, dtype=dtype)
    if data.dtype.kind == "f":
        return data.astype(_np.float64)
    info = _np.iinfo(data.dtype)
    return data.astype(int_dtype(int(info.min), int(info.max)))


def encode_ndarray(values: Any, dtype: str) -> Optional[bytes]:
    """Encode an ndarray as big-endian ``dtype`` bytes, or ``None``.

    ``None`` means the bulk cast cannot be proven byte-identical to the
    per-element ``struct.pack`` walk *including its errors* — integer
    values outside the target range (struct raises the canonical range
    error), float→int conversions (the scalar loop owns truncation and
    NaN/inf errors), or finite doubles overflowing float32.  The caller
    must then fall back to its scalar encoder.
    """
    if _np is None:
        return None
    target = _np.dtype(dtype)
    kind = values.dtype.kind
    if target.kind == "i":
        if kind == "f":
            return None
        info = _np.iinfo(target)
        if values.size and (int(values.min()) < info.min
                            or int(values.max()) > info.max):
            return None
        return values.astype(target).tobytes()
    if target.kind == "f":
        data = values.astype(target)
        if target.itemsize < 8 and kind == "f" and values.size \
                and bool((_np.isinf(data) & _np.isfinite(values)).any()):
            return None
        return data.tobytes()
    return None


def blocks_equal(a: DenseBlock, b: DenseBlock) -> bool:
    """Elementwise equality of two same-shape, same-tag blocks."""
    return bool(_np.array_equal(a.data, b.data))


def compare_blocks(a: DenseBlock, b: DenseBlock) -> Optional[int]:
    """First-difference comparison of two same-shape, same-tag blocks.

    Returns -1/0/+1 in row-major element order, or ``None`` when a NaN
    is present (NaN comparisons are not total, so the caller must fall
    back to the scalar path for exact seed semantics).
    """
    x = a.data.ravel()
    y = b.data.ravel()
    if a.tag == TAG_REAL and (bool(_np.isnan(x).any())
                              or bool(_np.isnan(y).any())):
        return None
    diff = x != y
    if not bool(diff.any()):
        return 0
    i = int(diff.argmax())
    return -1 if bool(x[i] < y[i]) else 1


__all__ = [
    "DenseBlock", "DenseCounters", "COUNTERS", "INT_GUARD",
    "TAG_INT", "TAG_REAL", "TAG_BOOL", "KIND_CHARS",
    "available", "is_ndarray", "int_dtype",
    "adopt", "probe_block", "materialize",
    "decode_bytes", "encode_ndarray",
    "blocks_equal", "compare_blocks",
]
