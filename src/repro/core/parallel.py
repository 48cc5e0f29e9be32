"""Sharded parallel execution of tabulation and Σ.

The paper's array constructs are *functions over rectangular index
domains*: a ``Tabulate`` applies its defining function independently at
every index, and ``Σ`` folds a body over ``canonical_elements`` of its
source.  Both are embarrassingly parallel — this module partitions a
tabulation domain into contiguous ranges of *flattened row-major cells*
(the block tiling of "An Array Algebra": the index along axis ``a`` of
flat position ``p`` is ``(p // stride_a) % extent_a``, so skewed shapes
like ``(2, 500000)`` still yield ``workers`` balanced shards) and a Σ
source into contiguous slices of its canonical element list, executes
the shards on a worker pool, and merges results back **in index order**
so the output is bit-identical to the serial loop.

One backend, one transport — the configuration that has won a
measurement (``docs/PARALLEL.md`` has the grid that deleted the thread
backend, the boxed pickle wire format and kernels fused into shards):

* **workers** are forked processes, one cached pool per worker count.
  Each compiles the shipped body AST against the shipped bindings with
  a serial ``Compiler`` and runs the scalar shard loop (``_cells`` for a
  tabulation's cell range, ``_slice`` for a Σ's element range), so a
  probed dispatch counts exactly what the serial loop counts.
* **operands** — an :class:`~repro.objects.array.Array` binding with a
  dense block of at least ``SHM_MIN_BYTES`` is copied *once* into a
  ``multiprocessing.shared_memory`` segment every shard references by
  name and adopts as a **read-only view** (``shm_copies_avoided``);
  smaller blocks ride the pickled payload as a raw buffer.  A Σ's
  element list is probed into one segment each worker slices.
* **results** — the parent pre-creates one output slab (8 bytes per
  cell); each worker writes its values as int64/float64 (bools travel
  as int64) into its own region and the parent adopts the slab as the
  result's backing block, or folds it.  An unprobed Σ over an int
  element slab with a kernel-shaped body instead returns one exact
  partial sum per shard (``"vsum"``, under the ``INT_GUARD`` proof of
  :func:`repro.core.kernels.execute_elements`).

A kernel-shaped *tabulation* never comes here: the serial numpy kernel
beats any split of it, so ``Compiler`` runs :func:`kernels.execute` in
the parent whatever ``workers`` is.

Discipline (same proof-or-fallback contract as :mod:`repro.core.kernels`):

* Every entry point returns the finished value or ``None``; ``None``
  means "run the scalar loop".  There is no degraded transport: a
  platform without ``fork``, shared memory or numpy (or with the dense
  store off) makes :func:`available` false, and a dispatch declines
  *before anything is pickled* when the probe is foreign, a free
  variable is unbound, the body calls a primitive, an ``Array`` operand
  has no dense block, a Σ's elements are not scalars of one kind, or a
  segment cannot be created.
* **Scalar cells only**: a worker checks the *first* value of its range
  and fails the shard unless it is an ``int``, ``float`` or ``bool``,
  so a tuple- or set-valued body costs one hand-off, not a full
  evaluation shipped back by pickle.  Finished values the slab cannot
  represent (ints past the 2^62 guard, mixed kinds) fail the shard too.
* **Strict ⊥ and error identity**: when any shard fails (⊥ or
  otherwise) *all* parallel work — worker probe counters and every
  shared-memory segment included — is discarded, and the caller's
  serial loop reruns the whole construct.  The rerun raises exactly the
  error a serial evaluation always raised (same reason, same probe
  counts), so failure semantics cannot drift.
* **Float-exact Σ**: workers return their slice's body *values*, never
  float partial sums; the parent folds every value left-to-right in
  canonical order, which float addition's non-associativity demands.
* **Probe exactness**: counters are single-writer (see
  :mod:`repro.obs.metrics`): each worker counts into a fresh
  ``EvalMetrics`` and the parent merges the finished workers in shard
  order, only once every shard has succeeded.  A parent probe of any
  other class declines the dispatch.

Segment lifecycle: the parent creates, forked workers attach (sharing
the parent's resource tracker, so no extra registration to undo), and
the parent unlinks in a ``finally`` on **every** exit path, success or
strict-⊥ discard alike.  ``shm_live_segments()`` exposes the live count
for leak assertions; an atexit backstop unlinks stragglers.  The probe
counters ``shm_segments`` / ``shm_bytes`` / ``shards_zero_copy`` record
each successful dispatch's transport economy (``docs/OBSERVABILITY.md``).

``REPRO_NO_PARALLEL=1`` disables every dispatch unconditionally, and so
does ``REPRO_NO_DENSE=1`` (no dense blocks, nothing to ship).
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import pickle
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ast, kernels
from repro.core.fastpath import DispatchConfig
from repro.objects import dense
from repro.objects.array import Array

try:  # numpy is optional; without it there is no slab to write
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None

try:  # forked workers attaching named segments: both or neither
    import multiprocessing
    from multiprocessing import shared_memory as _shm_mod

    _FORK = "fork" in multiprocessing.get_all_start_methods()
except Exception:  # pragma: no cover - platforms without shm
    _shm_mod = None
    _FORK = False

#: kill switch — mirrors ``kernels.ENABLED`` / ``REPRO_NO_VECTORIZE``
ENABLED = os.environ.get("REPRO_NO_PARALLEL", "") != "1"

#: operand arrays below this many bytes ride the pickled payload — a
#: segment costs a file descriptor and two syscalls, so tiny payloads
#: are cheaper to copy (one OS page is the natural floor)
SHM_MIN_BYTES = 4096

#: how long ``shutdown_pools`` waits for process workers to exit before
#: escalating to ``terminate()`` and then ``kill()`` — a wedged worker
#: must never hang interpreter exit
SHUTDOWN_GRACE = 2.0


def _worker_config(config: DispatchConfig) -> DispatchConfig:
    """The parent's tuning with sharding turned off.

    Workers must never re-shard (a saturated pool would deadlock), but
    every other dispatch decision — the vectorization floor, the
    set-engine switch — must match the parent's, or a sharded run's
    nested tabulations and group-bys would take different paths (and
    report different counters) than the serial run they must agree
    with.
    """
    return DispatchConfig(min_cells=config.min_cells, workers=0,
                          setops=config.setops)


def transport_on() -> bool:
    """Can shards run at all: ``fork``, shared memory, numpy, and the
    dense store on (with ``REPRO_NO_DENSE=1`` there are no blocks to
    ship and no slab to adopt)."""
    return (_FORK and _shm_mod is not None and _np is not None
            and dense.store_enabled())


def available(config: Optional[DispatchConfig]) -> bool:
    """Can a parallel dispatch be attempted under ``config`` at all?

    The cells floor
    (:meth:`~repro.core.fastpath.DispatchConfig.wants_shards`) is the
    *caller's* gate; this checks everything else.
    """
    return (
        ENABLED
        and config is not None
        and config.workers > 1
        and transport_on()
    )


def split(extent: int, shards: int) -> List[Tuple[int, int]]:
    """Partition ``range(extent)`` into ≤ ``shards`` contiguous, balanced,
    non-empty ``(lo, hi)`` runs, in index order."""
    shards = min(shards, extent)
    if shards <= 0:
        return []
    base, extra = divmod(extent, shards)
    out = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


# -- worker pools -----------------------------------------------------------

_POOLS: Dict[int, Any] = {}
_POOL_LOCK = threading.Lock()


def _get_pool(workers: int):
    """The cached forked pool of ``workers`` processes, or ``None``.

    Pools are lazily created and reused across dispatches so process
    forking is paid once per worker count, not once per tabulation —
    the serving path runs many queries against one warm pool.
    """
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"))
            except (ImportError, ValueError, OSError):
                return None  # no fork on this platform -> serial fallback
            _POOLS[workers] = pool
        return pool


def _evict_pool(workers: int) -> None:
    """Drop (and shut down) a pool that broke mid-dispatch."""
    with _POOL_LOCK:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def shutdown_pools(grace: float = SHUTDOWN_GRACE) -> None:
    """Shut down every cached pool without ever hanging (atexit, tests).

    ``shutdown(wait=True)`` would join worker processes indefinitely —
    one wedged worker (stuck in a native call, ignoring SIGTERM) then
    hangs interpreter exit.  Instead: cancel pending futures, stop the
    executors without waiting, give the workers ``grace`` seconds
    *total* to finish, then escalate ``terminate()`` → ``kill()``.
    """
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        # grab the worker handles *before* shutdown() drops its
        # ``_processes`` dict, or there would be nothing to escalate on
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if isinstance(procs, dict) else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        deadline = time.monotonic() + grace
        for proc in processes:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
        for proc in processes:
            if proc.is_alive():
                try:
                    proc.terminate()
                except Exception:
                    pass
        for proc in processes:
            if proc.is_alive():
                try:
                    proc.join(0.5)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(0.5)
                except Exception:
                    pass


def _run_shards(blob: bytes, shards: Sequence[Tuple[int, int]],
                workers: int) -> Optional[List[tuple]]:
    """One task per shard on the warm pool; the outcomes in shard order,
    or ``None`` if any shard failed.

    Every future is awaited even after a failure (shard inputs are
    immutable, so letting running shards finish is safe, and nothing
    still writes the slab once the caller unlinks it); a broken pool is
    evicted so the next dispatch gets a fresh one instead of failing
    forever.
    """
    pool = _get_pool(workers)
    if pool is None:
        return None
    try:
        futures = [pool.submit(_process_worker, blob, lo, hi)
                   for lo, hi in shards]
    except Exception:
        _evict_pool(workers)
        return None
    outcomes: List[tuple] = []
    for future in futures:
        try:
            outcomes.append(future.result())
        except Exception:
            outcomes.append(("err",))
            for other in futures:
                other.cancel()
    if getattr(pool, "_broken", False):
        _evict_pool(workers)
    if any(outcome[0] == "err" for outcome in outcomes):
        return None
    return outcomes


# -- shared-memory segments -------------------------------------------------

_SHM_SEQ = itertools.count()
_LIVE_SEGMENTS: Dict[str, Any] = {}
_SHM_LOCK = threading.Lock()


def _shm_create(nbytes: int, segments: Optional[list] = None):
    """Create one tracked segment of ``nbytes`` bytes, or ``None``.

    The name carries a ``repro_shm_`` prefix plus pid so leak checks
    can spot stragglers in ``/dev/shm``; the live registry backs the
    :func:`shm_live_segments` assertion the test suite runs.  A created
    segment is appended to ``segments`` so the caller's ``finally`` can
    release it on every exit path.
    """
    if not transport_on() or nbytes <= 0:
        return None
    name = f"repro_shm_{os.getpid()}_{next(_SHM_SEQ)}"
    try:
        seg = _shm_mod.SharedMemory(name=name, create=True, size=nbytes)
    except Exception:
        return None
    with _SHM_LOCK:
        _LIVE_SEGMENTS[seg.name] = seg
    if segments is not None:
        segments.append(seg)
    return seg


def _shm_release(seg) -> None:
    """Close and unlink one parent-created segment (idempotent)."""
    with _SHM_LOCK:
        _LIVE_SEGMENTS.pop(seg.name, None)
    try:
        seg.close()
    except Exception:
        pass
    try:
        seg.unlink()
    except Exception:
        pass


def shm_live_segments() -> int:
    """How many parent-created segments are currently live.

    Zero whenever no dispatch is in flight — the test suite asserts
    this after every test, and CI checks ``/dev/shm`` stays clean.
    """
    with _SHM_LOCK:
        return len(_LIVE_SEGMENTS)


def shm_unlink_all() -> None:
    """Release every live segment (atexit backstop, test isolation)."""
    with _SHM_LOCK:
        segments = list(_LIVE_SEGMENTS.values())
    for seg in segments:
        _shm_release(seg)


def _shm_attach(name: str):
    """Attach an existing segment by name (worker side).

    Workers are forked, so they share the parent's resource-tracker
    process: the attach-side registration lands in the same name set
    the parent's create already populated, and the parent's ``unlink``
    retires it exactly once.  (A spawn-context pool would need an
    explicit ``resource_tracker.unregister`` here to avoid a second
    tracker claiming the name — the pool factory only ever uses fork.)
    """
    return _shm_mod.SharedMemory(name=name)


def _tag_dtype(tag: str):
    """The natural numpy dtype of a dense-block tag."""
    if tag == dense.TAG_REAL:
        return _np.float64
    if tag == dense.TAG_BOOL:
        return _np.bool_
    return _np.int64


def _slab_dtype(tag: str):
    """The 8-byte output-slab dtype for a tag (bools travel as int64)."""
    return _np.float64 if tag == dense.TAG_REAL else _np.int64


def _copy_into(seg, data) -> None:
    """Copy a contiguous ndarray into the head of a segment's buffer."""
    view = _np.frombuffer(seg.buf, dtype=data.dtype, count=data.size)
    try:
        view[:] = data.ravel()
    finally:
        del view


def _slab_view(seg, tag: str, count: int):
    """The first ``count`` slab cells as their boxed-kind ndarray (a
    copy for bools, which travel as int64)."""
    view = _np.frombuffer(seg.buf, dtype=_slab_dtype(tag), count=count)
    return view.astype(_np.bool_) if tag == dense.TAG_BOOL else view


def _atexit_cleanup() -> None:
    """Bounded pool shutdown plus segment unlink, in that order."""
    shutdown_pools()
    shm_unlink_all()


atexit.register(_atexit_cleanup)


# -- the shard loops (worker side) ------------------------------------------


def _unflatten(pos: int, extents: Sequence[int]) -> List[int]:
    """The row-major index vector of flat cell ``pos`` — the inverse of
    "An Array Algebra" block addressing: axis ``a`` of ``pos`` is
    ``(pos // stride_a) % extent_a``."""
    index = [0] * len(extents)
    for axis in range(len(extents) - 1, -1, -1):
        extent = extents[axis]
        index[axis] = pos % extent
        pos //= extent
    return index


def _scalar(value: Any) -> Any:
    """``value`` if the output slab can carry it, else fail the shard."""
    if type(value) not in (int, float, bool):
        raise TypeError("shard body is not scalar-valued")
    return value


def _cells(body, env: List[Any], extents: Sequence[int],
           lo: int, hi: int) -> list:
    """Body values at flat row-major cells ``lo..hi`` of the tabulation
    domain (``lo < hi <= total``) — exactly the cells the serial loop
    would produce at those positions, with an odometer walking the
    index vector.  ``body`` is compiled code over ``env`` extended by
    the index."""
    extents = list(extents)
    last = len(extents) - 1
    # one frame per shard (this call), its tail slots the odometer
    depth = len(env)
    frame = env + _unflatten(lo, extents)
    values = [_scalar(body(frame))]
    for _ in range(lo + 1, hi):
        axis = last
        while True:
            frame[depth + axis] += 1
            if frame[depth + axis] < extents[axis]:
                break
            frame[depth + axis] = 0
            axis -= 1
        values.append(body(frame))
    return values


def _slice(body, env: List[Any], elements: Sequence[Any]) -> list:
    """Body values for ``elements`` (non-empty), in order."""
    frame = env + [elements[0]]
    values = [_scalar(body(frame))]
    for element in itertools.islice(elements, 1, None):
        frame[-1] = element
        values.append(body(frame))
    return values


def _slab_write(seg_name: str, lo: int, hi: int, values: list) -> tuple:
    """Write a shard's values into cells ``lo..hi`` of the output slab.

    Probes the values dense and writes them as int64/float64 (bools as
    int64); returns ``(tag, lo, hi)`` with the probe's integer bounds
    (``None`` bounds for real/bool).  Values that are not
    dense-representable fail the shard.
    """
    block = dense.probe_block(values, (hi - lo,))
    if block is None:
        raise TypeError("shard values are not slab-representable")
    seg = _shm_attach(seg_name)
    try:
        dtype = _slab_dtype(block.tag)
        view = _np.frombuffer(seg.buf, dtype=dtype)
        try:
            view[lo:hi] = block.data.astype(dtype, copy=False)
        finally:
            del view
    finally:
        seg.close()
    return (block.tag, block.lo, block.hi)


#: segments this worker process mapped for the task being returned.
#: The operand Arrays and element views built over the mapped buffers
#: are still referenced while ``_process_worker`` unwinds, and a
#: segment with exported views cannot be closed — so mappings stay open
#: across the return and are drained at the next task's entry.  The
#: parent's unlink is unaffected (names retire immediately); a warm
#: worker merely keeps one task's mappings until its next task or exit.
_WORKER_SEGMENTS: List[Any] = []


def _drain_worker_segments() -> None:
    """Close the previous task's mappings (see ``_WORKER_SEGMENTS``)."""
    while _WORKER_SEGMENTS:
        seg = _WORKER_SEGMENTS.pop()
        try:
            seg.close()
        except Exception:
            # an exported view not yet collected: the mapping lives
            # until process exit, which the OS cleans up
            pass


def _map(seg_name: str, tag: str, count: int):
    """A read-only ndarray view of ``count`` ``tag`` cells of a mapped
    segment, held open until the next task (``_WORKER_SEGMENTS``)."""
    seg = _shm_attach(seg_name)
    _WORKER_SEGMENTS.append(seg)
    data = _np.frombuffer(seg.buf, dtype=_tag_dtype(tag), count=count)
    data.flags.writeable = False
    return data


def _vec_sum_slice(expr: ast.Sum, bound: Dict[str, Any], elements,
                   count: int, elo, ehi) -> Optional[tuple]:
    """Vectorized partial Σ over this shard's element slice (worker).

    ``(partial,)`` — an exact int — or ``None`` for the scalar fold.
    The global bounds ``elo``/``ehi`` and total ``count`` make the
    overflow guard (and every other proof-based decline) identical
    across shards (:func:`repro.core.kernels.execute_elements`).
    """
    if not kernels.available():
        return None
    kernel = kernels.recognize_sum(expr)
    if kernel is None:
        return None
    try:
        inputs = [
            bound[leaf.name] if isinstance(leaf, ast.Var) else leaf.value
            for leaf in kernel.inputs
        ]
    except KeyError:  # an unbound name — the scalar fold raises it
        return None
    return kernels.execute_elements(kernel, elements, (elo, ehi), count,
                                    inputs)


def _process_worker(blob: bytes, lo: int, hi: int):
    """Runs in the child: evaluate shard ``lo..hi``, never raise through
    pickle.

    Returns ``("shm", tag, lo, hi, probe)`` (scalar values written into
    the output slab, with their int bounds), ``("vsum", partial,
    probe)`` (vectorized exact partial Σ), or ``("err",)`` — errors are
    reported as data so exotic exception types never have to survive a
    pickle round-trip; the parent's serial rerun reproduces them.
    """
    from repro.core.compile import Compiler

    _drain_worker_segments()
    try:
        payload = pickle.loads(blob)
        # the parent's kill-switch state wins over whatever state this
        # (possibly long-lived, possibly stale) worker forked with
        kernels.ENABLED = payload["vectorize_on"]
        probe = None
        if payload["probed"]:
            from repro.obs.metrics import EvalMetrics

            probe = EvalMetrics()
        bound: Dict[str, Any] = dict(payload["bindings"])
        for name, seg_name, tag, dims in payload["shm_bindings"]:
            data = _map(seg_name, tag, math.prod(dims))
            bound[name] = Array(dims, data.reshape(dims))
        if probe is not None and payload["shm_bindings"]:
            probe.on_shm_copies_avoided(len(payload["shm_bindings"]))
        worker = Compiler({}, probe=probe, parallel=payload["config"])
        expr = payload["expr"]
        scope = tuple(bound)
        env = list(bound.values())
        if isinstance(expr, ast.Tabulate):
            body = worker.compile(expr.body, scope + expr.vars)
            values = _cells(body, env, payload["extents"], lo, hi)
        else:
            seg_name, tag, count, elo, ehi = payload["elements"]
            elements = _map(seg_name, tag, count)[lo:hi]
            if payload["kernel"]:
                partial = _vec_sum_slice(expr, bound, elements, count,
                                         elo, ehi)
                if partial is not None:
                    return ("vsum", partial[0], probe)
            body = worker.compile(expr.body, scope + (expr.var,))
            values = _slice(body, env, elements.tolist())
        return ("shm",) + _slab_write(payload["out"], lo, hi, values) \
            + (probe,)
    except BaseException:
        return ("err",)


# -- dispatch (parent side) -------------------------------------------------


def _scope_bindings(expr, scope: Tuple[str, ...],
                    env: List[Any]) -> Optional[List[Tuple[str, Any]]]:
    """Free-variable bindings of ``expr.body`` from a compiled env list
    (innermost occurrence of a shadowed name wins); ``None`` if any is
    unbound (the serial loop raises the canonical error for that)."""
    bound = set(expr.vars) if isinstance(expr, ast.Tabulate) else {expr.var}
    needed = ast.free_vars(expr.body) - bound
    latest: Dict[str, Any] = {}
    for name, value in zip(scope, env):
        if name in needed:
            latest[name] = value
    if len(latest) < len(needed):
        return None
    return list(latest.items())


def _contains_prim(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Prim):
        return True
    return any(_contains_prim(child) for child in expr.children())


def _probed(probe) -> Optional[bool]:
    """Whether the children should count into an
    :class:`~repro.obs.metrics.EvalMetrics`; ``None`` declines the
    dispatch.  Children always report through ``EvalMetrics`` (arbitrary
    probe objects do not survive pickling), so a parent probe of any
    other class opts out rather than receive foreign counters."""
    if probe is None:
        return False
    from repro.obs.metrics import EvalMetrics

    return True if type(probe) is EvalMetrics else None


def _export_bindings(bindings, segments: list):
    """Split bindings into pickled ones and shared-memory references,
    or ``None`` to decline.

    An Array binding with a dense block of at least ``SHM_MIN_BYTES``
    is copied once into a segment that every shard references by name;
    a smaller block pickles as its raw buffer (``Array.__reduce__``).
    An Array with *no* dense block declines: shipping it means one
    object pickle per element, which loses to the serial loop.  Returns
    ``(plain_bindings, shm_refs)`` where each ref is
    ``(name, segment, tag, dims)``.
    """
    plain: List[Tuple[str, Any]] = []
    refs: List[Tuple[str, str, str, tuple]] = []
    for name, value in bindings:
        if isinstance(value, Array):
            block = value.dense_block()
            if block is None:
                return None
            if block.data.nbytes >= SHM_MIN_BYTES:
                seg = _shm_create(block.data.nbytes, segments)
                if seg is None:
                    return None
                _copy_into(seg, block.data)
                refs.append((name, seg.name, block.tag, value.dims))
                continue
        plain.append((name, value))
    return plain, refs


def _stitch_tabulate(outcomes, out_seg, extents, total) -> Optional[Array]:
    """The output slab as the result's dense backing, in one copy (the
    segment is about to be unlinked, so the buffer cannot be viewed in
    place); ``None`` when the shards disagree on the cell kind — the
    serial loop then builds the boxed mixed-kind array."""
    tags = {outcome[1] for outcome in outcomes}
    if len(tags) != 1:
        return None
    data = _slab_view(out_seg, tags.pop(), total).copy()
    return Array(extents, data.reshape(tuple(extents)))


def _fold_sum(outcomes, out_seg, count) -> Optional[tuple]:
    """Fold shard Σ outcomes in canonical order; ``(total,)`` or ``None``.

    ``"vsum"`` partials are exact ints under a shard-global guard, so
    they come from every shard or none (a mix is a protocol anomaly —
    rerun serially).  An all-integer slab sums vectorized when the
    ``INT_GUARD`` bound proves int64 accumulation cannot overflow
    (integer addition is associative, so the result is the serial
    fold's exactly); anything else folds boxed left-to-right,
    preserving the serial fold's non-associative float rounding
    bit-for-bit.
    """
    kinds = {outcome[0] for outcome in outcomes}
    if kinds == {"vsum"}:
        return (sum(outcome[1] for outcome in outcomes),)
    tags = {outcome[1] for outcome in outcomes}
    if kinds != {"shm"} or len(tags) != 1:
        return None
    tag = tags.pop()
    view = _slab_view(out_seg, tag, count)
    try:
        if tag == dense.TAG_INT:
            maxabs = max(max(abs(outcome[2]), abs(outcome[3]))
                         for outcome in outcomes)
            if count * maxabs <= dense.INT_GUARD:
                return (int(view.sum()),)
        values = view.tolist()
    finally:
        del view
    total: Any = 0
    for value in values:  # canonical order: float-exact vs serial
        total = total + value
    return (total,)


def _dispatch(compiler, expr, scope: Tuple[str, ...], env: List[Any],
              cells: int, extents=None, elements=None):
    """Shard ``expr`` — a tabulation over ``extents`` or a Σ over
    ``elements`` — across the pool; the finished value (an ``Array``,
    or ``(total,)`` for Σ) or ``None`` for the serial loop.

    The payload is pickled once and every shard task carries only its
    flat ``(lo, hi)`` range, which names both its input cells/elements
    and its region of the output slab.
    """
    config = compiler.parallel
    shards = split(cells, config.workers)
    probe = compiler.probe
    probed = _probed(probe)
    bindings = _scope_bindings(expr, scope, env)
    if len(shards) < 2 or probed is None or bindings is None \
            or _contains_prim(expr.body):
        return None
    segments: List[Any] = []
    try:
        exported = _export_bindings(bindings, segments)
        if exported is None:
            return None
        elements_ref, kernel_sum = None, False
        if elements is not None:
            block = dense.probe_block(elements, (cells,))
            seg = None if block is None else \
                _shm_create(block.data.nbytes, segments)
            if seg is None:
                return None
            _copy_into(seg, block.data)
            elements_ref = (seg.name, block.tag, cells, block.lo, block.hi)
            # serial Σ runs its body per element, so a vectorized shard
            # would report different counters than a probed serial run
            kernel_sum = (not probed and block.tag == dense.TAG_INT
                          and kernels.available()
                          and kernels.recognize_sum(expr) is not None)
        out_seg = _shm_create(cells * 8, segments)
        if out_seg is None:
            return None
        try:
            blob = pickle.dumps({
                "expr": expr,
                "bindings": exported[0],
                "shm_bindings": exported[1],
                "extents": None if extents is None else list(extents),
                "elements": elements_ref,
                "out": out_seg.name,
                "kernel": kernel_sum,
                "probed": probed,
                "config": _worker_config(config),
                "vectorize_on": kernels.ENABLED,
            })
        except Exception:
            return None
        outcomes = _run_shards(blob, shards, config.workers)
        if outcomes is None:
            return None
        if elements is None:
            result = _stitch_tabulate(outcomes, out_seg, extents, cells)
        else:
            result = _fold_sum(outcomes, out_seg, cells)
        if result is not None and probe is not None:
            for outcome in outcomes:  # shard order
                probe.merge(outcome[-1])
            probe.on_parallel(len(shards), cells)
            probe.on_shm(len(segments), sum(seg.size for seg in segments),
                         sum(1 for outcome in outcomes
                             if outcome[0] == "shm"))
            if elements is None:
                probe.on_cells(cells)
        return result
    finally:
        # every exit path — success, shard ⊥, broken pool — unlinks
        for seg in segments:
            _shm_release(seg)


def shard_tabulate(compiler, expr: ast.Tabulate, scope: Tuple[str, ...],
                   env: List[Any], extents: Sequence[int],
                   total: int) -> Optional[Array]:
    """Sharded scalar tabulation, or ``None`` for the serial loop."""
    return _dispatch(compiler, expr, scope, env, total, extents=extents)


def shard_sum(compiler, expr: ast.Sum, scope: Tuple[str, ...],
              env: List[Any], elements: Sequence[Any]) -> Optional[Tuple[Any]]:
    """Sharded Σ: ``(total,)`` on success, else ``None``.

    The 1-tuple distinguishes a computed total (which may itself be 0 or
    any falsy value) from the fallback signal.
    """
    return _dispatch(compiler, expr, scope, env, len(elements),
                     elements=elements)


__all__ = [
    "ENABLED", "SHM_MIN_BYTES", "SHUTDOWN_GRACE",
    "available", "transport_on", "split", "shutdown_pools",
    "shm_live_segments", "shm_unlink_all",
    "shard_tabulate", "shard_sum",
]
