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

Fused shard-kernel execution (docs/PARALLEL.md, docs/VECTOR_BACKEND.md):
when the parent recognizes a tabulation body as a numpy kernel
(:func:`repro.core.kernels.recognize`), process shards skip the scalar
loop entirely — each worker runs
:func:`~repro.core.kernels.execute_range` over its cell range against
the *mapped* operand segments and writes the result ndarray straight
into its slice of the parent's output slab (outcome ``"vec"``).  Decline
proofs are evaluated against full-domain index bounds so they are
identical in every shard; the only shard-local declines imply a ⊥ cell,
whose scalar fallback raises and reruns the construct serially.
Unprobed Σ over an int element slab gets the analogous treatment:
workers fold their slice vectorized under the ``INT_GUARD`` overflow
proof and return exact partial sums (outcome ``"vsum"``).

Discipline (same proof-or-fallback contract as :mod:`repro.core.kernels`):

* Every entry point returns the finished value or ``None``; ``None``
  means "run the scalar loop" and is the answer whenever parallel
  execution cannot *prove* it reproduces serial results — pool
  unavailable, probe unforkable, payload unpicklable, or any shard
  raising anything at all.
* **Strict ⊥ and error identity**: when any shard fails (⊥ or
  otherwise) the remaining shards are cancelled best-effort, *all*
  parallel work — including worker probe counters and every
  shared-memory segment — is discarded, and the caller's serial loop
  reruns the whole construct.  The serial rerun raises exactly the
  error a serial evaluation always raised (same reason, same probe
  counts), so failure semantics cannot drift.
* **Float-exact Σ**: workers return their slice's body *values*, never
  partial sums; the parent folds every value left-to-right in canonical
  order.  Float addition is non-associative, so merging partial sums
  would change low bits — folding serially over parallel-computed
  values cannot.  (Integer slabs may be summed vectorized: integer
  addition is associative, and the ``INT_GUARD`` overflow check keeps
  the int64 accumulation exact.)
* **Probe exactness**: counters are single-writer (see
  :mod:`repro.obs.metrics`), so each worker reports into a private
  probe from ``probe.fork()`` and the parent merges the finished
  workers back in shard order.  A probe that cannot fork opts out of
  parallelism entirely.

Backends: ``"thread"`` shares the interpreter (no pickling, no copies;
the GIL serializes pure-Python bodies, so it helps only when bodies
release the GIL, e.g. numpy-heavy primitives) and ``"process"`` forks
true CPU-parallel workers that compile the shipped shard body against
shipped bindings and run the same shard loop the thread tasks run (a
worker that cannot reconstruct the body — native primitives in scope,
unpicklable values — fails its shard and the whole construct falls
back to serial).  Either way the worker's counters come from the same
code generator as the parent's, so a probed dispatch is served like an
unprobed one.

Shared-memory transport (the process backend's wire format)
-----------------------------------------------------------

Process shards used to pickle one boxed Python object per element in
both directions, which made workers *lose* to serial on exactly the
large inputs they exist for.  Dense-representable data now travels as
``multiprocessing.shared_memory`` segments instead:

* **payloads** — an operand :class:`~repro.objects.array.Array` with a
  dense block of at least ``SHM_MIN_BYTES`` is exported *once* into a
  segment and referenced by name from every shard (instead of being
  re-pickled per shard), and a Σ's scalar element list is probed into
  one segment each worker slices by ``(lo, hi)``.  Workers adopt the
  mapped operands as **read-only views** — no defensive copy-out; the
  segments stay mapped for the evaluation's lifetime (and past the
  return, since boxed results may alias them — see
  ``_WORKER_SEGMENTS``), and each avoided copy is counted into the
  worker probe's ``shm_copies_avoided``;
* **results** — the parent pre-creates one output slab (8 bytes per
  cell), each worker probes its boxed shard values dense
  (:func:`~repro.objects.dense.probe_block`) and writes them directly
  into its mapped region as int64/float64 (bools travel as int64), and
  the parent stitches the slab into one backing ndarray with no
  per-element boxing.  A shard whose values are not dense-representable
  returns boxed values through pickle as before, and the parent boxes
  the neighbouring slab regions to match — mixed outcomes degrade,
  they never fail.

Segment lifecycle: the parent creates, forked workers attach (sharing
the parent's resource tracker, so no extra registration to undo), and
the parent unlinks in a ``finally`` on **every** exit path, success or
strict-⊥ discard alike.  ``shm_live_segments()``
exposes the live count for leak assertions; an atexit backstop unlinks
stragglers.  The probe counters ``shm_segments`` / ``shm_bytes`` /
``shards_zero_copy`` record each successful dispatch's transport
economy (see ``docs/OBSERVABILITY.md``).

``REPRO_NO_PARALLEL=1`` disables every dispatch unconditionally;
``REPRO_NO_SHM=1`` keeps sharding but falls back to the boxed pickle
wire format; ``REPRO_NO_DENSE=1`` implies no shared-memory transport
(there are no dense blocks to ship) *and* is propagated to workers so
a no-dense parent never receives dense-backed shard results.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ast, kernels
from repro.core.fastpath import DispatchConfig
from repro.objects import dense
from repro.objects.array import Array

try:  # numpy is optional; the shm transport degrades to pickle without it
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None

try:
    from multiprocessing import shared_memory as _shm_mod
except Exception:  # pragma: no cover - platforms without shm
    _shm_mod = None

#: kill switch — mirrors ``kernels.ENABLED`` / ``REPRO_NO_VECTORIZE``
ENABLED = os.environ.get("REPRO_NO_PARALLEL", "") != "1"

#: kill switch for the shared-memory wire format only (sharding still
#: runs, over the boxed pickle transport)
SHM_ENABLED = os.environ.get("REPRO_NO_SHM", "") != "1"

#: operand arrays below this many bytes ride the ordinary pickle path —
#: a segment costs a file descriptor and two syscalls, so tiny payloads
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
                          backend=config.backend, setops=config.setops)


#: set while the current *thread* is executing a shard, so nested
#: tabulations inside a shard body take the serial path even on the
#: shared-evaluator thread backend
_WORKER = threading.local()


class _Cancelled(Exception):
    """A shard aborted because a sibling already failed."""


def in_worker() -> bool:
    """Is the current thread executing inside a shard?"""
    return getattr(_WORKER, "active", False)


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
        and not in_worker()
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

_POOLS: Dict[Tuple[str, int], Any] = {}
_POOL_LOCK = threading.Lock()


def _get_pool(backend: str, workers: int):
    """The cached pool for ``(backend, workers)``, or ``None``.

    Pools are lazily created and reused across dispatches so process
    forking is paid once per configuration, not once per tabulation —
    the serving path runs many queries against one warm pool.
    """
    key = (backend, workers)
    with _POOL_LOCK:
        pool = _POOLS.get(key)
        if pool is not None:
            return pool
        if backend == "thread":
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
        elif backend == "process":
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                context = multiprocessing.get_context("fork")
                pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                )
            except (ImportError, ValueError, OSError):
                return None  # no fork on this platform -> serial fallback
        else:
            return None
        _POOLS[key] = pool
        return pool


def _evict_pool(backend: str, workers: int) -> None:
    """Drop (and shut down) a pool that broke mid-dispatch."""
    with _POOL_LOCK:
        pool = _POOLS.pop((backend, workers), None)
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
    executors without waiting, give process workers ``grace`` seconds
    *total* to finish, then escalate ``terminate()`` → ``kill()``.
    Thread workers cannot be killed; their shards observe the cancel
    event and the cancelled futures, so they drain on their own.
    """
    with _POOL_LOCK:
        pools = dict(_POOLS)
        _POOLS.clear()
    for (backend, _workers), pool in pools.items():
        # grab the worker handles *before* shutdown() drops its
        # ``_processes`` dict, or there would be nothing to escalate on
        procs = getattr(pool, "_processes", None)
        processes = list(procs.values()) if isinstance(procs, dict) else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if backend != "process":
            continue
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


def _collect(futures: Sequence[Future], cancel: threading.Event,
             backend: str, workers: int) -> Optional[List[Any]]:
    """Await every shard; any failure cancels the rest and yields ``None``.

    Shards that already run are drained (their inputs are immutable, so
    letting them finish is safe); a broken process pool is evicted so
    the next dispatch gets a fresh one instead of failing forever.
    """
    results: List[Any] = []
    failed = False
    for future in futures:
        try:
            results.append(future.result())
        except BaseException:
            failed = True
            cancel.set()
            for other in futures:
                other.cancel()
            results.append(None)
    if failed:
        if backend == "process":
            pool = _POOLS.get((backend, workers))
            if pool is not None and getattr(pool, "_broken", False):
                _evict_pool(backend, workers)
        return None
    return results


# -- shared-memory segments -------------------------------------------------

_SHM_SEQ = itertools.count()
_LIVE_SEGMENTS: Dict[str, Any] = {}
_SHM_LOCK = threading.Lock()


def _shm_transport_on() -> bool:
    """Can payload/result slabs ride shared memory right now?

    Requires the platform module, numpy, the ``REPRO_NO_SHM`` switch
    off, and the dense store on — with ``REPRO_NO_DENSE=1`` there are
    no blocks to ship and workers must return boxed values anyway.
    """
    return (SHM_ENABLED and _shm_mod is not None and _np is not None
            and dense.store_enabled())


def _shm_create(nbytes: int, segments: Optional[list] = None):
    """Create one tracked segment of ``nbytes`` bytes, or ``None``.

    The name carries a ``repro_shm_`` prefix plus pid so leak checks
    can spot stragglers in ``/dev/shm``; the live registry backs the
    :func:`shm_live_segments` assertion the test suite runs.  A created
    segment is appended to ``segments`` so the caller's ``finally`` can
    release it on every exit path.
    """
    if not _shm_transport_on() or nbytes <= 0:
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
        _LIVE_SEGMENTS.clear()
    for seg in segments:
        try:
            seg.close()
        except Exception:
            pass
        try:
            seg.unlink()
        except Exception:
            pass


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


def _atexit_cleanup() -> None:
    """Bounded pool shutdown plus segment unlink, in that order."""
    shutdown_pools()
    shm_unlink_all()


atexit.register(_atexit_cleanup)


def _fork_probes(probe: Any, count: int) -> Optional[List[Any]]:
    """``count`` private worker probes, or ``None`` if ``probe`` cannot
    be forked/merged (which declines the whole parallel dispatch)."""
    if probe is None:
        return []
    fork = getattr(probe, "fork", None)
    if fork is None or not hasattr(probe, "merge"):
        return None
    probes = []
    for _ in range(count):
        forked = fork()
        if forked is None:
            return None
        probes.append(forked)
    return probes


def _merge_probes(probe: Any, worker_probes: List[Any],
                  shards: int, cells: int) -> None:
    """Fold finished worker probes into the parent, in shard order, and
    record the dispatch itself."""
    if probe is None:
        return
    for worker_probe in worker_probes:
        probe.merge(worker_probe)
    probe.on_parallel(shards, cells)


# -- shard loops and entry points -------------------------------------------


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


def _cells(body, env: List[Any], extents: Sequence[int], lo: int, hi: int,
           cancel: Optional[threading.Event]) -> list:
    """Body values at flat row-major cells ``lo..hi`` of the tabulation
    domain — exactly the cells the serial loop would produce at those
    positions, with an odometer walking the index vector.  ``body`` is
    compiled code over ``env`` extended by the index; thread tasks and
    process workers both run this loop."""
    values: list = []
    extents = list(extents)
    rank = len(extents)
    # one frame per shard (this call), its tail slots the odometer
    depth = len(env)
    frame = env + _unflatten(lo, extents)
    for _ in range(lo, hi):
        if cancel is not None and cancel.is_set():
            raise _Cancelled()
        values.append(body(frame))
        axis = rank - 1
        while axis >= 0:
            frame[depth + axis] += 1
            if frame[depth + axis] < extents[axis]:
                break
            frame[depth + axis] = 0
            axis -= 1
        if axis < 0:
            break  # walked off the domain: hi was the total
    return values


def _slice(body, env: List[Any], elements: Sequence[Any], lo: int, hi: int,
           cancel: Optional[threading.Event]) -> list:
    """Body values for elements ``lo..hi`` of the canonical order."""
    values: list = []
    frame = env + [None]
    for k in range(lo, hi):
        if cancel is not None and cancel.is_set():
            raise _Cancelled()
        frame[-1] = elements[k]
        values.append(body(frame))
    return values


def _guarded(fn):
    """Run ``fn`` with the worker flag set on this thread."""
    _WORKER.active = True
    try:
        return fn()
    finally:
        _WORKER.active = False


def _run_threads(compiler, body_expr: ast.Expr, body_scope: Tuple[str, ...],
                 body_code, shards, run_shard) -> Optional[List[list]]:
    """Thread-backend driver: one task per shard, each returning
    ``run_shard(body, lo, hi, cancel)``; the parts in shard order, or
    ``None``.

    An unprobed dispatch shares the parent's ``body_code`` (pure
    closures, and the worker flag blocks re-entry).  A probed one
    regenerates the body per shard against a private forked probe, and
    the forks are merged back only once every shard has succeeded.
    """
    from repro.core.compile import Compiler

    config = compiler.parallel
    probe = compiler.probe
    worker_probes = _fork_probes(probe, len(shards))
    if worker_probes is None:
        return None
    pool = _get_pool("thread", config.workers)
    if pool is None:
        return None
    cancel = threading.Event()

    def make_task(position: int, lo: int, hi: int):
        def task():
            body = body_code
            if probe is not None:
                worker = Compiler(compiler.prims,
                                  probe=worker_probes[position],
                                  parallel=_worker_config(config))
                body = worker.compile(body_expr, body_scope)
            return run_shard(body, lo, hi, cancel)

        return task

    futures = [
        pool.submit(_guarded, make_task(position, lo, hi))
        for position, (lo, hi) in enumerate(shards)
    ]
    parts = _collect(futures, cancel, "thread", config.workers)
    if parts is None:
        return None
    cells = shards[-1][1]  # split() tiles range(cells) exactly
    _merge_probes(probe, worker_probes, len(shards), cells)
    return parts


def shard_tabulate(compiler, expr: ast.Tabulate, scope: Tuple[str, ...],
                   body_code, env: List[Any], extents: Sequence[int],
                   total: int) -> Optional[Array]:
    """Sharded scalar tabulation, or ``None`` for the serial loop."""
    config = compiler.parallel
    shards = split(total, config.workers)
    if len(shards) < 2:
        return None
    probe = compiler.probe
    if config.backend == "process":
        return _tabulate_process(expr, _scope_bindings(expr, scope, env),
                                 extents, shards, probe, config)
    parts = _run_threads(
        compiler, expr.body, scope + expr.vars, body_code, shards,
        lambda body, lo, hi, cancel: _cells(body, env, extents, lo, hi,
                                            cancel))
    if parts is None:
        return None
    if probe is not None:
        probe.on_cells(total)
    return Array(extents, [value for part in parts for value in part])


def shard_kernel_tabulate(compiler, expr: ast.Tabulate,
                          scope: Tuple[str, ...], env: List[Any],
                          extents: Sequence[int],
                          total: int) -> Optional[Array]:
    """Fused shard-kernel tabulation, or ``None``.

    Only the process backend fuses: each forked worker runs
    :func:`repro.core.kernels.execute_range` on its own core against
    mapped operand segments.  A thread pool would gain nothing over the
    serial kernel (one numpy call already saturates the process), so
    other backends decline and the caller runs :func:`kernels.execute`
    serially.
    """
    config = compiler.parallel
    if config.backend != "process":
        return None
    shards = split(total, config.workers)
    if len(shards) < 2:
        return None
    return _tabulate_process(expr, _scope_bindings(expr, scope, env), extents,
                             shards, compiler.probe, config, kernel=True)


def shard_sum(compiler, expr: ast.Sum, scope: Tuple[str, ...], body_code,
              env: List[Any], elements: Sequence[Any]) -> Optional[Tuple[Any]]:
    """Sharded Σ: ``(total,)`` on success, else ``None``.

    The 1-tuple distinguishes a computed total (which may itself be 0 or
    any falsy value) from the fallback signal.
    """
    config = compiler.parallel
    count = len(elements)
    shards = split(count, config.workers)
    if len(shards) < 2:
        return None
    if config.backend == "process":
        return _sum_process(expr, _scope_bindings(expr, scope, env),
                            elements, shards, compiler.probe, config)
    parts = _run_threads(
        compiler, expr.body, scope + (expr.var,), body_code, shards,
        lambda body, lo, hi, cancel: _slice(body, env, elements, lo, hi,
                                            cancel))
    if parts is None:
        return None
    total: Any = 0
    for part in parts:
        for value in part:  # canonical order: float-exact vs serial
            total = total + value
    return (total,)


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


# -- the process backend ----------------------------------------------------
#
# Workers are forked interpreters: the shard body is shipped as the AST
# plus the values of its free variables, and the child compiles it with
# a serial worker Compiler and runs the same shard loop (`_cells` /
# `_slice`) the thread tasks run.  Anything that cannot make the trip —
# native primitives in the body, unpicklable environment values — fails
# the shard, which falls the whole construct back to serial.  Dense data
# rides shared-memory segments (see the module docstring); everything
# else keeps the boxed pickle format, where Array values are probed
# dense first so a block-backed Array's ``__reduce__`` ships its raw
# buffer + dtype tag instead of one object pickle per element.


def _prime_dense(values) -> None:
    """Probe Array values for dense blocks before they hit pickle.

    Idempotent (the probe caches on the instance) and purely an
    encoding optimization: workers rebuild identical values either way.
    Skipped when the store is off so that lane keeps the boxed format.
    """
    if not dense.store_enabled():
        return
    for value in values:
        if isinstance(value, Array):
            value.dense_block()


def _contains_prim(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Prim):
        return True
    return any(_contains_prim(child) for child in expr.children())


def _export_bindings(bindings, segments: list):
    """Split bindings into pickled ones and shared-memory references.

    An Array binding with a dense block of at least ``SHM_MIN_BYTES``
    is copied once into a segment that every shard references by name —
    the pickle path would duplicate the buffer per shard.  Returns
    ``(plain_bindings, shm_refs)`` where each ref is
    ``(name, segment, tag, dims)``.
    """
    if not _shm_transport_on():
        return list(bindings), []
    plain: List[Tuple[str, Any]] = []
    refs: List[Tuple[str, str, str, tuple]] = []
    for name, value in bindings:
        block = value.dense_block() if isinstance(value, Array) else None
        if block is not None and block.data.nbytes >= SHM_MIN_BYTES:
            seg = _shm_create(block.data.nbytes, segments)
            if seg is not None:
                _copy_into(seg, block.data)
                refs.append((name, seg.name, block.tag, value.dims))
                continue
        plain.append((name, value))
    return plain, refs


def _payload(kind: str, expr, plain, shm_binds, config: DispatchConfig,
             probed: bool, extents=None, lo: int = 0, hi: int = 0,
             elements=None, elements_shm=None, out=None,
             kernel: bool = False) -> dict:
    """One shard's wire payload (pickled small; bulk data is in shm).

    ``lo``/``hi`` bound the shard's flat row-major *cell* range for
    tabulations, its element range for Σ.  ``out`` is
    ``(segment_name, cell_lo, cell_hi)`` naming the region of the
    parent's output slab this shard owns, or ``None`` for the boxed
    result format.  ``kernel`` tells the worker the parent recognized
    the body as a numpy kernel — the worker re-derives the spec
    (a cheap AST scan) and attempts vectorized execution before the
    scalar fallback.  ``dense_on``/``vectorize_on`` carry the parent's
    kill-switch state so a warm worker forked under a different
    configuration still takes exactly the paths the parent's own serial
    run would.
    """
    return {
        "kind": kind,
        "expr": expr,
        "bindings": plain,
        "shm_bindings": shm_binds,
        "extents": extents,
        "lo": lo,
        "hi": hi,
        "elements": elements,
        "elements_shm": elements_shm,
        "out": out,
        "kernel": kernel,
        "probed": probed,
        "min_cells": config.min_cells,
        "setops": config.setops,
        "dense_on": dense.STORE_ENABLED,
        "vectorize_on": kernels.ENABLED,
    }


def _slab_write(out, values) -> Optional[tuple]:
    """Write boxed shard values into the mapped output slab (worker side).

    Probes the values dense; on success writes them into the shard's
    region as int64/float64 (bools as int64) and returns
    ``(tag, lo, hi)`` with the probe's integer bounds (``None`` bounds
    for real/bool).  Returns ``None`` — caller ships boxed values —
    when the values are not dense-representable.
    """
    seg_name, cell_lo, cell_hi = out
    if _np is None or len(values) != cell_hi - cell_lo:
        return None
    block = dense.probe_block(values, (len(values),))
    if block is None:
        return None
    seg = _shm_attach(seg_name)
    try:
        dtype = _slab_dtype(block.tag)
        view = _np.frombuffer(seg.buf, dtype=dtype)
        try:
            view[cell_lo:cell_hi] = block.data.ravel().astype(dtype,
                                                              copy=False)
        finally:
            del view
    finally:
        seg.close()
    return (block.tag, block.lo, block.hi)


#: segments this worker process mapped for the task being returned.
#: Boxed shard results may alias the mapped operand buffers (a body can
#: evaluate to the whole operand array, whose backing block is the
#: read-only view) and the pool pickles the return value *after*
#: ``_process_worker`` exits — so segments stay open across the return
#: and are drained at the next task's entry, once the previous result
#: is guaranteed serialized.  The parent's unlink is unaffected (names
#: retire immediately); a warm worker merely keeps one task's mappings
#: until its next task or exit.
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


def _kernel_inputs(kernel, bound: Dict[str, Any]):
    """Resolve kernel input leaves from the worker's rebuilt bindings, or
    ``None`` (an unbound name — the scalar fallback raises it)."""
    try:
        return [
            bound[leaf.name] if isinstance(leaf, ast.Var) else leaf.value
            for leaf in kernel.inputs
        ]
    except KeyError:
        return None


def _vec_shard(payload: dict, bound: Dict[str, Any]) -> Optional[str]:
    """Run the recognized kernel over this shard's cell range (worker).

    Writes the result straight into the shard's slice of the parent's
    output slab and returns the slab tag, or ``None`` to fall back to
    the scalar loop.  Every ``None`` here is either shard-global
    (recognition, dtype, interval proofs — identical in all shards, see
    :func:`repro.core.kernels.execute_range`) or implies a ⊥ cell in
    this shard (so the fallback raises and the parent reruns serially).
    """
    if not kernels.available():
        return None
    kernel = kernels.recognize(payload["expr"])
    if kernel is None:
        return None
    inputs = _kernel_inputs(kernel, bound)
    if inputs is None:
        return None
    lo, hi = payload["lo"], payload["hi"]
    data = kernels.execute_range(kernel, payload["extents"], inputs, lo, hi)
    if data is None:
        return None
    seg_name, cell_lo, cell_hi = payload["out"]
    if data.size != cell_hi - cell_lo:
        return None
    tag = dense.TAG_REAL if data.dtype.kind == "f" else dense.TAG_INT
    seg = _shm_attach(seg_name)
    try:
        view = _np.frombuffer(seg.buf, dtype=_slab_dtype(tag))
        try:
            view[cell_lo:cell_hi] = data
        finally:
            del view
    finally:
        seg.close()
    return tag


def _vec_sum_slice(payload: dict, bound: Dict[str, Any], view, tag: str,
                   count: int, elo, ehi) -> Optional[tuple]:
    """Vectorized partial Σ over this shard's element slice (worker).

    ``(partial,)`` — an exact int — or ``None`` for the boxed scalar
    fold.  Gated to int element slabs; the global bounds ``elo``/``ehi``
    and total ``count`` make the overflow guard (and every other
    proof-based decline) identical across shards
    (:func:`repro.core.kernels.execute_elements`).
    """
    if not kernels.available() or tag != dense.TAG_INT:
        return None
    kernel = kernels.recognize_sum(payload["expr"])
    if kernel is None:
        return None
    inputs = _kernel_inputs(kernel, bound)
    if inputs is None:
        return None
    return kernels.execute_elements(
        kernel, view[payload["lo"]:payload["hi"]], (elo, ehi), count, inputs)


def _process_worker(payload_bytes: bytes):
    """Runs in the child: evaluate one shard, never raise through pickle.

    Returns ``("vec", tag, cell_lo, cell_hi, probe)`` (the kernel ran
    over the shard's cell range, writing the output slab directly),
    ``("vsum", partial, probe)`` (vectorized exact partial Σ),
    ``("shm", tag, lo, hi, probe)`` (scalar values written into the
    output slab), ``("ok", values, probe)`` (boxed result), or
    ``("err",)`` — errors are reported as data so exotic exception
    types never have to survive a pickle round-trip; the parent's
    serial rerun reproduces them.

    Mapped operand segments are adopted as **read-only views** (no
    defensive copy) and held open past the return — see
    ``_WORKER_SEGMENTS``.
    """
    from repro.core.compile import Compiler

    _drain_worker_segments()
    try:
        payload = pickle.loads(payload_bytes)
        # the parent's kill-switch state wins over whatever state this
        # (possibly long-lived, possibly stale) worker forked with
        dense.STORE_ENABLED = payload["dense_on"]
        kernels.ENABLED = payload["vectorize_on"]
        probe = None
        if payload["probed"]:
            from repro.obs.metrics import EvalMetrics

            probe = EvalMetrics()
        bound: Dict[str, Any] = dict(payload["bindings"])
        for name, seg_name, tag, dims in payload["shm_bindings"]:
            seg = _shm_attach(seg_name)
            _WORKER_SEGMENTS.append(seg)
            size = 1
            for dim in dims:
                size *= dim
            data = _np.frombuffer(seg.buf, dtype=_tag_dtype(tag),
                                  count=size).reshape(dims)
            data.flags.writeable = False
            bound[name] = Array(dims, data)
        if probe is not None and payload["shm_bindings"]:
            probe.on_shm_copies_avoided(len(payload["shm_bindings"]))
        worker_cfg = DispatchConfig(min_cells=payload["min_cells"],
                                    workers=0, setops=payload["setops"])
        worker = Compiler({}, probe=probe, parallel=worker_cfg)
        expr = payload["expr"]
        scope = tuple(bound)
        env = list(bound.values())
        if payload["kind"] == "tabulate":
            if payload["kernel"] and payload["out"] is not None:
                tag = _vec_shard(payload, bound)
                if tag is not None:
                    return ("vec", tag, payload["out"][1],
                            payload["out"][2], probe)
            body = worker.compile(expr.body, scope + expr.vars)
            values = _cells(body, env, payload["extents"], payload["lo"],
                            payload["hi"], None)
        elif payload["elements_shm"] is not None:
            seg_name, tag, count, elo, ehi = payload["elements_shm"]
            seg = _shm_attach(seg_name)
            _WORKER_SEGMENTS.append(seg)
            view = _np.frombuffer(seg.buf, dtype=_tag_dtype(tag),
                                  count=count)
            if payload["kernel"]:
                partial = _vec_sum_slice(payload, bound, view, tag, count,
                                         elo, ehi)
                if partial is not None:
                    del view
                    return ("vsum", partial[0], probe)
            try:
                elements = view[payload["lo"]:payload["hi"]].tolist()
            finally:
                del view
            body = worker.compile(expr.body, scope + (expr.var,))
            values = _slice(body, env, elements, 0, len(elements), None)
        else:
            body = worker.compile(expr.body, scope + (expr.var,))
            values = _slice(body, env, payload["elements"], payload["lo"],
                            payload["hi"], None)
        if payload["out"] is not None:
            written = _slab_write(payload["out"], values)
            if written is not None:
                tag, lo_bound, hi_bound = written
                return ("shm", tag, lo_bound, hi_bound, probe)
        return ("ok", values, probe)
    except BaseException:
        return ("err",)


def _run_process_shards(payloads: List[dict],
                        config: DispatchConfig) -> Optional[List[tuple]]:
    """Pickle + dispatch shard payloads; ``None`` on any failure."""
    blobs = []
    try:
        for payload in payloads:
            blobs.append(pickle.dumps(payload))
    except Exception:
        return None
    pool = _get_pool("process", config.workers)
    if pool is None:
        return None
    cancel = threading.Event()  # unused by children; satisfies _collect
    try:
        futures = [pool.submit(_process_worker, blob) for blob in blobs]
    except Exception:
        _evict_pool("process", config.workers)
        return None
    outcomes = _collect(futures, cancel, "process", config.workers)
    if outcomes is None:
        return None
    if any(outcome[0] not in ("ok", "shm", "vec", "vsum")
           for outcome in outcomes):
        return None
    return outcomes


def _probed_for_process(probe) -> Optional[bool]:
    """Whether the child should count into an
    :class:`~repro.obs.metrics.EvalMetrics`; ``None`` declines the
    dispatch.  Children always report through ``EvalMetrics`` (arbitrary
    probe objects do not survive pickling), so a parent probe of any
    other class opts out rather than receive foreign counters."""
    if probe is None:
        return False
    from repro.obs.metrics import EvalMetrics

    if type(probe) is not EvalMetrics:
        return None
    return True


def _stitch_tabulate(outcomes, out_seg, cell_ranges, extents, total):
    """Assemble shard outcomes into ``(Array, zero_copy_count)``.

    ``"vec"`` (kernel-computed) and ``"shm"`` (scalar-computed) shards
    both landed in the output slab and stitch identically.  When every
    shard wrote the slab with one agreed tag, the whole slab becomes
    the result's dense backing in a single copy (the segment is about
    to be unlinked, so the buffer cannot be viewed in place).  Mixed
    outcomes box slab regions back in shard order and interleave them
    with the boxed shards.  ``None`` only on protocol violations,
    which fall back to serial.
    """
    zero_copy = sum(1 for outcome in outcomes
                    if outcome[0] in ("shm", "vec"))
    if zero_copy and out_seg is None:
        return None
    if zero_copy == len(outcomes):
        tags = {outcome[1] for outcome in outcomes}
        if len(tags) == 1:
            tag = tags.pop()
            data = _np.frombuffer(out_seg.buf, dtype=_slab_dtype(tag),
                                  count=total).copy()
            if tag == dense.TAG_BOOL:
                data = data.astype(_np.bool_)
            return Array(extents, data.reshape(tuple(extents))), zero_copy
    values: list = []
    for outcome, (cell_lo, cell_hi) in zip(outcomes, cell_ranges):
        if outcome[0] in ("shm", "vec"):
            view = _np.frombuffer(out_seg.buf, dtype=_slab_dtype(outcome[1]),
                                  count=total)
            try:
                piece = view[cell_lo:cell_hi]
                if outcome[1] == dense.TAG_BOOL:
                    piece = piece.astype(_np.bool_)
                values.extend(piece.tolist())
            finally:
                del view
        else:
            values.extend(outcome[1])
    return Array(extents, values), zero_copy


def _fold_sum(outcomes, out_seg, shards, count) -> Optional[tuple]:
    """Fold shard Σ outcomes in canonical order; ``(total,)`` or ``None``.

    All-integer slabs sum vectorized when the ``INT_GUARD`` bound
    proves int64 accumulation cannot overflow (integer addition is
    associative, so the result is the serial fold's exactly); floats
    always fold boxed left-to-right in shard order, preserving the
    serial fold's non-associative rounding bit-for-bit.
    """
    vsum_count = sum(1 for outcome in outcomes if outcome[0] == "vsum")
    if vsum_count:
        if vsum_count != len(outcomes):
            # decline decisions are shard-global (see execute_elements);
            # a mix means a protocol anomaly — rerun serially
            return None
        total = 0
        for outcome in outcomes:  # exact ints, associative, guarded
            total += outcome[1]
        return (total,)
    shm_count = sum(1 for outcome in outcomes if outcome[0] == "shm")
    if shm_count and out_seg is None:
        return None
    if shm_count == len(outcomes) \
            and all(outcome[1] == dense.TAG_INT for outcome in outcomes):
        maxabs = max((max(abs(outcome[2]), abs(outcome[3]))
                      for outcome in outcomes), default=0)
        if count * maxabs <= dense.INT_GUARD:
            view = _np.frombuffer(out_seg.buf, dtype=_np.int64, count=count)
            try:
                total = int(view.sum())
            finally:
                del view
            return (total,)
    total: Any = 0
    for outcome, (lo, hi) in zip(outcomes, shards):
        if outcome[0] == "shm":
            view = _np.frombuffer(out_seg.buf, dtype=_slab_dtype(outcome[1]),
                                  count=count)
            try:
                piece = view[lo:hi]
                if outcome[1] == dense.TAG_BOOL:
                    piece = piece.astype(_np.bool_)
                boxed = piece.tolist()
            finally:
                del view
            for value in boxed:
                total = total + value
        else:
            for value in outcome[1]:
                total = total + value
    return (total,)


def _tabulate_process(expr: ast.Tabulate, bindings, extents, shards,
                      probe, config: DispatchConfig,
                      kernel: bool = False) -> Optional[Array]:
    """Process-backend tabulation over the shared-memory transport.

    ``shards`` are flat row-major cell ranges (see :func:`split` over
    the domain's total).  With ``kernel=True`` the parent recognized
    the body as a numpy kernel and each worker attempts
    :func:`repro.core.kernels.execute_range` over its range before the
    scalar fallback; shard-global decline proofs guarantee the
    outcomes are all-vectorized or all-scalar, and a mix is treated as
    a protocol anomaly (serial rerun).
    """
    if bindings is None or _contains_prim(expr.body):
        return None
    probed = _probed_for_process(probe)
    if probed is None:
        return None
    total = 1
    for extent in extents:
        total *= extent
    segments: List[Any] = []
    try:
        plain, shm_binds = _export_bindings(bindings, segments)
        _prime_dense(value for _, value in plain)
        out_seg = _shm_create(total * 8, segments)
        if kernel and out_seg is None:
            # no slab to write into (shm transport off/unavailable):
            # decline so the caller's *serial* kernel runs — scalar
            # shards here would report scalar counters for a construct
            # the serial run vectorizes
            return None
        payloads = [
            _payload("tabulate", expr, plain, shm_binds, config, probed,
                     extents=list(extents), lo=lo, hi=hi,
                     out=((out_seg.name, lo, hi)
                          if out_seg is not None else None),
                     kernel=kernel and out_seg is not None)
            for lo, hi in shards
        ]
        outcomes = _run_process_shards(payloads, config)
        if outcomes is None:
            return None
        vec_count = sum(1 for outcome in outcomes if outcome[0] == "vec")
        if vec_count and vec_count != len(outcomes):
            return None  # decline decisions are shard-global; see above
        stitched = _stitch_tabulate(outcomes, out_seg, list(shards),
                                    extents, total)
        if stitched is None:
            return None
        result, zero_copy = stitched
        _merge_probes(probe,
                      [outcome[-1] for outcome in outcomes] if probed else [],
                      len(shards), total)
        if probe is not None:
            if vec_count:
                # mirror the serial kernel's report, so serial-kernel
                # and sharded-kernel runs agree on every shared counter
                probe.on_cells_vectorized(total)
                probe.on_shards_vectorized(vec_count, total)
            else:
                probe.on_cells(total)
            if segments:
                probe.on_shm(len(segments),
                             sum(seg.size for seg in segments), zero_copy)
        return result
    finally:
        # every exit path — success, shard ⊥, broken pool — unlinks
        for seg in segments:
            _shm_release(seg)


def _sum_process(expr: ast.Sum, bindings, elements, shards, probe,
                 config: DispatchConfig) -> Optional[Tuple[Any]]:
    """Process-backend Σ over the shared-memory transport.

    When the parent is unprobed, the element slab is an int block, and
    the body is kernel-shaped, workers attempt the vectorized partial
    fold (``"vsum"`` outcomes — see
    :func:`repro.core.kernels.execute_elements`) before the boxed
    scalar path.  Probed runs never ship the kernel flag: serial Σ
    always runs its body per element, so a vectorized shard would report
    different counters than the serial run it must agree with.
    """
    if bindings is None or _contains_prim(expr.body):
        return None
    probed = _probed_for_process(probe)
    if probed is None:
        return None
    count = len(elements)
    segments: List[Any] = []
    try:
        plain, shm_binds = _export_bindings(bindings, segments)
        _prime_dense(value for _, value in plain)
        elements_ref = None
        if _shm_transport_on():
            block = dense.probe_block(elements, (count,))
            if block is not None:
                seg = _shm_create(block.data.nbytes, segments)
                if seg is not None:
                    _copy_into(seg, block.data)
                    elements_ref = (seg.name, block.tag, count,
                                    block.lo, block.hi)
        kernel_sum = (not probed
                      and elements_ref is not None
                      and elements_ref[1] == dense.TAG_INT
                      and kernels.available()
                      and kernels.recognize_sum(expr) is not None)
        out_seg = _shm_create(count * 8, segments)
        payloads = []
        for lo, hi in shards:
            out = (out_seg.name, lo, hi) if out_seg is not None else None
            if elements_ref is not None:
                payloads.append(
                    _payload("sum", expr, plain, shm_binds, config, probed,
                             lo=lo, hi=hi, elements_shm=elements_ref,
                             out=out, kernel=kernel_sum))
            else:
                payloads.append(
                    _payload("sum", expr, plain, shm_binds, config, probed,
                             lo=0, hi=hi - lo,
                             elements=list(elements[lo:hi]), out=out))
        if elements_ref is None:
            _prime_dense(elements)
        outcomes = _run_process_shards(payloads, config)
        if outcomes is None:
            return None
        folded = _fold_sum(outcomes, out_seg, shards, count)
        if folded is None:
            return None
        zero_copy = sum(1 for outcome in outcomes if outcome[0] == "shm")
        _merge_probes(probe,
                      [outcome[-1] for outcome in outcomes] if probed else [],
                      len(shards), count)
        if probe is not None and segments:
            probe.on_shm(len(segments),
                         sum(seg.size for seg in segments), zero_copy)
        return folded
    finally:
        for seg in segments:
            _shm_release(seg)


__all__ = [
    "ENABLED", "SHM_ENABLED", "SHM_MIN_BYTES", "SHUTDOWN_GRACE",
    "available", "split", "in_worker", "shutdown_pools",
    "shm_live_segments", "shm_unlink_all",
    "shard_tabulate", "shard_kernel_tabulate", "shard_sum",
]
