"""The fused shard-kernel path vs the serial kernel and scalar shards.

Measures the perf claim behind ``kernel_min_cells`` (docs/PARALLEL.md):
on a large kernel-shaped tabulation, running the numpy kernel *inside
process shards* — one contiguous flat cell range per core, results
written straight into the shared output slab — should beat both

* the **serial kernel** (one numpy evaluation on one core), because the
  per-core grids are a fraction of the domain; and
* **scalar shards** (the pre-fusion parallel path), because each worker
  replaces its per-cell scalar loop with a handful of bulk array
  operations.

Honesty over wishful asserting (same policy as ``bench_parallel``):
speedup over the *serial kernel* needs real cores, so that assertion is
gated on ``cpus``; the fused-beats-scalar-shards comparison is
algorithmic (vectorization inside the very same pool) and is asserted
from two cores up.  Correctness — fused == serial kernel == scalar
shards, every shard vectorized (``shards_vectorized ==
shards_executed``), zero segment leaks — is asserted unconditionally.

Everything lands in ``benchmarks/BENCH_shard_kernels.json`` via
``bench_record(file="shard_kernels")``.
"""

import glob
import os

from repro.core import ast
from repro.core import kernels
from repro.core import parallel
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DispatchConfig
from repro.obs.metrics import EvalMetrics

from conftest import median_time

CPUS = len(os.sched_getaffinity(0))

REPEATS = 3
WORKERS = 4

SIDE = 1200
CELLS = SIDE * SIDE
#: 1200×1200 cells of pure index arithmetic (~6 ops/cell) — recognized
#: by the kernel backend, so all three execution strategies can serve
#: it: serial kernel, scalar shards, fused shard-kernels
KERNEL_TAB = ast.Tabulate(
    ("x", "y"), (ast.NatLit(SIDE), ast.NatLit(SIDE)),
    ast.Arith("*",
              ast.Arith("+", ast.Arith("*", ast.Var("x"), ast.Var("y")),
                        ast.Arith("+", ast.Var("x"), ast.Var("y"))),
              ast.Arith("+", ast.Arith("%", ast.Var("x"), ast.NatLit(7)),
                        ast.NatLit(1))),
)

N_ELEMS = 400_000
#: unprobed int Σ with a kernel-shaped body: workers fold their element
#: slices vectorized and return exact partials (the ``vsum`` outcome)
BIG_SUM = ast.Sum(
    "e", ast.Arith("*", ast.Var("e"), ast.Var("e")),
    ast.Gen(ast.NatLit(N_ELEMS)),
)


def _serial_kernel():
    return CompiledEvaluator(parallel=DispatchConfig(workers=0))


def _fused(workers=WORKERS):
    return CompiledEvaluator(parallel=DispatchConfig(
        min_cells=64, workers=workers, backend="process",
        kernel_min_cells=64))


def _leak_check():
    assert parallel.shm_live_segments() == 0
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro_shm_*") == []


def test_fused_tabulation(bench_record):
    if not kernels.available():
        import pytest
        pytest.skip("numpy kernel backend unavailable")

    serial = _serial_kernel()
    expected = serial.run(KERNEL_TAB)
    t_serial_kernel = median_time(lambda: serial.run(KERNEL_TAB),
                                  repeats=REPEATS)

    # scalar shards: the parent's vectorize kill switch ships to the
    # workers, so flipping it here reproduces the pre-fusion path on
    # the very same pool
    scalar_runner = _fused()
    saved = kernels.ENABLED
    kernels.ENABLED = False
    try:
        assert scalar_runner.run(KERNEL_TAB) == expected
        t_scalar_shards = median_time(
            lambda: scalar_runner.run(KERNEL_TAB), repeats=REPEATS)
    finally:
        kernels.ENABLED = saved

    fused_runner = _fused()
    assert fused_runner.run(KERNEL_TAB) == expected  # warms the pool
    t_fused = median_time(lambda: fused_runner.run(KERNEL_TAB),
                          repeats=REPEATS)

    # one probed run proving the vectorized path actually served it:
    # every shard fused, every cell kernel-computed, none interpreted
    probe = EvalMetrics()
    probed = CompiledEvaluator(probe=probe, parallel=DispatchConfig(
        min_cells=64, workers=WORKERS, backend="process",
        kernel_min_cells=64))
    assert probed.run(KERNEL_TAB) == expected
    assert probe.shards_executed == WORKERS
    assert probe.shards_vectorized == probe.shards_executed, \
        (probe.shards_vectorized, probe.shards_executed)
    assert probe.cells_vectorized_parallel == CELLS
    assert probe.cells_vectorized == CELLS
    assert probe.cells_materialized == 0

    bench_record(
        file="shard_kernels",
        seconds=t_fused,
        cpus=CPUS,
        workers=WORKERS,
        cells=CELLS,
        seconds_serial_kernel=t_serial_kernel,
        seconds_scalar_shards=t_scalar_shards,
        seconds_fused=t_fused,
        speedup_vs_serial_kernel=round(t_serial_kernel / t_fused, 3),
        speedup_vs_scalar_shards=round(t_scalar_shards / t_fused, 3),
        shards_executed=probe.shards_executed,
        shards_vectorized=probe.shards_vectorized,
        cells_vectorized_parallel=probe.cells_vectorized_parallel,
        shm_copies_avoided=probe.shm_copies_avoided,
        shm_segments=probe.shm_segments,
        shm_bytes=probe.shm_bytes,
    )

    _leak_check()

    # replacing each worker's per-cell scalar loop with bulk numpy
    # is an algorithmic win, visible as soon as the pool isn't sharing
    # one core with the parent
    if CPUS >= 2:
        assert t_fused < t_scalar_shards, \
            (t_fused, t_scalar_shards, CPUS)
    # beating the *serial kernel* is a parallelism win and needs cores
    if CPUS >= 4:
        assert t_fused < t_serial_kernel, \
            (t_fused, t_serial_kernel, CPUS)


def test_vectorized_sum_partials(bench_record):
    if not kernels.available():
        import pytest
        pytest.skip("numpy kernel backend unavailable")

    serial = _serial_kernel()
    expected = serial.run(BIG_SUM)
    t_serial = median_time(lambda: serial.run(BIG_SUM), repeats=REPEATS)

    fused = CompiledEvaluator(parallel=DispatchConfig(
        min_cells=64, workers=WORKERS, backend="process"))
    got = fused.run(BIG_SUM)
    assert got == expected and type(got) is type(expected)
    t_fused = median_time(lambda: fused.run(BIG_SUM), repeats=REPEATS)

    bench_record(
        file="shard_kernels",
        seconds=t_fused,
        cpus=CPUS,
        workers=WORKERS,
        elements=N_ELEMS,
        seconds_serial=t_serial,
        seconds_fused=t_fused,
        speedup=round(t_serial / t_fused, 3),
    )

    _leak_check()
