"""The sharded parallel executor vs the serial loop (docs/PARALLEL.md).

Measures the perf claim behind ``Session(parallel_workers=...)``: on an
evaluator-bound workload too irregular for the numpy kernel backend — a
data-dependent branch in every cell — partitioning the tabulation
domain (or the Σ source) across the forked process pool should approach
linear speedup in the worker count, because each shard runs its
compiled body in a private process on its own core with no GIL
contention.

Honesty over wishful asserting: the speedup physically depends on the
machine, so every record carries ``cpus`` (the scheduler affinity
count, which is what the pool can actually use) and the shape
assertions are gated on it — ≥2× at four workers is only asserted when
four cores exist; on smaller machines the numbers are recorded as
measured and nothing is asserted that the hardware cannot deliver.
Correctness (parallel == serial, shard accounting visible in the probe)
is asserted unconditionally.

The shared-memory transport is counter-asserted: every shard must land
in the output slab
(``shards_zero_copy == shards_executed`` — zero per-element pickling),
the segment economy is recorded into the JSON, and every run ends with
a leak check that no segment survives (registry *and* ``/dev/shm``).

Everything lands in ``benchmarks/BENCH_parallel.json`` via
``bench_record(file="parallel")``.
"""

import glob
import os

import pytest

from repro.core import ast
from repro.core import parallel
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DispatchConfig
from repro.obs.metrics import EvalMetrics

from conftest import median_time

pytestmark = pytest.mark.skipif(
    not parallel.transport_on(),
    reason="no shared-memory transport: every dispatch runs serially")

#: what the worker pool can actually use (affinity, not box size)
CPUS = len(os.sched_getaffinity(0))

REPEATS = 3
WORKER_COUNTS = (2, 4)

SIDE = 1000
#: 1000×1000 cells with a data-dependent branch per cell: the kernel
#: recognizer rejects ``If`` bodies, so the scalar loop (and hence the
#: sharded executor) is the only fast path in play
BRANCHY_TAB = ast.Tabulate(
    ("x", "y"), (ast.NatLit(SIDE), ast.NatLit(SIDE)),
    ast.If(ast.Cmp("<=", ast.Var("x"), ast.Var("y")),
           ast.Arith("*", ast.Var("x"), ast.Var("y")),
           ast.Arith("+", ast.Var("x"), ast.Var("y"))),
)

N_ELEMS = 400_000
#: a large partitioned Σ: fold of e² over gen!400000
BIG_SUM = ast.Sum(
    "e", ast.Arith("*", ast.Var("e"), ast.Var("e")),
    ast.Gen(ast.NatLit(N_ELEMS)),
)


def _serial():
    return CompiledEvaluator(parallel=DispatchConfig(workers=0))


def _parallel(workers):
    return CompiledEvaluator(parallel=DispatchConfig(
        min_cells=64, workers=workers))


def _measure(expr, bench_record, label, cells):
    """Serial vs each worker count; record timings + shard accounting."""
    serial = _serial()
    expected = serial.run(expr)
    t_serial = median_time(lambda: serial.run(expr), repeats=REPEATS)

    timings = {}
    for workers in WORKER_COUNTS:
        runner = _parallel(workers)
        # first run outside the timed region: forks the pool AND proves
        # parallel == serial on the full workload
        assert runner.run(expr) == expected
        timings[workers] = median_time(lambda: runner.run(expr),
                                       repeats=REPEATS)

    # one probed run so the record shows the dispatch actually sharded
    probe = EvalMetrics()
    probed = CompiledEvaluator(probe=probe, parallel=DispatchConfig(
        min_cells=64, workers=WORKER_COUNTS[-1]))
    assert probed.run(expr) == expected
    assert probe.shards_executed == WORKER_COUNTS[-1]
    assert probe.cells_parallel == cells
    # every shard's results land in the output slab
    assert probe.shards_zero_copy == probe.shards_executed, \
        (label, probe.shards_zero_copy, probe.shards_executed)
    assert probe.shm_segments >= 1
    assert probe.shm_bytes >= cells * 8

    bench_record(
        file="parallel",
        seconds=t_serial,
        cpus=CPUS,
        backend="process",
        cells=cells,
        shards_executed=probe.shards_executed,
        cells_parallel=probe.cells_parallel,
        shm_segments=probe.shm_segments,
        shm_bytes=probe.shm_bytes,
        shards_zero_copy=probe.shards_zero_copy,
        **{f"seconds_w{w}": t for w, t in timings.items()},
        **{f"speedup_w{w}": round(t_serial / t, 3)
           for w, t in timings.items()},
    )

    # no dispatch may strand a segment — registry and OS view agree
    assert parallel.shm_live_segments() == 0
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro_shm_*") == []

    # shape assertions only where the hardware can deliver them
    if CPUS >= 4:
        assert timings[4] < t_serial / 2, \
            (label, t_serial, timings, CPUS)
    elif CPUS >= 2:
        assert timings[2] < t_serial, (label, t_serial, timings, CPUS)
    return t_serial, timings


def test_parallel_tabulation(bench_record):
    _measure(BRANCHY_TAB, bench_record, "tabulate-1000x1000",
             SIDE * SIDE)


def test_partitioned_sum(bench_record):
    _measure(BIG_SUM, bench_record, "sum-400k", N_ELEMS)
