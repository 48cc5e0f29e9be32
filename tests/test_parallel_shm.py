"""The shared-memory transport and lifecycle of ``repro.core.parallel``.

Contract under test (``docs/PARALLEL.md``): shard payloads and results
travel as ``multiprocessing.shared_memory`` segments, every segment is
unlinked on every exit path (success, strict-⊥ discard, broken pool), a
wedged worker can never hang interpreter exit, and a no-dense parent
never shards at all.
``tests/conftest.py`` additionally asserts zero live segments after
every test in the whole suite.
"""

import glob
import os
import signal
import threading
import time

import pytest

from conftest import agree, assert_identical, outcome
from test_parallel import (BIG_SUM, BRANCHY, POISONED, counters,
                           parallel_config, serial_config, shards_required)

from repro.core import ast
from repro.core import parallel
from repro.core.fastpath import DispatchConfig
from repro.obs.metrics import EvalMetrics
from repro.objects import dense
from repro.objects.array import Array
from repro.system.repl import parallel_command
from repro.system.session import Session


@pytest.fixture(autouse=True)
def _parallel_on(monkeypatch):
    """Pin the kill switch on (mirrors ``test_parallel``)."""
    monkeypatch.setattr(parallel, "ENABLED", True)


#: an operand binding big enough (8192 bytes as int64) to ride one
#: shared segment instead of being re-pickled into every shard payload
BIG_OPERAND = Array((64, 16), list(range(1024)))

#: branchy tabulation reading the big operand — exercises payload
#: export (one segment, many shards)
USES_OPERAND = ast.Tabulate(
    ("x",), (ast.NatLit(128),),
    ast.If(ast.Cmp("<=", ast.Var("x"), ast.NatLit(64)),
           ast.Subscript(ast.Var("big"),
                         (ast.Arith("%", ast.Var("x"), ast.NatLit(64)),
                          ast.NatLit(3))),
           ast.Var("x")),
)

#: order-sensitive float Σ over a 300-element dense source — elements
#: ride one segment in, body values come back through the float64 slab
FLOAT_ELEMENTS = Array.from_list([(k % 7) * 0.375 - 1.5
                                  for k in range(300)])
FLOAT_SLAB_SUM = ast.Sum(
    "e", ast.Arith("+", ast.Var("e"), ast.RealLit(0.0)), ast.Var("ar"),
)

#: nested tabulation whose cells are themselves arrays
NESTED = ast.Tabulate(
    ("x",), (ast.NatLit(20),),
    ast.Tabulate(("y",), (ast.NatLit(30),),
                 ast.Arith("*", ast.Var("x"), ast.Var("y"))),
)


# ---------------------------------------------------------------------------
# the zero-copy transport
# ---------------------------------------------------------------------------

class TestShmTransport:

    def test_zero_copy_counters_recorded(self):
        """A dense process dispatch reports its transport economy, and
        every shard lands in the slab (zero per-element pickling)."""
        shards_required()
        metrics = EvalMetrics()
        sharded = agree(BRANCHY, parallel_config(3),
                        probe=metrics)
        assert sharded[0] == "value"
        assert metrics.shards_executed == 3
        assert metrics.shards_zero_copy == 3
        assert metrics.shm_segments >= 1
        assert metrics.shm_bytes >= 144 * 8  # at least the output slab
        assert parallel.shm_live_segments() == 0

    def test_float_slab_sum_is_bit_exact(self):
        """Float body values round-trip the float64 slab bit-for-bit,
        so the parent's in-order fold equals the serial fold exactly."""
        shards_required()
        binds = {"ar": FLOAT_ELEMENTS}
        metrics = EvalMetrics()
        sharded = agree(FLOAT_SLAB_SUM, parallel_config(3),
                        probe=metrics, binds=binds)
        assert sharded[0] == "value"
        assert metrics.shards_zero_copy == metrics.shards_executed == 3
        assert metrics.shm_segments >= 2  # elements in + slab out

    def test_big_operand_rides_one_segment(self):
        """An operand above ``SHM_MIN_BYTES`` is exported once,
        referenced by all shards and adopted by each as a view."""
        shards_required()
        binds = {"big": BIG_OPERAND}
        metrics = EvalMetrics()
        sharded = agree(USES_OPERAND, parallel_config(3),
                        probe=metrics, binds=binds)
        assert sharded[0] == "value"
        assert metrics.shards_executed == metrics.shards_zero_copy == 3
        assert metrics.shm_segments == 2  # operand + out slab
        assert metrics.shm_bytes >= BIG_OPERAND.dense_block().data.nbytes
        assert metrics.shm_copies_avoided == 3

    def test_serial_runs_never_report_shm(self):
        metrics = EvalMetrics()
        outcome(BRANCHY, serial_config(), probe=metrics)
        assert metrics.shm_segments == 0
        assert metrics.shm_bytes == 0
        assert metrics.shards_zero_copy == 0


# ---------------------------------------------------------------------------
# segment lifecycle: every exit path unlinks
# ---------------------------------------------------------------------------

class TestSegmentLifecycle:

    def test_poisoned_dispatch_unlinks_and_discards_counters(self):
        """Strict ⊥ discards *all* parallel work: the serial rerun's
        counters are the only ones that land (shm keys included), and
        no segment survives the discarded dispatch."""
        serial_metrics = EvalMetrics()
        sharded_metrics = EvalMetrics()
        reference = outcome(POISONED, serial_config(),
                            probe=serial_metrics)
        sharded = outcome(POISONED,
                          parallel_config(4),
                          probe=sharded_metrics)
        assert reference[0] == "bottom"
        assert sharded == reference
        assert sharded_metrics.to_dict() == serial_metrics.to_dict()
        assert parallel.shm_live_segments() == 0

    def test_unlink_all_backstop(self):
        """The atexit backstop retires whatever the registry holds."""
        seg = parallel._shm_create(4096)
        if seg is None:
            pytest.skip("shared-memory transport unavailable on this lane")
        assert parallel.shm_live_segments() == 1
        parallel.shm_unlink_all()
        assert parallel.shm_live_segments() == 0

    def test_release_is_idempotent(self):
        seg = parallel._shm_create(4096)
        if seg is None:
            pytest.skip("shared-memory transport unavailable on this lane")
        parallel._shm_release(seg)
        parallel._shm_release(seg)  # second release must be a no-op
        assert parallel.shm_live_segments() == 0

    def test_dev_shm_is_clean_after_dispatches(self):
        """The OS view agrees with the registry: no ``repro_shm_*``
        file survives a burst of dense dispatches."""
        for expr in (BRANCHY, BIG_SUM):
            result = outcome(expr,
                             parallel_config(2))
            assert result[0] == "value"
        assert parallel.shm_live_segments() == 0
        if os.path.isdir("/dev/shm"):
            assert glob.glob("/dev/shm/repro_shm_*") == []


# ---------------------------------------------------------------------------
# pool lifecycle: bounded shutdown, broken-pool recovery
# ---------------------------------------------------------------------------

def _wedge():
    """A worker stuck in a call that ignores SIGTERM (picklable task)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60)


class TestPoolLifecycle:

    def test_wedged_worker_cannot_hang_shutdown(self):
        """``shutdown_pools`` escalates join → terminate → kill within
        its grace budget, so a SIGTERM-ignoring worker cannot wedge
        interpreter exit."""
        shards_required()
        pool = parallel._get_pool(2)
        pool.submit(_wedge)
        time.sleep(0.3)  # let a worker pick the task up
        procs = list(pool._processes.values())
        started = time.monotonic()
        parallel.shutdown_pools(grace=0.5)
        elapsed = time.monotonic() - started
        assert elapsed < parallel.SHUTDOWN_GRACE + 3.0
        for proc in procs:
            proc.join(2.0)
            assert not proc.is_alive()

    def test_killed_workers_fall_back_to_serial_and_recover(self):
        """Workers dying mid-dispatch break the pool: the construct
        falls back to the serial loop (serial-identical result and
        counters, no leaked segments) and the broken pool is evicted so
        the *next* dispatch shards again on a fresh one."""
        config = parallel_config(2)
        reference = outcome(BRANCHY, serial_config())
        ref_metrics = EvalMetrics()
        outcome(BRANCHY, serial_config(), probe=ref_metrics)
        shards_required()
        outcome(BRANCHY, config)  # warm the pool
        pool = parallel._get_pool(2)
        for proc in list(pool._processes.values()):
            proc.kill()
        metrics = EvalMetrics()
        result = outcome(BRANCHY, config, probe=metrics)
        assert result[0] == "value"
        assert_identical(result[1], reference[1])
        assert metrics.shards_executed == 0  # dispatch failed, serial ran
        assert metrics.to_dict() == ref_metrics.to_dict()
        assert parallel.shm_live_segments() == 0
        again = EvalMetrics()
        recovered = outcome(BRANCHY, config, probe=again)
        assert recovered[0] == "value"
        assert_identical(recovered[1], reference[1])
        assert again.shards_executed == 2  # fresh pool after eviction


# ---------------------------------------------------------------------------
# configuration inheritance: workers obey the parent's switches
# ---------------------------------------------------------------------------

class TestWorkerInheritance:

    def test_no_dense_parent_receives_boxed_results(self, monkeypatch):
        """``REPRO_NO_DENSE`` means no transport: a warm pool forked
        with the store on is never handed work by a no-dense parent, so
        no cell arrives dense-backed."""
        outcome(BRANCHY, parallel_config(3))  # warm, dense store ON
        monkeypatch.setattr(dense, "STORE_ENABLED", False)
        assert not parallel.available(parallel_config(3))
        metrics = EvalMetrics()
        result = agree(NESTED, parallel_config(3), probe=metrics)
        assert result[0] == "value"
        assert metrics.shards_executed == 0
        assert metrics.shm_segments == 0
        for cell in result[1].flat:
            assert cell._block is None  # boxed, exactly as the parent is

    def test_worker_config_drops_sharding(self):
        config = DispatchConfig(min_cells=7, workers=4, setops=False)
        worker = parallel._worker_config(config)
        assert worker.workers == 0
        assert (worker.min_cells, worker.setops) == (7, False)


# ---------------------------------------------------------------------------
# two evaluators, one warm pool
# ---------------------------------------------------------------------------

class TestConcurrentDispatch:

    def test_two_threads_dispatch_on_one_warm_pool(self):
        """Two evaluators sharding simultaneously against the same
        cached pool: per-probe counters stay single-writer-exact and
        every segment is retired."""
        reference = outcome(BRANCHY, serial_config())
        ref_metrics = EvalMetrics()
        outcome(BRANCHY, serial_config(), probe=ref_metrics)
        shards_required()
        outcome(BRANCHY, parallel_config(2))  # warm the pool
        errors = []
        done = [False, False]

        def work(slot):
            try:
                for _ in range(3):
                    metrics = EvalMetrics()
                    got = outcome(BRANCHY,
                                  parallel_config(2),
                                  probe=metrics)
                    assert got[0] == "value"
                    assert_identical(got[1], reference[1])
                    assert counters(metrics) == counters(ref_metrics)
                    assert metrics.shards_executed == 2
                done[slot] = True
            except BaseException as exc:  # surface into the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        assert done == [True, True]
        assert parallel.shm_live_segments() == 0


# ---------------------------------------------------------------------------
# the REPL surface
# ---------------------------------------------------------------------------

class TestReplSurface:

    def test_repl_rejects_negative_min_cells_untouched(self):
        """A rejected field leaves *every* field untouched — including
        the ones earlier in the command that validated fine."""
        session = Session()
        before_workers = session.env.parallel.workers
        before_min = session.env.parallel.min_cells
        shown = parallel_command(session, "2 -5")
        assert "min_cells must be a non-negative int" in shown
        assert session.env.parallel.workers == before_workers
        assert session.env.parallel.min_cells == before_min
