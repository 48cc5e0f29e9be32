"""The sharded parallel executor (``repro.core.parallel``).

The contract under test (``docs/PARALLEL.md``): whenever the parallel
path runs, its result is *indistinguishable* from the reference
semantics' — identical values down to scalar types and hashes — and
its probe counters from the serial loop's (shard-merged equals
single-writer serial) — and whenever it
cannot guarantee that, evaluation falls back to the unchanged serial
loop.  A shard raising ⊥ poisons the whole construct exactly as the
serial loop would, with the serial error identity.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import agree, assert_identical, outcome
from expr_strategies import typed_exprs

from repro.core import ast
from repro.core import parallel
from repro.core.fastpath import DEFAULT_MIN_CELLS, DispatchConfig
from repro.errors import SessionError
from repro.obs.metrics import EvalMetrics, EvalProbe
from repro.objects.array import Array
from repro.system.repl import parallel_command
from repro.system.session import Session

#: the keys only a sharded run reports; everything else must match
#: a serial run exactly
PARALLEL_ONLY = ("shards_executed", "cells_parallel",
                 "shm_segments", "shm_bytes", "shards_zero_copy",
                 "shm_copies_avoided")


@pytest.fixture(autouse=True)
def _parallel_on(monkeypatch):
    """Pin the kill switch on so a REPRO_NO_PARALLEL=1 environment
    doesn't fail the tests that assert the fast path runs (the test
    that needs it off flips it itself)."""
    monkeypatch.setattr(parallel, "ENABLED", True)


def serial_config():
    return DispatchConfig(min_cells=1, workers=0)


def parallel_config(workers=3, min_cells=1):
    """Forked-process shards; the suite uses worker counts 2-4, so at
    most three pools are ever forked and every test after the first
    runs on a warm one."""
    return DispatchConfig(min_cells=min_cells, workers=workers)


def shards_required():
    """Skip a test that asserts shards ran on a lane where they cannot
    (no numpy, ``REPRO_NO_DENSE=1``, no ``fork`` or ``/dev/shm``)."""
    if not parallel.transport_on():
        pytest.skip("no shared-memory transport on this lane")


def counters(metrics):
    return {key: value for key, value in metrics.to_dict().items()
            if key not in PARALLEL_ONLY}


# ---------------------------------------------------------------------------
# fixture expressions
# ---------------------------------------------------------------------------

#: data-dependent branch: NOT kernel-shaped, so the sharded path (not
#: the numpy path) serves it
BRANCHY = ast.Tabulate(
    ("x", "y"), (ast.NatLit(12), ast.NatLit(12)),
    ast.If(ast.Cmp("<=", ast.Var("x"), ast.Var("y")),
           ast.Arith("*", ast.Var("x"), ast.Var("y")),
           ast.Arith("+", ast.Var("x"), ast.Var("y"))),
)

#: Σ over an order-sensitive float source (magnitudes differ by 1e15)
FLOAT_SUM = ast.Sum(
    "e", ast.Arith("+", ast.Var("e"), ast.Var("r0")),
    ast.Var("sr"),
)

#: a big nat Σ
BIG_SUM = ast.Sum(
    "e", ast.Arith("*", ast.Var("e"), ast.Var("e")),
    ast.Gen(ast.NatLit(300)),
)

#: raises ⊥ at cell x=100 only — later shards are poisoned, earlier
#: ones are fine
POISONED = ast.Tabulate(
    ("x",), (ast.NatLit(160),),
    ast.Arith("/", ast.NatLit(1),
              ast.Arith("-", ast.NatLit(100), ast.Var("x"))),
)

#: tuple-valued cells: the output slab cannot carry them
TUPLE_CELLS = ast.Tabulate(
    ("x", "y"), (ast.NatLit(12), ast.NatLit(12)),
    ast.TupleE((ast.Var("x"), ast.Var("y"))),
)

#: an operand with no dense block (string cells), read by a branchy body
BOXED_OPERAND = Array.from_list(["a", "bb", "ccc"] * 50)
READS_BOXED = ast.Tabulate(
    ("x",), (ast.NatLit(150),),
    ast.If(ast.Cmp("=", ast.Subscript(ast.Var("names"), (ast.Var("x"),)),
                   ast.Subscript(ast.Var("names"), (ast.NatLit(0),))),
           ast.Var("x"), ast.NatLit(0)),
)


# ---------------------------------------------------------------------------
# property: parallel == serial, down to types, hashes, and counters
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestParallelSerialAgreement:

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(typed_exprs(), st.integers(2, 3))
    def test_random_exprs_agree(self, pair, workers):
        expr, _ = pair
        # a ⊥ carries the serial loop's exact reason (fallback ran)
        agree(expr, parallel_config(workers))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(typed_exprs())
    def test_probe_counters_match_serial(self, pair):
        expr, _ = pair
        serial_metrics = EvalMetrics()
        sharded_metrics = EvalMetrics()
        reference = outcome(expr, serial_config(),
                            probe=serial_metrics)
        sharded = outcome(expr, parallel_config(3),
                          probe=sharded_metrics)
        assert sharded[0] == reference[0]
        assert counters(sharded_metrics) == counters(serial_metrics)


class TestDeterministicAgreement:
    """The fixture shapes."""

    @pytest.mark.parametrize("expr", [BRANCHY, FLOAT_SUM, BIG_SUM],
                             ids=["branchy-tab", "float-sum", "big-sum"])
    def test_agree(self, expr):
        assert agree(expr, parallel_config(4))[0] == "value"

    def test_process_backend_probed_counters_match(self):
        shards_required()
        serial_metrics = EvalMetrics()
        sharded_metrics = EvalMetrics()
        outcome(BRANCHY, serial_config(), probe=serial_metrics)
        result = outcome(BRANCHY, parallel_config(3),
                         probe=sharded_metrics)
        assert result[0] == "value"
        assert counters(sharded_metrics) == counters(serial_metrics)
        assert sharded_metrics.shards_executed == 3

    def test_parallel_dispatch_is_recorded(self):
        shards_required()
        metrics = EvalMetrics()
        outcome(BRANCHY, parallel_config(3), probe=metrics)
        assert metrics.shards_executed == 3
        assert metrics.cells_parallel == 144
        assert metrics.tabulations == 1
        assert metrics.cells_materialized == 144


# ---------------------------------------------------------------------------
# strict ⊥ semantics
# ---------------------------------------------------------------------------

class TestBottomPropagation:

    def test_poisoned_shard_yields_bottom(self):
        # same reason, serial identity
        assert agree(POISONED, parallel_config(4))[0] == "bottom"

    def test_poisoned_counters_equal_serial(self):
        """The failed parallel attempt is fully discarded: the serial
        rerun's counters are the only ones that land, so even the
        parallel-only keys stay at zero."""
        serial_metrics = EvalMetrics()
        sharded_metrics = EvalMetrics()
        outcome(POISONED, serial_config(), probe=serial_metrics)
        outcome(POISONED, parallel_config(4),
                probe=sharded_metrics)
        assert sharded_metrics.to_dict() == serial_metrics.to_dict()

    def test_poisoned_sum(self):
        poisoned = ast.Sum(
            "e",
            ast.Arith("/", ast.NatLit(1),
                      ast.Arith("-", ast.NatLit(50), ast.Var("e"))),
            ast.Gen(ast.NatLit(120)),
        )
        assert agree(poisoned, parallel_config(4))[0] == "bottom"


# ---------------------------------------------------------------------------
# gating and edge cases
# ---------------------------------------------------------------------------

class TestGating:

    @pytest.mark.parametrize("workers", [0, 1])
    def test_low_worker_counts_stay_serial(self, workers):
        metrics = EvalMetrics()
        result = outcome(BRANCHY,
                         parallel_config(workers), probe=metrics)
        assert result[0] == "value"
        assert metrics.shards_executed == 0
        assert metrics.cells_parallel == 0

    def test_zero_extent_domain(self):
        zero = ast.Tabulate(("x", "y"),
                            (ast.NatLit(0), ast.NatLit(5)), ast.Var("x"))
        metrics = EvalMetrics()
        result = outcome(zero, parallel_config(4),
                         probe=metrics)
        assert result[0] == "value"
        assert result[1].dims == (0, 5)
        assert metrics.shards_executed == 0

    def test_below_threshold_stays_serial(self):
        metrics = EvalMetrics()
        config = parallel_config(4, min_cells=DEFAULT_MIN_CELLS)
        small = ast.Tabulate(("x",), (ast.NatLit(DEFAULT_MIN_CELLS - 1),),
                             ast.Arith("+", ast.Var("x"), ast.NatLit(1)))
        result = outcome(small, config, probe=metrics)
        assert result[0] == "value"
        assert metrics.shards_executed == 0

    def test_kill_switch_wins(self, monkeypatch):
        monkeypatch.setattr(parallel, "ENABLED", False)
        metrics = EvalMetrics()
        result = outcome(BRANCHY, parallel_config(4),
                         probe=metrics)
        assert result[0] == "value"
        assert metrics.shards_executed == 0
        assert_identical(result[1],
                         outcome(BRANCHY, serial_config())[1])

    def test_unforkable_probe_declines_parallelism(self):
        class Tally(EvalProbe):
            __slots__ = ("cells",)

            def __init__(self):
                self.cells = 0

            def on_cells(self, count):
                self.cells += count
            # fork() inherited: returns None

        tally = Tally()
        result = outcome(BRANCHY, parallel_config(4),
                         probe=tally)
        assert result[0] == "value"
        assert tally.cells == 144  # serial loop counted every cell once

    def test_kernel_shaped_body_still_vectorizes(self):
        from repro.core import kernels
        if not kernels.available():
            pytest.skip("numpy not installed")
        grid = ast.Tabulate(("x", "y"),
                            (ast.NatLit(12), ast.NatLit(12)),
                            ast.Arith("*", ast.Var("x"), ast.Var("y")))
        metrics = EvalMetrics()
        result = outcome(grid, parallel_config(4),
                         probe=metrics)
        assert result[0] == "value"
        assert metrics.cells_vectorized == 144
        assert metrics.shards_executed == 0  # numpy path won

    @pytest.mark.parametrize("expr,binds", [
        (TUPLE_CELLS, {}),
        (READS_BOXED, {"names": BOXED_OPERAND}),
    ], ids=["tuple-cells", "boxed-operand"])
    def test_what_the_slab_cannot_carry_runs_serially(self, expr, binds):
        """No boxed wire format: tuple-valued cells fail their shards at
        the first value, an operand with no dense block declines before
        anything is pickled, and either way the serial loop's value and
        counters are the only ones that land."""
        serial_metrics, sharded_metrics = EvalMetrics(), EvalMetrics()
        outcome(expr, serial_config(), probe=serial_metrics, binds=binds)
        sharded = agree(expr, parallel_config(2), probe=sharded_metrics,
                        binds=binds)
        assert sharded[0] == "value"
        assert sharded_metrics.shards_executed == 0
        assert sharded_metrics.to_dict() == serial_metrics.to_dict()
        assert parallel.shm_live_segments() == 0

    def test_boxed_operand_declines_before_the_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "_get_pool", lambda workers: 1 / 0)
        assert agree(READS_BOXED, parallel_config(2),
                     binds={"names": BOXED_OPERAND})[0] == "value"

    def test_no_transport_means_serial(self, monkeypatch):
        """No ``/dev/shm`` (or no numpy, or no ``fork``): ``available``
        is false and nothing degrades to pickling."""
        monkeypatch.setattr(parallel, "_shm_mod", None)
        assert not parallel.available(parallel_config(4))
        metrics = EvalMetrics()
        assert agree(BRANCHY, parallel_config(4), probe=metrics)[0] == "value"
        assert metrics.shards_executed == 0

    def test_split_is_balanced_and_ordered(self):
        assert parallel.split(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert parallel.split(2, 4) == [(0, 1), (1, 2)]
        assert parallel.split(0, 4) == []
        assert parallel.split(5, 0) == []
        for extent, shards in [(1, 1), (7, 7), (100, 8)]:
            pieces = parallel.split(extent, shards)
            assert [p for lo, hi in pieces for p in range(lo, hi)] \
                == list(range(extent))
            sizes = [hi - lo for lo, hi in pieces]
            assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# counter-merge safety (the single-writer/fork/merge protocol)
# ---------------------------------------------------------------------------

class TestCounterMerge:

    def test_merge_adds_sums_and_maxes_watermarks(self):
        left = EvalMetrics()
        left.on_node("Var")
        left.on_cells(10)
        left.on_collection(3)
        left.on_bottom("x: boom")
        right = EvalMetrics()
        right.on_node("Var")
        right.on_node("If")
        right.on_cells(5)
        right.on_collection(9)
        left.merge(right)
        assert left.node_evals == 3
        assert left.nodes_by_class == {"Var": 2, "If": 1}
        assert left.cells_materialized == 15
        assert left.tabulations == 2
        assert left.collections_touched == 2
        assert left.max_collection_size == 9
        assert left.bottom_raises == 1

    def test_fork_is_fresh(self):
        metrics = EvalMetrics()
        metrics.on_cells(5)
        forked = metrics.fork()
        assert isinstance(forked, EvalMetrics)
        assert forked.cells_materialized == 0
        assert EvalProbe().fork() is None

    def test_shards_never_lose_or_double_count(self):
        """Regression for concurrent accumulation: many repetitions of
        the same sharded run must produce byte-identical counters, all
        equal to the serial run's (plus the dispatch record)."""
        shards_required()
        serial_metrics = EvalMetrics()
        outcome(BRANCHY, serial_config(), probe=serial_metrics)
        expected = counters(serial_metrics)
        for _ in range(12):
            metrics = EvalMetrics()
            result = outcome(BRANCHY, parallel_config(4),
                             probe=metrics)
            assert result[0] == "value"
            assert counters(metrics) == expected
            assert metrics.shards_executed == 4
            assert metrics.cells_parallel == 144

    def test_single_writer_contract_documented(self):
        assert "single-writer" in EvalMetrics.merge.__doc__


# ---------------------------------------------------------------------------
# nested parallelism
# ---------------------------------------------------------------------------

class TestNesting:

    def test_nested_tabulations_stay_correct(self):
        nested = ast.Tabulate(
            ("x",), (ast.NatLit(8),),
            ast.Sum("e", ast.Arith("+", ast.Var("e"), ast.Var("x")),
                    ast.Gen(ast.NatLit(50))),
        )
        assert agree(nested, parallel_config(3))[0] == "value"


# ---------------------------------------------------------------------------
# the session surface
# ---------------------------------------------------------------------------

QUERY = ("[[ if x <= y then x*y else x+y | \\x < 16, \\y < 16 ]];")


class TestSessionSurface:

    def test_session_kwargs_configure_the_env(self):
        session = Session(parallel_workers=3, min_cells=8)
        assert session.env.parallel.workers == 3
        assert session.env.parallel.min_cells == 8
        assert session.query_value(QUERY) == \
            Session().query_value(QUERY)

    @pytest.mark.parametrize("kwargs", [
        {"parallel_backend": "gpu"},
        {"parallel_workers": -1},
        {"parallel_workers": True},
        {"min_cells": -5},
    ])
    def test_bad_kwargs_rejected(self, kwargs):
        with pytest.raises(SessionError):
            Session(**kwargs)

    def test_profile_reports_shards(self):
        shards_required()
        session = Session(parallel_workers=2, min_cells=16)
        outputs = session.run(
            ":profile summap(fn \\e => e*e)!(gen!200);")
        report = outputs[-1].explain
        assert outputs[-1].value == sum(e * e for e in range(200))
        metrics = report.to_dict()["metrics"]
        assert metrics["shards_executed"] == 2
        assert metrics["cells_parallel"] == 200
        assert "parallel shards" in report.render()

    def test_profile_reports_pruned(self):
        session = Session()
        outputs = session.run(":profile [[ x + 1 | \\x < 10 ]];")
        phases = outputs[-1].explain.to_dict()["phases"]
        assert any(stats["pruned"] > 0 for stats in phases.values())
        assert "pruned" in outputs[-1].explain.render()

    def test_repl_parallel_command(self):
        session = Session()
        shown = parallel_command(session, "")
        assert "workers=0" in shown
        shown = parallel_command(session, "4 32")
        assert session.env.parallel.workers == 4
        assert session.env.parallel.min_cells == 32
        assert "workers=4" in shown and "min_cells=32" in shown
        assert "backend" not in shown
        assert "min_cells must be" in parallel_command(session, "2 process")
        assert "non-negative" in parallel_command(session, "-3")
        # failed updates leave the config untouched
        assert session.env.parallel.workers == 4

    def test_repl_status_names_what_disabled_it(self, monkeypatch):
        session = Session(parallel_workers=4)
        monkeypatch.setattr(parallel, "_shm_mod", None)
        assert parallel_command(session, "").startswith(
            "parallel disabled (no shared-memory transport): workers=4")
        monkeypatch.setattr(parallel, "ENABLED", False)
        assert "disabled (REPRO_NO_PARALLEL=1)" in \
            parallel_command(session, "")

    def test_sharded_session_agrees_with_serial(self):
        sharded = Session(parallel_workers=3, min_cells=1)
        assert sharded.query_value(QUERY) == Session().query_value(QUERY)

    def test_probed_process_shards_report_serial_counters(self):
        """A probed process dispatch used to be declined by the closure
        engine (its workers re-interpreted the body, so their counters
        were another engine's); workers now compile the shipped body, so
        it runs and every shared counter equals the serial run's."""
        shards_required()
        query = r"summap(fn \i => i % 7)!(gen!100000);"
        sharded = Session(parallel_workers=2) \
            .explain(query).to_dict()["metrics"]
        serial = Session().explain(query).to_dict()["metrics"]
        assert sharded["shards_executed"] > 0
        assert {key: value for key, value in sharded.items()
                if key not in PARALLEL_ONLY} \
            == {key: value for key, value in serial.items()
                if key not in PARALLEL_ONLY}


    def test_kernel_shaped_tabulation_never_shards(self):
        """Past what used to be the fused floor (2^17 cells) the serial
        kernel still runs, in the parent, whatever ``workers`` is."""
        from repro.core import kernels
        if not kernels.available():
            pytest.skip("numpy not installed")
        query = r"[[ x*y+x | \x < 400, \y < 400 ]];"
        sharded = Session(parallel_workers=2) \
            .explain(query).to_dict()["metrics"]
        assert sharded["cells_vectorized"] == 400 * 400
        assert sharded["shards_executed"] == 0
        assert sharded == Session().explain(query).to_dict()["metrics"]


# ---------------------------------------------------------------------------
# optimizer rule pruning (the satellite riding along in this PR)
# ---------------------------------------------------------------------------

class TestRulePruning:

    def test_candidates_preserve_registration_order(self):
        from repro.optimizer.engine import Rule, RuleBase
        base = RuleBase()
        fired = []
        base.add(Rule("everywhere", lambda e: None, "", roots=None))
        base.add(Rule("if-only", lambda e: None, "", roots=(ast.If,)))
        base.add(Rule("also-everywhere", lambda e: None, ""))
        names = [rule.name for rule in base.candidates(ast.If)]
        assert names == ["everywhere", "if-only", "also-everywhere"]
        names = [rule.name for rule in base.candidates(ast.NatLit)]
        assert names == ["everywhere", "also-everywhere"]
        del fired

    def test_candidates_cache_invalidated_on_mutation(self):
        from repro.optimizer.engine import Rule, RuleBase
        base = RuleBase()
        base.add(Rule("a", lambda e: None, "", roots=(ast.If,)))
        assert len(base.candidates(ast.If)) == 1
        base.add(Rule("b", lambda e: None, "", roots=(ast.If,)))
        assert len(base.candidates(ast.If)) == 2
        base.remove("a")
        assert len(base.candidates(ast.If)) == 1

    def test_pruning_does_not_change_optimized_output(self):
        """Stripping every ``roots`` annotation (pruning off) must give
        the same optimized core as the stock pruned pipeline."""
        from dataclasses import replace
        from repro.optimizer.engine import default_optimizer
        from repro.surface.desugar import Desugarer
        from repro.surface.parser import parse_program

        source = ("summap(fn \\e => e + 1)!"
                  "({ x * 2 | \\x <- gen!7 });")
        (stmt,) = parse_program(source)
        core = Desugarer().desugar(stmt.expr)

        pruned_opt = default_optimizer()
        unpruned_opt = default_optimizer()
        for phase in unpruned_opt.phases:
            stripped = [replace(rule, roots=None)
                        for rule in phase.rules]
            phase.rules._rules = stripped
            phase.rules._candidates.clear()
        assert pruned_opt.optimize(core) == unpruned_opt.optimize(core)

    def test_attempts_stay_truthful(self):
        """``attempts`` counts actual fn calls; ``pruned`` the skipped
        ones; their sum is the unpruned attempt count."""
        from repro.obs.trace import Tracer
        from repro.optimizer.engine import default_optimizer

        expr = ast.Arith("+", ast.NatLit(1), ast.NatLit(2))
        optimizer = default_optimizer()
        optimizer.optimize(expr, Tracer())
        stats = optimizer.phase("normalize").stats
        assert stats.pruned > 0
        assert stats.attempts > 0
        assert stats.to_dict()["pruned"] == stats.pruned

        # on a node where nothing fires, one visit consults the whole
        # rule base exactly once: attempts + pruned == len(rules).  The
        # phase is run directly: ``optimize`` would prove it cannot fire
        # on a lone variable and skip it
        optimizer = default_optimizer()
        optimizer.phase("normalize").run(ast.Var("x"), instrument=True)
        stats = optimizer.phase("normalize").stats
        assert stats.applications == 0
        assert stats.attempts + stats.pruned == \
            len(optimizer.phase("normalize").rules)
