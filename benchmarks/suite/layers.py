"""The traced half: spans recorded from outside, around each layer.

:class:`Replay` executes a statement stage by stage through the layers'
public entry points — ``parse_program`` → ``Desugarer.desugar`` →
``Session.prepare`` → ``evaluator.run``, plus the driver registry for
``readval``/``writeval`` — wrapping each call in a span of the
harness's own :class:`Tracer`.  On a plan-cache miss the four compile
stages are called once more directly on the same core (*shadow* spans,
children of the ``prepare`` span), so ``prepare``'s self time is what
the cache itself costs.  A layer's self time is its span minus its
children.

Everything here may fail without failing the run: a missing or raising
entry point turns the metrics that needed it into ``None`` with the
reason (see :class:`LayerMetrics`).
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: driver name -> span around the registry's reader / writer
READ_SPANS = {"NETCDF": "io.netcdf_read", "NETCDF3": "io.netcdf_read",
              "CO": "exchange.parse"}
WRITE_SPANS = {"NETCDFW": "io.netcdf_write", "CO": "exchange.print"}

#: span name -> the per-layer metric reporting its self time per round
SPAN_METRICS = {
    "surface.parse": "surface.parse_ms",
    "surface.desugar": "surface.desugar_ms",
    "plan_cache.prepare_hit": "plan_cache.prepare_hit_ms",
    "plan_cache.prepare_miss": "plan_cache.self_miss_ms",
    "env.resolve": "env.resolve_ms",
    "typecheck.check": "typecheck.check_ms",
    "optimizer.optimize": "optimizer.optimize_ms",
    "optimizer.cost_estimate": "optimizer.cost_estimate_ms",
    "compile.codegen": "compile.codegen_ms",
    "eval.run": "eval.run_ms",
    "io.netcdf_read": "io.netcdf_read_ms",
    "io.netcdf_write": "io.netcdf_write_ms",
    "exchange.parse": "exchange.parse_ms",
    "exchange.print": "exchange.print_ms",
}

#: per-round counts the replay takes next to its spans
REPLAY_COUNTS = ("surface.nodes_out", "optimizer.firings", "optimizer.passes",
                 "optimizer.phases_skipped", "optimizer.nodes_in",
                 "optimizer.nodes_out", "io.bytes_read", "io.bytes_written",
                 "exchange.bytes")

#: everything the staged rounds report (nulled together if they fail)
STAGED_METRICS = (tuple(SPAN_METRICS.values()) + REPLAY_COUNTS
                  + ("trace.overhead_ratio", "trace.coverage_ratio"))

#: per-round sums taken from ``Session.explain(stmt).to_dict()["metrics"]``
EXPLAIN_COUNTS = ("node_evals", "cells_materialized", "cells_vectorized",
                  "joins_hashed", "join_pairs_matched", "join_pairs_skipped",
                  "index_groupbys", "index_sorted", "shards_executed",
                  "shards_vectorized", "shm_bytes")


class Tracer:
    """Spans kept in memory: name, start, end, parent, statement id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.statement = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, shadow: bool = False):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "statement": self.statement, "shadow": shadow,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def under(self, record: Dict[str, Any]):
        """Parent the spans opened inside to an already closed span."""
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus children."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals


class LayerMetrics:
    """Per-layer values by metric name; ``None`` plus a reason when the
    layer's entry point was missing or raised."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}

    def fail(self, names: Iterable[str], exc: BaseException) -> None:
        for name in names:
            self.values[name] = None
            self.reasons[name] = f"{type(exc).__name__}: {exc}"

    def guard(self, names: Iterable[str],
              compute: Callable[[], Dict[str, float]]) -> None:
        """Record ``compute()``'s metrics, or null ``names`` on failure."""
        names = list(names)
        try:
            self.values.update(compute())
        except Exception as exc:
            self.fail(names, exc)


class CounterWindow:
    """Deltas of a layer's ``snapshot()`` counters over a window of
    rounds, turned into metrics when the window closes."""

    def __init__(self, metrics: LayerMetrics, names: Iterable[str],
                 take: Callable[[], Dict[str, int]]) -> None:
        self.metrics, self.names, self.take = metrics, list(names), take
        self.before: Optional[Dict[str, int]] = None
        metrics.guard(self.names, self._open)

    def _open(self) -> Dict[str, float]:
        self.before = self.take()
        return {}

    def close(self, derive: Callable[[Dict[str, int]], Dict[str, float]]
              ) -> None:
        if self.before is None:
            return  # opening already failed and nulled the names
        before = self.before
        self.metrics.guard(self.names, lambda: derive(
            {key: value - before[key]
             for key, value in self.take().items()
             if isinstance(value, int) and key in before}))


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Replay:
    """Stage-by-stage execution of statements on one session."""

    def __init__(self, session: Any, metrics: LayerMetrics) -> None:
        from repro import parse_program
        from repro.core import ast
        from repro.surface.desugar import Desugarer

        self.session = session
        self.metrics = metrics
        self.tracer = Tracer()
        self.counts = dict.fromkeys(REPLAY_COUNTS, 0)
        self._parse = parse_program
        self._ast = ast
        self._desugarer = Desugarer()

    # -- one statement ---------------------------------------------------------

    def run(self, text: str) -> Any:
        """Execute one statement in stages; return its value (``None``
        for ``writeval``).  Raises whatever a stage raises."""
        tracer, env = self.tracer, self.session.env
        tracer.statement += 1
        with tracer.span("statement"):
            with tracer.span("surface.parse"):
                (statement,) = self._parse(text)
            kind = type(statement).__name__
            if kind == "Query":
                return self._evaluate(statement.expr)
            if kind == "ReadVal":
                reader = env.drivers.reader(statement.reader)
                args = self._evaluate(statement.args)
                with tracer.span(READ_SPANS[statement.reader]):
                    value = reader(args)
                env.set_val(statement.name, value)
                if statement.reader == "CO":
                    self.counts["exchange.bytes"] += os.path.getsize(args)
                else:
                    self.counts["io.bytes_read"] += value.size * 8
                return value
            if kind == "WriteVal":
                writer = env.drivers.writer(statement.writer)
                value = self._evaluate(statement.expr)
                args = self._evaluate(statement.args)
                with tracer.span(WRITE_SPANS[statement.writer]):
                    writer(value, args)
                if statement.writer == "CO":
                    self.counts["exchange.bytes"] += os.path.getsize(args)
                else:
                    self.counts["io.bytes_written"] += \
                        os.path.getsize(args[0])
                return None
            raise ValueError(f"rounds do not stage {kind} statements")

    def _evaluate(self, surface: Any) -> Any:
        tracer, session = self.tracer, self.session
        env = session.env
        with tracer.span("surface.desugar"):
            core = self._desugarer.desugar(surface)
        self.counts["surface.nodes_out"] += self._ast.node_count(core)
        with tracer.span("plan_cache.prepare_hit") as prepare:
            plan = session.prepare(core)
        if not plan.cached:
            prepare["name"] = "plan_cache.prepare_miss"
            with tracer.under(prepare):
                self._shadow_compile(core)
        with tracer.span("eval.run"):
            # the choice Session._evaluate makes
            if plan.evaluator is not None and not env.obs.enabled:
                return plan.evaluator.run(plan.core)
            return env.evaluator().run(plan.core)

    def _shadow_compile(self, core: Any) -> None:
        """Time resolve / typecheck / optimize / cost / codegen by calling
        each directly on the core that ``prepare`` just compiled."""
        env, tracer, counts = self.session.env, self.tracer, self.counts
        state: Dict[str, Any] = {}

        def resolve():
            state["resolved"] = env.resolve(core)

        def typecheck():
            env.typechecker().check(state["resolved"])

        def optimize():
            state["optimized"] = env.optimizer.optimize(state["resolved"])

        def cost_estimate():
            if env.cost is not None:
                env.cost.estimate(state["optimized"])

        def codegen():
            evaluator = env.plan_evaluator()
            if evaluator is not None:
                evaluator.prepare(state["optimized"])

        for name, stage in (("env.resolve", resolve),
                            ("typecheck.check", typecheck),
                            ("optimizer.optimize", optimize),
                            ("optimizer.cost_estimate", cost_estimate),
                            ("compile.codegen", codegen)):
            try:
                with tracer.span(name, shadow=True):
                    stage()
            except Exception as exc:
                self.metrics.fail([SPAN_METRICS[name]], exc)
        try:
            report = env.optimizer.report().values()
            counts["optimizer.firings"] += sum(p.applications for p in report)
            counts["optimizer.passes"] += sum(p.passes for p in report)
            counts["optimizer.phases_skipped"] += sum(
                1 for p in report if p.skipped)
            counts["optimizer.nodes_in"] += \
                self._ast.node_count(state["resolved"])
            counts["optimizer.nodes_out"] += \
                self._ast.node_count(state["optimized"])
        except Exception as exc:
            self.metrics.fail([name for name in counts
                               if name.startswith("optimizer.")], exc)

    # -- derived metrics ---------------------------------------------------------

    def per_round(self, rounds: int) -> Dict[str, float]:
        """Self time (ms) and counts per staged round."""
        own = self.tracer.self_seconds()
        values = {metric: own.get(span, 0.0) * 1e3 / rounds
                  for span, metric in SPAN_METRICS.items()}
        values.update({name: total / rounds
                       for name, total in self.counts.items()})
        return values


def explain_pass(session: Any, run_texts: List[str], explain_texts: List[str],
                 cold_ms: List[float]) -> Dict[str, float]:
    """One plain and one instrumented execution of a round: evaluator
    counters, profile overhead and the cost model's q-error.
    ``cold_ms`` are the warm-up latencies per statement; that of the
    first statement found to run as shards is the first-dispatch cost."""
    env = session.env
    plain_seconds = profiled_seconds = 0.0
    errors = []
    for text in run_texts:
        started = time.perf_counter()
        session.run(text)
        plain_seconds += time.perf_counter() - started
        if env.cost is not None:
            last = env.cost.snapshot().get("last_estimate") or {}
            factor = last.get("error_factor")
            if factor:
                errors.append(max(factor, 1.0 / factor))
    totals = dict.fromkeys(EXPLAIN_COUNTS, 0)
    first_dispatch_ms = None
    for text, cold in zip(explain_texts, cold_ms):
        started = time.perf_counter()
        report = session.explain(text)
        profiled_seconds += time.perf_counter() - started
        counters = report.to_dict()["metrics"]
        for name in EXPLAIN_COUNTS:
            totals[name] += counters[name]
        if first_dispatch_ms is None and counters["shards_executed"]:
            first_dispatch_ms = cold
    return _explain_metrics(totals, plain_seconds, profiled_seconds, errors,
                            first_dispatch_ms or 0.0)


def _explain_metrics(totals: Dict[str, float], plain_seconds: float,
                     profiled_seconds: float, errors: List[float],
                     first_dispatch_ms: float) -> Dict[str, float]:
    vectorized, scalar = totals["cells_vectorized"], totals["cells_materialized"]
    return {
        "eval.node_evals": totals["node_evals"],
        "eval.cells_materialized": scalar,
        "kernels.cells_vectorized": vectorized,
        "kernels.vectorized_share": share(vectorized, vectorized + scalar),
        "setops.joins_hashed": totals["joins_hashed"],
        "setops.join_pairs_skipped_share": share(
            totals["join_pairs_skipped"],
            totals["join_pairs_skipped"] + totals["join_pairs_matched"]),
        "setops.index_sorted_share": share(totals["index_sorted"],
                                            totals["index_groupbys"]),
        "parallel.shards_executed": totals["shards_executed"],
        "parallel.shards_vectorized_share": share(
            totals["shards_vectorized"], totals["shards_executed"]),
        "parallel.shm_bytes": totals["shm_bytes"],
        "parallel.first_dispatch_ms": first_dispatch_ms,
        "obs.profile_overhead_ratio": share(profiled_seconds, plain_seconds),
        "optimizer.cost_qerror_p50":
            statistics.median(errors) if errors else 0.0,
    }


#: the names :func:`explain_pass` reports (nulled together if it fails)
EXPLAIN_METRICS = tuple(
    _explain_metrics(dict.fromkeys(EXPLAIN_COUNTS, 0), 0.0, 0.0, [], 0.0))


def shm_segments_leaked() -> Dict[str, float]:
    """Shut the shard pools down, then count segments still alive: the
    parent's registry plus anything the engine left in ``/dev/shm``."""
    from repro.core import parallel

    parallel.shutdown_pools()
    stragglers = [name for name in os.listdir("/dev/shm")
                  if name.startswith("repro_shm_")] \
        if os.path.isdir("/dev/shm") else []
    return {"parallel.shm_segments_leaked":
            parallel.shm_live_segments() + len(stragglers)}
