"""The AQL top-level session (the inner read-eval-print loop of §4).

A :class:`Session` accepts AQL top-level statements and runs each through
the query-processing pipeline of Section 4.1:

    parse → desugar (Figure 2) → resolve (macro substitution, vals,
    primitives) → typecheck (Figure 1) → optimize (Section 5) → evaluate

with one serving-path refinement: compilation results are memoized in a
per-session :class:`~repro.system.plan_cache.PlanCache`, so a repeated
query (the million-user serving path) skips resolve → typecheck →
optimize — and, from its second repetition on, code generation — and
goes straight to evaluation.  Environment mutations invalidate affected
plans (see ``docs/PLAN_CACHE.md``).

Each statement yields an :class:`Output` that renders exactly like the
paper's sample session::

    typ it : {nat}
    val it = {25, 27, 28}
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core import ast
from repro.env.environment import TopEnv
from repro.errors import BottomError, SessionError
from repro.obs import ExplainReport
from repro.objects.array import Array
from repro.objects.exchange import pretty
from repro.surface.desugar import Desugarer
from repro.surface.parser import parse_program
from repro.surface import sast as S
from repro.system.plan_cache import DEFAULT_CAPACITY, Plan, PlanCache
from repro.types.types import Type, TypeScheme, type_of_value

#: the session-level profiling command recognized by :meth:`Session.run`
PROFILE_PREFIX = ":profile"


def _driver_boundary(fn: Any, *args: Any) -> Any:
    """Run a reader/writer, mapping host ``ValueError`` to ⊥.

    The evaluators map stray ``ValueError`` (e.g. an
    :class:`~repro.objects.array.Array` built with mismatched dims
    inside a primitive) to :class:`~repro.errors.BottomError` at their
    ``run`` boundary; drivers are invoked *outside* that boundary, so
    they need the same mapping — a reader materializing a bad array
    must surface the calculus's ⊥, not a Python traceback.
    """
    try:
        return fn(*args)
    except BottomError:
        raise
    except ValueError as exc:
        raise BottomError(f"host value error: {exc}") from exc


@dataclass
class Output:
    """The result of executing one top-level statement."""

    kind: str            # 'query' | 'val' | 'macro' | 'readval' |
                         # 'writeval' | 'profile'
    name: str            # bound name, or 'it' for bare queries
    type_text: str
    value: Any = None
    has_value: bool = False
    #: the observability report attached by ``:profile``/``explain``
    explain: Optional[ExplainReport] = None

    def render(self, limit: int = 12) -> str:
        """The paper-style echo lines."""
        lines = [f"typ {self.name} : {self.type_text}"]
        if self.has_value:
            lines.append(f"val {self.name} = {pretty(self.value, limit)}")
        elif self.kind == "macro":
            lines.append(f"val {self.name} = {self.name} "
                         f"registered as macro.")
        elif self.kind == "writeval":
            lines.append(f"val {self.name} written.")
        if self.explain is not None:
            lines.append(self.explain.render())
        return "\n".join(lines)


class Session:
    """An AQL top-level session over a :class:`~repro.env.TopEnv`."""

    def __init__(self, env: Optional[TopEnv] = None, optimize: bool = True,
                 plan_cache_capacity: int = DEFAULT_CAPACITY,
                 parallel_workers: Optional[int] = None,
                 parallel_backend: Optional[str] = None,
                 min_cells: Optional[int] = None,
                 setops: Optional[bool] = None):
        self.env = env if env is not None else TopEnv.standard()
        self.optimize = optimize
        # sets nothing; still in the signature because benchmarks/suite
        # passes "process"
        if parallel_backend not in (None, "process"):
            raise SessionError(
                f"parallel backend {parallel_backend!r} was removed: "
                f"shards always run on forked processes"
            )
        # fast-path tuning mutates the TopEnv's shared DispatchConfig in
        # place: every evaluator the env hands out (including plans
        # already resident in the cache) reads it at dispatch time
        if parallel_workers is not None:
            if not isinstance(parallel_workers, int) \
                    or isinstance(parallel_workers, bool) \
                    or parallel_workers < 0:
                raise SessionError(
                    f"parallel_workers must be a non-negative int, "
                    f"got {parallel_workers!r}"
                )
            self.env.parallel.workers = parallel_workers
        if min_cells is not None:
            if not isinstance(min_cells, int) \
                    or isinstance(min_cells, bool) or min_cells < 0:
                raise SessionError(
                    f"min_cells must be a non-negative int, "
                    f"got {min_cells!r}"
                )
            self.env.parallel.min_cells = min_cells
        if setops is not None:
            if not isinstance(setops, bool):
                raise SessionError(
                    f"setops must be a bool, got {setops!r}"
                )
            self.env.parallel.setops = setops
        self._desugarer = Desugarer()
        #: the optimized core of the most recent compilation (EXPLAIN)
        self._last_core: Optional[ast.Expr] = None
        #: the compiled-query plan cache (``plan_cache_capacity=0``
        #: disables caching entirely)
        self.plan_cache = PlanCache(plan_cache_capacity)
        self.env.add_mutation_listener(self.plan_cache.on_env_mutation)

    # -- statement execution -----------------------------------------------------

    def run(self, source: str) -> List[Output]:
        """Execute a block of AQL statements; return their outputs.

        A leading ``:profile`` (delimited by whitespace or end of
        source) runs the remainder of the source with observability
        enabled and attaches an :class:`~repro.obs.ExplainReport`
        (pipeline spans, per-rule firing stats with timings, evaluator
        counters, plan-cache counters) to the last output.  Any other
        leading ``:``-command is rejected with a :class:`SessionError`
        — AQL statements never start with ``:``, so a stray ``:typo``
        cannot silently run as a query.
        """
        stripped = source.lstrip()
        if stripped.startswith(":"):
            head = stripped.split(maxsplit=1)
            command, rest = head[0], (head[1] if len(head) > 1 else "")
            if command == PROFILE_PREFIX:
                return self.profile(rest)
            raise SessionError(
                f"unknown command {command!r} (sessions accept AQL "
                f"statements and the {PROFILE_PREFIX} prefix)"
            )
        tracer = self.env.obs.tracer
        with tracer.span("parse"):
            statements = parse_program(source)
        return [self.execute(statement) for statement in statements]

    def run_script(self, source: str, echo: bool = False) -> List[str]:
        """Execute and render each statement (optionally printing)."""
        rendered = []
        for output in self.run(source):
            text = output.render()
            rendered.append(text)
            if echo:
                print(text)
        return rendered

    def query_value(self, source: str) -> Any:
        """Evaluate a single query expression and return its value.

        A missing final ``;`` is forgiven (it is appended and the parse
        retried), so one-off expressions read naturally.  When the
        retry fails too, the *original* error is re-raised, so its
        position refers to the source the caller actually wrote rather
        than the silently modified retry text.
        """
        from repro.errors import ParseError

        try:
            statements = parse_program(source)
        except ParseError as original:
            try:
                statements = parse_program(source + ";")
            except ParseError:
                raise original from None
        if not statements:
            raise SessionError(
                "empty source: nothing to evaluate"
            )
        outputs = [self.execute(statement) for statement in statements]
        last = outputs[-1]
        if not last.has_value:
            raise SessionError("statement did not produce a value")
        return last.value

    def execute(self, statement: S.Statement) -> Output:
        """Execute one parsed top-level statement."""
        if isinstance(statement, S.Query):
            return self._query(statement.expr, "it")
        if isinstance(statement, S.ValDecl):
            output = self._query(statement.expr, statement.name)
            self.env.set_val(statement.name, output.value)
            return output
        if isinstance(statement, S.MacroDecl):
            body = self._desugarer.desugar(statement.expr)
            sig = self.env.register_macro(statement.name, body)
            return Output("macro", statement.name, _scheme_text(sig))
        if isinstance(statement, S.ReadVal):
            return self._readval(statement)
        if isinstance(statement, S.WriteVal):
            return self._writeval(statement)
        raise SessionError(f"unknown statement {statement!r}")

    # -- compilation (plan-cache aware) --------------------------------------------

    def prepare(self, core: ast.Expr) -> Plan:
        """Compile a core expression into an executable :class:`Plan`,
        consulting the plan cache first.

        A miss runs the full pipeline, generates code exactly once and
        hands that closure to the returned plan; the recorded entry
        keeps only the optimized core.  The first hit generates the
        closure the entry then keeps, so every later hit runs without
        resolve, typecheck, optimize or codegen.  (Most entries of a
        cold workload are never hit again, and a closure is the bulk of
        an entry — see ``docs/PLAN_CACHE.md``.)  Cache keying and
        invalidation are described in :mod:`repro.system.plan_cache`.
        """
        env, cache = self.env, self.plan_cache
        if not cache.enabled:
            compiled, inferred = env.compile(core, optimize=self.optimize)
            return Plan(compiled, inferred,
                        evaluator=self._codegen(compiled),
                        estimated_units=env.cost.estimate(compiled))
        tracer = env.obs.tracer
        with tracer.span("plan_cache"):
            key = cache.key_for(core, self.optimize)
            entry = cache.lookup(key, env)
            tracer.annotate(hit=entry is not None, entries=len(cache))
        if entry is not None:
            if entry.evaluator is None:
                entry.evaluator = self._codegen(entry.core)
            return Plan(entry.core, entry.inferred, cached=True,
                        evaluator=entry.evaluator, entry=entry,
                        estimated_units=entry.estimated_units)
        compiled, inferred = env.compile(core, optimize=self.optimize)
        evaluator = self._codegen(compiled)
        units = env.cost.estimate(compiled)
        entry = cache.insert(key, compiled, inferred, ast.free_vars(core),
                             env, estimated_units=units)
        return Plan(compiled, inferred, evaluator=evaluator, entry=entry,
                    estimated_units=units)

    def _codegen(self, core: ast.Expr) -> Any:
        """An evaluator holding the unprobed closure for ``core``, or
        ``None`` while observability is on: an observed run executes
        probed code (see :meth:`_evaluate`), so the plain closure would
        be built for nothing."""
        if self.env.obs.enabled:
            return None
        evaluator = self.env.plan_evaluator()
        evaluator.prepare(core)
        return evaluator

    # -- helpers ---------------------------------------------------------------------

    def _compile(self, surface: S.SExpr, record: bool = True) -> Plan:
        """Desugar + :meth:`prepare`; ``record=False`` leaves
        ``_last_core`` (the EXPLAIN state) untouched, so auxiliary
        expressions — a driver's args — never clobber the statement's
        query core."""
        with self.env.obs.tracer.span("desugar"):
            core = self._desugarer.desugar(surface)
        plan = self.prepare(core)
        if record:
            self._last_core = plan.core
        return plan

    def _evaluate(self, plan: Plan) -> Any:
        """Run a plan to a value inside the ``evaluate`` span.

        The plan's closure is used only on the unobserved fast path; an
        instrumented run generates probed code through the
        environment's evaluator (the ``codegen`` span) so counters stay
        accurate.

        The run is timed and reported to ``env.cost`` next to the
        plan's unit estimate, which is what EXPLAIN's estimate-vs-observed
        line shows.
        """
        env = self.env
        evaluator = plan.evaluator
        if evaluator is None or env.obs.enabled:
            evaluator = env.evaluator()
            with env.obs.tracer.span("codegen"):
                evaluator.prepare(plan.core)
        with env.obs.tracer.span("evaluate"):
            started = time.perf_counter()
            value = evaluator.run(plan.core)
            env.cost.record_run(plan.estimated_units,
                                time.perf_counter() - started)
            return value

    def _query(self, surface: S.SExpr, name: str) -> Output:
        plan = self._compile(surface)
        value = self._evaluate(plan)
        return Output("query" if name == "it" else "val", name,
                      str(plan.inferred), value, has_value=True)

    def _readval(self, statement: S.ReadVal) -> Output:
        reader = self.env.drivers.reader(statement.reader)
        plan = self._compile(statement.args)
        args_value = self._evaluate(plan)
        value = _driver_boundary(reader, args_value)
        self.env.set_val(statement.name, value)
        if isinstance(value, Array):
            value.dense_block()  # probed once: the tag types the array
        value_type = type_of_value(value)
        return Output("readval", statement.name, str(value_type),
                      value, has_value=True)

    def _writeval(self, statement: S.WriteVal) -> Output:
        writer = self.env.drivers.writer(statement.writer)
        plan = self._compile(statement.expr)
        value = self._evaluate(plan)
        args_plan = self._compile(statement.args, record=False)
        args_value = self._evaluate(args_plan)
        _driver_boundary(writer, value, args_value)
        return Output("writeval", "it", str(plan.inferred))

    # -- observability (EXPLAIN / :profile) ----------------------------------------

    def profile(self, source: str) -> List[Output]:
        """Execute ``source`` with observability on; attach the report.

        The last output carries an :class:`~repro.obs.ExplainReport`
        covering the whole block (the optimizer stats and the rendered
        core describe the block's final query).  The environment's
        observability state is captured up front and restored exactly
        afterwards: an uninstrumented session returns to zero-cost
        nulls, and a caller that had observability on gets its own
        tracer and accumulated counters back untouched.
        """
        from repro.objects import dense

        obs = self.env.obs
        saved = obs.capture()
        obs.enable()
        dense_before = dense.COUNTERS.snapshot()
        try:
            outputs = self.run(source)
            if not outputs:
                raise SessionError("nothing to profile")
            spans = obs.tracer.finish()
            dense_delta = {
                key: value - dense_before[key]
                for key, value in dense.COUNTERS.snapshot().items()
            }
            last = outputs[-1]
            last.explain = ExplainReport(
                source=source.strip(),
                type_text=last.type_text,
                core=self._last_core,
                spans=spans,
                phase_stats=dict(self.env.optimizer.report()),
                metrics=obs.metrics,
                cache=self.plan_cache.snapshot(),
                dense=dense_delta,
                cost=self.env.cost.snapshot(),
                value=last.value,
                has_value=last.has_value,
            )
            if last.kind == "query":
                last.kind = "profile"
            return outputs
        finally:
            obs.restore(saved)

    def explain(self, source: str) -> ExplainReport:
        """The API form of ``:profile``: run one query instrumented and
        return the :class:`~repro.obs.ExplainReport` directly."""
        outputs = self.profile(source)
        report = outputs[-1].explain
        assert report is not None  # profile always attaches one
        return report

    # -- the SML-side registration view (Section 4.1) ------------------------------

    def register_co(self, name: str, fn, signature: TypeScheme | Type,
                    replace: bool = False) -> None:
        """The paper's ``TopEnv.RegisterCO``: add an external primitive."""
        self.env.register_co(name, fn, signature, replace)


def _scheme_text(scheme: TypeScheme) -> str:
    return str(scheme.body)


__all__ = ["Session", "Output", "PROFILE_PREFIX"]
