"""The AQL top-level session (the inner read-eval-print loop of §4).

A :class:`Session` accepts AQL top-level statements and runs each through
the query-processing pipeline of Section 4.1:

    parse → desugar (Figure 2) → resolve (macro substitution, vals,
    primitives) → typecheck (Figure 1) → optimize (Section 5) → evaluate

with one serving-path refinement: compilation results are memoized in a
per-session :class:`~repro.system.plan_cache.PlanCache`, so a repeated
query (the million-user serving path) skips resolve → typecheck →
optimize — and, from its second repetition on, code generation — and
goes straight to evaluation; a one-query source run again by its exact
text skips parse and desugar too, running the entry's plan function and
echoing the type text the entry keeps — observed or not, and from
:meth:`Session.query_value` too.  Whether a kept plan may still run is
the cache's alone to decide (see ``docs/PLAN_CACHE.md``).

Each statement yields an :class:`Output` that renders exactly like the
paper's sample session::

    typ it : {nat}
    val it = {25, 27, 28}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core import ast
from repro.env.environment import TopEnv
from repro.errors import (BottomError, LexError, NestingError, ParseError,
                          SessionError)
from repro.obs import ExplainReport
from repro.objects.array import Array
from repro.objects.exchange import pretty
from repro.surface.desugar import Desugarer
from repro.surface.lexer import END, lex
from repro.surface.parser import parse_program
from repro.surface import sast as S
from repro.system.plan_cache import (DEFAULT_CAPACITY, Plan, PlanCache,
                                     PlanEntry)
from repro.types.types import (NUMERIC, TBase, Type, TypeScheme,
                               free_tvars)
from repro.types.unify import zonk

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


def _shown(t: Type) -> str:
    """``t`` as an echo prints it: its type variables renamed ``'a``,
    ``'b``, … (``#a`` … for a numeric one) in order of first appearance,
    so the text does not depend on how many variables the process has
    minted before.  (Error messages keep the numbers.)"""
    names = {ident: TBase(("#" if var.constraint == NUMERIC else "'")
                          + chr(ord("a") + n % 26)
                          + (str(n // 26) if n >= 26 else ""))
             for n, (ident, var) in enumerate(free_tvars(t).items())}
    return str(zonk(t, names) if names else t)


def _ends_in_semicolon(source: str) -> bool:
    """Whether the last token of ``source`` is ``;``.  Only a source
    ending in ``*)`` is lexed, to see past its trailing comments."""
    tail = source.rstrip()
    if not tail.endswith("*)"):
        return tail.endswith(";")
    try:
        return lex(source)[0][-2:] == [";", END]
    except LexError:  # appending changes nothing: the same error
        return False


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
                 min_cells: Optional[int] = None):
        self.env = env if env is not None else TopEnv.standard()
        self.optimize = optimize
        # parallel_workers and parallel_backend set nothing (the sharded
        # executor is deleted); still in the signature because
        # benchmarks/suite passes them
        if parallel_backend not in (None, "process"):
            raise SessionError(
                f"parallel backend {parallel_backend!r} was removed: "
                f"every statement runs in this process"
            )
        # fast-path tuning mutates the TopEnv's shared DispatchConfig in
        # place: every evaluator the env hands out (including plans
        # already resident in the cache) reads it at dispatch time
        if min_cells is not None:
            if not isinstance(min_cells, int) \
                    or isinstance(min_cells, bool) or min_cells < 0:
                raise SessionError(
                    f"min_cells must be a non-negative int, "
                    f"got {min_cells!r}"
                )
            self.env.dispatch.min_cells = min_cells
        self._desugarer = Desugarer()
        #: the optimized core of the most recent compilation (EXPLAIN)
        #: and the source emitted for it by the last observed run
        self._last_core: Optional[ast.Expr] = None
        self._last_code = ""
        #: the compiled-query plan cache (``plan_cache_capacity=0``
        #: disables caching entirely)
        self.plan_cache = PlanCache(plan_cache_capacity)

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
        return self._run(source)

    def _run(self, source: str) -> List[Output]:
        """Parse and execute ``source``; a one-query source is recorded
        in the statement table by its text, and a recorded text runs its
        kept plan without parse or desugar, observed or not."""
        env = self.env
        entry = self.plan_cache.probe(source, self.optimize, env)
        if entry is not None:
            return [self.execute(entry)]
        with env.obs.tracer.span("parse"):
            statements = parse_program(source)
        text = source if len(statements) == 1 else None
        return [self.execute(statement, text) for statement in statements]

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

        A missing final ``;`` is forgiven: the source runs with one
        appended unless its last token is one already (past any
        trailing comment), through the statement table as in
        :meth:`run`.  If that text fails to parse (so nothing ran), the
        caller's own text runs and raises the caller's own error.
        """
        text = source if _ends_in_semicolon(source) else source + ";"
        try:
            outputs = self._run(text)
        except ParseError:
            outputs = None
        if outputs is None:  # outside the handler: no chained error
            outputs = self._run(source)
        if not outputs:
            raise SessionError(
                "empty source: nothing to evaluate"
            )
        last = outputs[-1]
        if not last.has_value:
            raise SessionError("statement did not produce a value")
        return last.value

    def execute(self, statement: S.Statement | PlanEntry,
                text: Optional[str] = None) -> Output:
        """Execute a parsed statement (``text``: the source, if it held
        only this one) or a statement-table entry.  A ``RecursionError``
        from any stage (the desugarer recurses once per operator of a
        chain the parser read by a loop) is a ``NestingError``."""
        try:
            return self._execute(statement, text)
        except RecursionError:
            raise NestingError(
                "expression too deeply nested for this host's stack"
            ) from None

    def _execute(self, statement: S.Statement | PlanEntry,
                 text: Optional[str]) -> Output:
        if isinstance(statement, PlanEntry):  # a statement-table hit
            self._last_core = statement.core
            if self.env.obs.enabled:  # its probed plan, typed like the kept
                with self.env.obs.tracer.span(
                        "plan_cache", hit=True, entries=len(self.plan_cache)):
                    plan = Plan(statement.core, statement.echo, cached=True,
                                entry=statement)
                return self._answer(plan, "it")
            return Output("query", "it", statement.echo, self._kept(
                statement).run(statement.core), has_value=True)
        if isinstance(statement, S.Query):
            plan = self._compile(statement.expr)
            if text is not None:
                self.plan_cache.record(text, self.optimize, plan.entry)
            return self._answer(plan, "it")
        if isinstance(statement, S.ValDecl):
            output = self._answer(self._compile(statement.expr),
                                  statement.name)
            self.env.set_val(statement.name, output.value)
            return output
        if isinstance(statement, S.MacroDecl):
            body = self._desugarer.desugar(statement.expr)
            sig = self.env.register_macro(statement.name, body)
            return Output("macro", statement.name, _shown(sig.body))
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
        hands that plan function to the returned plan; the recorded
        entry keeps only the optimized core.  The first hit generates
        the function the entry then keeps, so every later hit runs
        without resolve, typecheck, optimize or codegen.  (Most entries
        of a cold workload are never hit again, and the function is the
        bulk of an entry — see ``docs/PLAN_CACHE.md``.)  Cache keying and
        invalidation are described in :mod:`repro.system.plan_cache`.
        """
        env, cache = self.env, self.plan_cache
        if not cache.enabled:
            compiled, inferred = env.compile(core, optimize=self.optimize)
            return Plan(compiled, _shown(inferred),
                        evaluator=self._codegen(compiled))
        tracer = env.obs.tracer
        with tracer.span("plan_cache"):
            key = cache.key_for(core, self.optimize)
            entry = cache.lookup(key, env)
            tracer.annotate(hit=entry is not None, entries=len(cache))
        if entry is not None:
            return Plan(entry.core, entry.echo, cached=True,
                        evaluator=self._kept(entry), entry=entry)
        compiled, inferred = env.compile(core, optimize=self.optimize)
        evaluator = self._codegen(compiled)
        echo = _shown(inferred)
        entry = cache.insert(key, compiled, echo, ast.free_vars(core), env)
        return Plan(compiled, echo, evaluator=evaluator, entry=entry)

    def _kept(self, entry: PlanEntry) -> Any:
        """The evaluator of the plan a cache entry keeps, emitted on the
        entry's first hit (``None`` while observability is on)."""
        if entry.evaluator is None:
            entry.evaluator = self._codegen(entry.core, entry)
        return entry.evaluator

    def _codegen(self, core: ast.Expr, entry: PlanEntry | None = None) -> Any:
        """An evaluator holding the unprobed plan function for ``core``,
        or ``None`` while observability is on: an observed run executes
        probed code (see :meth:`_evaluate`), so the plain one would be
        built for nothing.  A plan the cache keeps (``entry``) is typed
        first and drops the host-type guards its types prove."""
        if self.env.obs.enabled:
            return None
        evaluator = self.env.plan_evaluator()
        evaluator.prepare(core, types=entry.node_types(self.env)
                          if entry is not None else None)
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

        The plan's code is used only on the unobserved fast path; an
        instrumented run generates probed code through the
        environment's evaluator (the ``codegen`` span) so counters stay
        accurate, and keeps its source for EXPLAIN.  A hit's probed code
        is typed like the plan the cache keeps, so EXPLAIN shows the text
        a hit runs.
        """
        env = self.env
        evaluator = plan.evaluator
        if evaluator is None or env.obs.enabled:
            evaluator = env.evaluator()
            with env.obs.tracer.span("codegen"):
                evaluator.prepare(plan.core, types=plan.entry.node_types(
                    env) if plan.cached else None)
            if plan.core is self._last_core:
                self._last_code = evaluator.source
        with env.obs.tracer.span("evaluate"):
            return evaluator.run(plan.core)

    def _answer(self, plan: Plan, name: str) -> Output:
        value = self._evaluate(plan)
        return Output("query" if name == "it" else "val", name,
                      plan.echo, value, has_value=True)

    def _readval(self, statement: S.ReadVal) -> Output:
        reader = self.env.drivers.reader(statement.reader)
        plan = self._compile(statement.args)
        args_value = self._evaluate(plan)
        value = _driver_boundary(reader, args_value)
        self.env.set_val(statement.name, value)
        if isinstance(value, Array):
            value.dense_block()  # probed once: the tag types the array
        return Output("readval", statement.name,
                      _shown(self.env.val_scheme(statement.name).body),
                      value, has_value=True)

    def _writeval(self, statement: S.WriteVal) -> Output:
        writer = self.env.drivers.writer(statement.writer)
        plan = self._compile(statement.expr)
        value = self._evaluate(plan)
        args_plan = self._compile(statement.args, record=False)
        args_value = self._evaluate(args_plan)
        _driver_boundary(writer, value, args_value)
        return Output("writeval", "it", plan.echo)

    # -- observability (EXPLAIN / :profile) ----------------------------------------

    def profile(self, source: str) -> List[Output]:
        """Execute ``source`` with observability on; attach the report.

        The last output carries an :class:`~repro.obs.ExplainReport`
        covering the whole block (the rendered core describes the
        block's final query, the optimizer stats the phases that ran in
        the block: none for a plan-cache hit).  The environment's
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
        stats_before = self.env.optimizer.report()
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
                phase_stats={  # a phase that ran installed new stats
                    name: stats for name, stats
                    in self.env.optimizer.report().items()
                    if stats is not stats_before.get(name)},
                metrics=obs.metrics,
                cache=self.plan_cache.snapshot(),
                dense=dense_delta,
                code=self._last_code,
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


__all__ = ["Session", "Output", "PROFILE_PREFIX"]
