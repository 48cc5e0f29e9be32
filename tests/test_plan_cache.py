"""The compiled-query plan cache: keying, LRU bounds, invalidation.

Covers the fingerprint (α-equivalence), the :class:`PlanCache` data
structure in isolation, the session wiring (hits skip the optimize
pipeline; every ``TopEnv`` mutation path invalidates what it must and
nothing more), the closure contract (one codegen per miss, retained from
the first hit on), and — as a property — that a cache hit computes the
same value as a cold pipeline run.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import ast
from repro.core.compile import Compiler
from repro.core.eval import Evaluator
from repro.env.environment import TopEnv
from repro.errors import BottomError, SessionError
from repro.optimizer.engine import Optimizer
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression, parse_program
from repro.system.plan_cache import (
    DEFAULT_CAPACITY,
    PlanCache,
    fingerprint,
)
from repro.system.session import Session
from repro.types.types import TArrow, TNat

from conftest import PARSE_DIGESTS
from expr_strategies import ENV_VALUES, typed_exprs

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much,
                           HealthCheck.function_scoped_fixture],
)


def _nat(value):
    return ast.Const(value)


class TestFingerprint:
    def test_alpha_equivalent_lambdas_share_fingerprint(self):
        f = ast.Lam("x", ast.Var("x"))
        g = ast.Lam("y", ast.Var("y"))
        assert fingerprint(f) == fingerprint(g)

    def test_distinct_structure_distinct_fingerprint(self):
        assert fingerprint(_nat(1)) != fingerprint(_nat(2))
        assert fingerprint(ast.Lam("x", ast.Var("x"))) != \
            fingerprint(ast.Lam("x", _nat(1)))

    def test_free_variables_keyed_by_name(self):
        assert fingerprint(ast.Var("a")) != fingerprint(ast.Var("b"))
        assert fingerprint(ast.Var("a")) == fingerprint(ast.Var("a"))

    def test_bound_vs_free_distinguished(self):
        bound = ast.Lam("x", ast.Var("x"))
        free = ast.Lam("x", ast.Var("z"))
        assert fingerprint(bound) != fingerprint(free)

    def test_fingerprint_is_hashable(self):
        expr = ast.Lam("x", ast.App(ast.Var("x"), _nat(3)))
        {fingerprint(expr): 1}  # must not raise


def _reference_fp(expr, env, counter):
    """The fingerprint walk that asked ``dataclasses.fields`` at every
    node: the per-class label table must reproduce its keys exactly."""
    if isinstance(expr, ast.Var):
        level = env.get(expr.name)
        if level is not None:
            return ("bound", level)
        return ("free", expr.name)
    label = [type(expr).__name__]
    for fld in dataclasses.fields(expr):
        if fld.name in expr.BINDER_FIELDS:
            continue
        value = getattr(expr, fld.name)
        if isinstance(value, ast.Expr):
            continue
        if isinstance(value, tuple) and value \
                and isinstance(value[0], ast.Expr):
            continue
        label.append(value)
    children = []
    for child, bound in expr.parts():
        if bound:
            child_env = dict(env)
            for name in bound:
                counter[0] += 1
                child_env[name] = counter[0]
            children.append(_reference_fp(child, child_env, counter))
        else:
            children.append(_reference_fp(child, env, counter))
    return (tuple(label), tuple(children))


def _corpus_cores():
    env = TopEnv.standard()
    exprs = []
    extra = ["[[]];", "[[0; ]];", "(1, [[2; 3, 4]]);"]
    for text in list(PARSE_DIGESTS) + extra:
        for statement in parse_program(text):
            surface = getattr(statement, "expr", None)
            if surface is not None:
                core = desugar_expression(surface)
                exprs += [core, env.resolve(core)]
    return exprs


class TestFingerprintKeysUnchanged:
    def test_corpus_keys_equal_the_reference_walk(self):
        cores = _corpus_cores()
        assert any(isinstance(node, ast.MkArray) and not node.items
                   for core in cores for node in ast.subterms(core))
        for core in cores:
            assert fingerprint(core) == _reference_fp(core, {}, [0])

    @_SETTINGS
    @given(pair=typed_exprs())
    def test_random_keys_equal_the_reference_walk(self, pair):
        expr, _ = pair
        assert fingerprint(expr) == _reference_fp(expr, {}, [0])

    def test_every_expression_field_is_declared_as_one(self):
        """The label table reads a field's role from its annotation."""
        for cls in ast.Expr.__subclasses__():
            for fld in dataclasses.fields(cls):
                assert "Expr" not in fld.type or fld.type in (
                    "Expr", "Tuple[Expr, ...]"), (cls.__name__, fld.name)


class _FakeEnv:
    """A minimal generation-counter double for unit-testing the cache."""

    def __init__(self):
        self.generation = 0
        self._vals = {}
        self.optimizer = Optimizer()

    def val_generation(self, name):
        return self._vals.get(name, 0)


class TestPlanCacheUnit:
    def _key(self, n):
        return ("k", n)

    def test_lookup_miss_then_hit(self):
        cache, env = PlanCache(4), _FakeEnv()
        assert cache.lookup(self._key(1), env) is None
        cache.insert(self._key(1), _nat(1), "nat", (), env)
        entry = cache.lookup(self._key(1), env)
        assert entry is not None and entry.inferred == "nat"
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_lru_eviction_order(self):
        cache, env = PlanCache(2), _FakeEnv()
        for n in (1, 2):
            cache.insert(self._key(n), _nat(n), "nat", (), env)
        cache.lookup(self._key(1), env)          # 1 is now most recent
        cache.insert(self._key(3), _nat(3), "nat", (), env)
        assert cache.stats.evictions == 1
        assert cache.lookup(self._key(2), env) is None   # 2 was evicted
        assert cache.lookup(self._key(1), env) is not None

    def test_generation_backstop_drops_stale_entry(self):
        # no listener wiring at all: the lookup-time generation check
        # alone must keep a stale plan from being served
        cache, env = PlanCache(4), _FakeEnv()
        cache.insert(self._key(1), _nat(1), "nat", (), env)
        env.generation += 1
        assert cache.lookup(self._key(1), env) is None
        assert cache.stats.invalidations == 1

    def test_val_generation_backstop(self):
        cache, env = PlanCache(4), _FakeEnv()
        cache.insert(self._key(1), _nat(1), "nat", ("m",), env)
        env._vals["m"] = 1
        assert cache.lookup(self._key(1), env) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_name_only_touches_referencing_entries(self):
        cache, env = PlanCache(4), _FakeEnv()
        cache.insert(self._key(1), _nat(1), "nat", ("m",), env)
        cache.insert(self._key(2), _nat(2), "nat", ("other",), env)
        assert cache.invalidate_name("m") == 1
        assert len(cache) == 1
        assert cache.lookup(self._key(2), env) is not None

    def test_invalidate_all_counts_and_clear_does_not(self):
        cache, env = PlanCache(4), _FakeEnv()
        cache.insert(self._key(1), _nat(1), "nat", (), env)
        assert cache.invalidate_all() == 1
        assert cache.stats.invalidations == 1
        cache.insert(self._key(1), _nat(1), "nat", (), env)
        cache.clear()
        assert len(cache) == 0 and cache.stats.invalidations == 1

    def test_zero_capacity_disables(self):
        cache, env = PlanCache(0), _FakeEnv()
        assert not cache.enabled
        assert cache.insert(self._key(1), _nat(1), "nat", (), env) is None
        assert len(cache) == 0

    def test_snapshot_and_render(self):
        cache, env = PlanCache(4), _FakeEnv()
        cache.insert(self._key(1), _nat(1), "nat", (), env)
        snap = cache.snapshot()
        assert snap["entries"] == 1 and snap["capacity"] == 4
        assert {"hits", "misses", "evictions", "invalidations"} <= set(snap)
        text = cache.render()
        assert "plan cache: 1/4 entries" in text and "hits 0" in text


class TestSessionCaching:
    def test_repeat_query_hits(self, session):
        assert session.query_value("1 + 1;") == 2
        assert session.query_value("1 + 1;") == 2
        assert session.plan_cache.stats.hits == 1
        assert session.plan_cache.stats.misses == 1
        assert len(session.plan_cache) == 1

    def test_alpha_equivalent_spellings_share_entry(self, session):
        session.query_value("(fn \\x => x + 1)!2;")
        session.query_value("(fn \\y => y + 1)!2;")
        assert session.plan_cache.stats.hits == 1
        assert len(session.plan_cache) == 1

    def test_optimize_flag_keys_separately(self, session):
        session.query_value("1 + 1;")
        session.optimize = False
        session.query_value("1 + 1;")
        assert session.plan_cache.stats.hits == 0
        assert len(session.plan_cache) == 2

    def test_default_capacity(self, session):
        assert session.plan_cache.capacity == DEFAULT_CAPACITY

    def test_capacity_zero_disables_caching(self):
        session = Session(plan_cache_capacity=0)
        session.query_value("1 + 1;")
        session.query_value("1 + 1;")
        assert session.plan_cache.stats.to_dict() == {
            "hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}

    def test_lru_bound_respected_end_to_end(self):
        session = Session(plan_cache_capacity=2)
        for source in ("1;", "2;", "3;"):
            session.query_value(source)
        assert len(session.plan_cache) == 2
        assert session.plan_cache.stats.evictions == 1

    def test_hit_skips_optimize_span(self, session):
        source = "summap(fn \\x => x * x)!(gen!6);"
        assert session.query_value(source) == 55
        report = session.explain(source)
        assert report.value == 55
        assert report.span("optimize") is None      # hit: no re-optimize
        assert report.span("evaluate") is not None  # but it still evaluates
        cache_span = report.span("plan_cache")
        assert cache_span is not None and cache_span.meta["hit"] is True

    def test_miss_records_plan_cache_span_as_miss(self, session):
        report = session.explain("summap(fn \\x => x)!(gen!4);")
        cache_span = report.span("plan_cache")
        assert cache_span is not None and cache_span.meta["hit"] is False
        assert report.span("optimize") is not None

    def test_explain_embeds_cache_snapshot(self, session):
        session.query_value("1 + 1;")
        report = session.explain("1 + 1;")
        payload = report.to_dict()
        assert payload["plan_cache"]["hits"] >= 1
        assert "== plan cache ==" in report.render()


class TestInvalidation:
    def test_register_co_flushes_cache(self, session):
        session.query_value("1 + 1;")
        session.register_co("dbl", lambda x: x * 2, TArrow(TNat(), TNat()))
        assert len(session.plan_cache) == 0
        assert session.plan_cache.stats.invalidations == 1

    def test_register_primitive_flushes_cache(self, session):
        session.query_value("1 + 1;")
        session.env.register_primitive(
            "tri", lambda v, ev: v * 3, TArrow(TNat(), TNat()))
        assert len(session.plan_cache) == 0

    def test_register_macro_flushes_cache(self, session):
        session.query_value("1 + 1;")
        session.run("macro \\five = 5;")
        assert len(session.plan_cache) == 0
        assert session.plan_cache.stats.invalidations >= 1
        # the macro is actually picked up by the recompiled plan
        assert session.query_value("five + 1;") == 6

    def test_register_rule_flushes_cache(self, session):
        session.query_value("1 + 1;")

        class NoopRule:
            """A rule that never fires (invalidation trigger only)."""
            name = "test-noop"

            def apply(self, expr):
                """Decline every expression."""
                return None

        session.env.register_rule("cleanup", NoopRule())
        assert len(session.plan_cache) == 0
        assert session.plan_cache.stats.invalidations == 1

    def test_val_rebinding_invalidates_referencing_plan(self, session):
        session.run("val \\m = 5;")
        assert session.query_value("m + 1;") == 6
        session.run("val \\m = 7;")
        # stale plan (with 5 baked in) must not be served
        assert session.query_value("m + 1;") == 8

    def test_val_rebinding_spares_non_referencing_plans(self, session):
        session.query_value("1 + 1;")
        entries_before = len(session.plan_cache)
        invalidations_before = session.plan_cache.stats.invalidations
        session.env.set_val("unrelated", 3)
        assert len(session.plan_cache) == entries_before
        assert session.plan_cache.stats.invalidations == invalidations_before
        assert session.query_value("1 + 1;") == 2
        assert session.plan_cache.stats.hits >= 1

    def test_first_time_val_binding_invalidates_plan_naming_it(self, session):
        # a plan compiled while `m` was a plain free variable would be
        # wrong once `m` acquires a value: generation 0 -> 1 must drop it
        from repro.errors import TypeCheckError

        with pytest.raises(TypeCheckError):
            session.query_value("m + 1;")
        session.run("val \\m = 5;")
        assert session.query_value("m + 1;") == 6

    def test_readval_invalidates_referencing_plan(self, session, tmp_path):
        path = tmp_path / "v.co"
        session.run(f'writeval 5 using CO at "{path}";')
        session.run(f'readval \\m using CO at "{path}";')
        assert session.query_value("m + 1;") == 6
        session.run(f'writeval 9 using CO at "{path}";')
        session.run(f'readval \\m using CO at "{path}";')
        assert session.query_value("m + 1;") == 10


def _core(source):
    return desugar_expression(parse_expression(source))


class TestPlanClosures:
    """The closure contract of ``Session.prepare`` (docs/PLAN_CACHE.md)."""

    SOURCE = "summap(fn \\x => x)!(gen!5)"

    def test_miss_generates_code_exactly_once(self, session, monkeypatch):
        """A miss used to compile twice on the closure engine: once in
        ``prepare`` and again, ignoring that closure, in ``_evaluate``."""
        compiled = []
        generate = Compiler.compile

        def counting(self, expr, scope=()):
            compiled.append(expr)
            return generate(self, expr, scope)

        monkeypatch.setattr(Compiler, "compile", counting)
        assert session.query_value(self.SOURCE + ";") == 10
        (entry,) = session.plan_cache._entries.values()
        assert sum(1 for expr in compiled if expr is entry.core) == 1

    def test_closure_is_retained_from_the_first_hit_on(self, session):
        core = _core(self.SOURCE)
        miss = session.prepare(core)
        assert not miss.cached
        assert miss.evaluator is not None     # the miss runs its own closure
        assert miss.entry.evaluator is None   # ... and the entry keeps none
        first = session.prepare(core)
        assert first.cached and first.entry is miss.entry
        assert first.evaluator is first.entry.evaluator is not None
        code = first.evaluator.prepare(first.core)
        for _ in range(3):
            hit = session.prepare(core)
            assert hit.evaluator is first.evaluator
            assert hit.evaluator.prepare(hit.core) is code
        assert session._evaluate(hit) == 10

    def test_observed_run_never_builds_the_plain_closure(self, session,
                                                         monkeypatch):
        built = []
        plan_evaluator = TopEnv.plan_evaluator

        def recording(self):
            built.append(self.obs.enabled)
            return plan_evaluator(self)

        monkeypatch.setattr(TopEnv, "plan_evaluator", recording)
        source = self.SOURCE + ";"
        cold = session.explain(source)            # observed miss
        hot = session.explain(source)             # observed first hit
        assert built == []
        (entry,) = session.plan_cache._entries.values()
        assert entry.evaluator is None
        assert cold.metrics.node_evals == hot.metrics.node_evals > 0
        assert session.query_value(source) == 10  # plain hit: builds it now
        assert built == [False]
        assert entry.evaluator is not None
        assert session.explain(source).metrics.node_evals \
            == cold.metrics.node_evals            # and never runs it probed

    def test_hit_skips_the_pipeline_but_profiles_probed_codegen(self):
        session = Session()
        source = self.SOURCE + ";"
        cold = session.explain(source)
        assert cold.span("optimize") is not None
        hot = session.explain(source)
        assert hot.span("plan_cache").meta["hit"] is True
        assert hot.span("optimize") is None
        # probed code is generated per observed run, outside `evaluate`
        assert cold.span("codegen") is not None
        assert hot.span("codegen") is not None
        assert hot.value == cold.value == 10

    def test_key_has_no_engine_component(self):
        core = _core("1 + 1")
        assert PlanCache.key_for(core, True) == (fingerprint(core), True)


class TestSessionBugfixes:
    """Regression tests for the four pre-existing session bugs."""

    def test_writeval_explain_shows_query_core_not_args(self, session):
        written = {}

        def spy(value, args):
            """Capture the written value (test double)."""
            written["value"] = value

        session.env.drivers.register_writer("SPY", spy)
        report = session.explain('writeval 6 * 7 using SPY at "p";')
        assert written["value"] == 42
        assert "42" in report.core_text          # the query core...
        assert '"p"' not in report.core_text     # ...not the args core

    def test_query_value_empty_source_raises_session_error(self, session):
        with pytest.raises(SessionError, match="empty source"):
            session.query_value("")

    def test_query_value_comment_only_raises_session_error(self, session):
        with pytest.raises(SessionError, match="empty source"):
            session.query_value("(* just a comment *)")

    def test_profile_prefix_requires_delimiter(self, session):
        # ':profilers 1;' must not be parsed as ':profile' + 'rs 1;'
        with pytest.raises(SessionError, match="unknown command"):
            session.run(":profilers 1;")

    def test_unknown_colon_command_rejected(self, session):
        with pytest.raises(SessionError, match="unknown command"):
            session.run(":typo 1 + 1;")

    def test_profile_still_accepted_with_whitespace(self, session):
        outputs = session.run("  :profile 1 + 1;")
        assert outputs[-1].explain is not None
        assert outputs[-1].value == 2


def _cold_value(env, core, optimize):
    try:
        compiled, _ = env.compile(core, optimize=optimize)
        return ("value", Evaluator(env._prim_impls).run(compiled))
    except BottomError:
        return ("bottom",)


@pytest.mark.slow
class TestCachedPlansArePure:
    """A plan served from cache computes exactly the cold-path result."""

    @_SETTINGS
    @given(pair=typed_exprs())
    def test_hit_value_matches_cold_pipeline(self, pair):
        expr, _ = pair
        session = Session()
        for name, value in ENV_VALUES.items():
            session.env.set_val(name, value)
        plan1 = session.prepare(expr)
        plan2 = session.prepare(expr)   # the cache-served plan under test
        assert plan2.cached is True
        for plan in (plan1, plan2):
            try:
                outcome = ("value", session._evaluate(plan))
            except BottomError:
                outcome = ("bottom",)
            assert outcome == _cold_value(session.env, expr, session.optimize)
