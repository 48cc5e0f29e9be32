"""The compiled-query plan cache: keying, LRU bounds, invalidation.

Covers the fingerprint (α-equivalence), the :class:`PlanCache` data
structure in isolation, the session wiring (hits skip the optimize
pipeline; every ``TopEnv`` mutation path invalidates what it must and
nothing more), the closure contract (one codegen per miss, retained from
the first hit on), and — as a property — that a cache hit computes the
same value as a cold pipeline run.
"""

import dataclasses
import gc
import re
import tempfile
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core.ast import fingerprint
from repro.core.compile import Compiler
from repro.core.eval import Evaluator
from repro.env.environment import TopEnv
from repro.errors import (BottomError, NestingError, ParseError,
                          SessionError)
from repro.objects.array import Array
from repro.optimizer.engine import Optimizer, Rule
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression, parse_program
from repro.system.plan_cache import DEFAULT_CAPACITY, PlanCache
from repro.system.session import Session
from repro.types.types import (TArray, TArrow, TNat, TReal, TSet,
                               fresh_tvar)
from repro.types.unify import generalize

from conftest import PARSE_DIGESTS, val_bindings
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
    if isinstance(expr, ast.MkArray):
        label.append(len(expr.dims))
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

    def test_every_expression_field_is_a_declared_child(self):
        """A field annotated ``Expr`` or ``Tuple[Expr, ...]`` is declared
        in ``CHILDREN`` (``*`` marking the tuple), and each declared
        child is such a field: the label fields are the rest."""
        marks = {"Expr": "", "Tuple[Expr, ...]": "*"}
        for cls in ast.Expr.__subclasses__():
            typed = {marks.get(fld.type, "?") + fld.name
                     for fld in dataclasses.fields(cls)
                     if "Expr" in fld.type}
            assert typed == set(cls.CHILDREN), cls.__name__
            assert len(cls.CHILDREN) == len(typed)


class _FakeEnv:
    """A minimal environment double for unit-testing the cache: a
    generation counter and one val scheme object per binding."""

    def __init__(self):
        self.generation = 0
        self._schemes = {}
        self.optimizer = Optimizer()

    def val_scheme(self, name):
        return self._schemes.get(name)

    def bind(self, name, value_type):
        """A (re)binding of ``name`` to a value of ``value_type``."""
        self._schemes[name] = generalize(value_type, {})


class TestPlanCacheUnit:
    def _key(self, n):
        return ("k", n)

    def test_lookup_miss_then_hit(self):
        cache, env = PlanCache(4), _FakeEnv()
        assert cache.lookup(self._key(1), env) is None
        cache.insert(self._key(1), _nat(1), "nat", (), env)
        entry = cache.lookup(self._key(1), env)
        assert entry is not None and entry.echo == "nat"
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
        # a new scheme object drops the entry when the name's type changed,
        # when the name became a val, or when its type has variables
        cache, env = PlanCache(4), _FakeEnv()
        env.bind("m", TNat())
        env.bind("e", TSet(fresh_tvar()))
        for n, name in enumerate(("m", "fresh", "e")):
            cache.insert(self._key(n), _nat(n), "nat", (name,), env)
        env.bind("m", TReal())
        env.bind("fresh", TNat())
        env.bind("e", TSet(fresh_tvar()))
        for n in range(3):
            assert cache.lookup(self._key(n), env) is None
        assert cache.stats.invalidations == 3 and len(cache) == 0

    def test_same_type_rebinding_keeps_referencing_entries(self):
        cache, env = PlanCache(4), _FakeEnv()
        env.bind("m", TArray(TNat(), 2))
        cache.insert(self._key(1), _nat(1), "nat", ("m",), env)
        cache.insert(self._key(2), _nat(2), "nat", ("other",), env)
        env.bind("m", TArray(TNat(), 2))
        for n in (1, 2, 1):
            assert cache.lookup(self._key(n), env) is not None
        assert cache.stats.invalidations == 0 and len(cache) == 2
        # the entry now records the new binding's scheme object
        assert cache.lookup(self._key(1), env).vals["m"] is \
            env.val_scheme("m")

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

    def test_array_literals_of_one_cell_sequence_key_apart(self, session):
        """``[[2, 1; 5]]`` and ``[[2; 1, 5]]`` list the same nodes; the
        rank keeps the second from reusing the first's plan."""
        with pytest.raises(BottomError):
            session.query_value("[[2, 1; 5]];")
        assert session.query_value("[[2; 1, 5]];") == Array((2,), [1, 5])
        assert len(session.plan_cache) == 2

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
        session.run(r"val \M = [[i * 3 + j + 1 | \i < 3, \j < 3]];")
        for source, value in (
                ("summap(fn \\x => x * x)!(gen!6);", 55),
                # macro-heavy: splicing and optimizing dominate a miss
                ("trace!(matmul!(matmul!(M, transpose!(M)), "
                 "identity_mat!3));", 285)):
            assert session.query_value(source) == value
            report = session.explain(source)
            assert report.value == value
            assert report.span("optimize") is None      # hit: no re-optimize
            assert report.span("evaluate") is not None  # but it evaluates
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

    def test_a_rebound_val_hits_and_round_trips_through_co(self, session,
                                                            tmp_path):
        source = r"[[ A[i] * 2 | \i < len!A ]];"
        session.env.set_val("A", Array.from_list([1, 2]))
        assert session.query_value(source) == Array.from_list([2, 4])  # miss
        assert session.query_value(source) == Array.from_list([2, 4])  # hit
        session.run(r"val \A = [[5, 6, 7]];")
        assert session.query_value(source) == Array.from_list([10, 12, 14])
        assert session.query_value(source) == Array.from_list([10, 12, 14])
        stats = session.plan_cache.stats   # the val's literal is a miss too
        assert (stats.hits, stats.misses, stats.invalidations) == (3, 2, 0)
        path = tmp_path / "a.co"
        session.run(f'writeval A using CO at "{path}";')
        session.run(f'readval \\B using CO at "{path}";')
        assert session.query_value("B;") == Array.from_list([5, 6, 7])
        assert Session(plan_cache_capacity=0).query_value("1 + 1;") == 2


def _assert_flushed_by_the_next_query(session):
    """The cache held ``1 + 1;``'s entry before a registration: the next
    query drops it, counted, and its own plan is the only entry left."""
    assert session.query_value("2 + 2;") == 4
    assert len(session.plan_cache) == 1
    assert session.plan_cache.stats.invalidations == 1


class TestInvalidation:
    def test_register_co_flushes_cache(self, session):
        session.query_value("1 + 1;")
        session.register_co("dbl", lambda x: x * 2, TArrow(TNat(), TNat()))
        _assert_flushed_by_the_next_query(session)

    def test_register_primitive_flushes_cache(self, session):
        session.query_value("1 + 1;")
        session.env.register_primitive(
            "tri", lambda v, ev: v * 3, TArrow(TNat(), TNat()))
        _assert_flushed_by_the_next_query(session)

    def test_register_macro_flushes_cache(self, session):
        session.query_value("1 + 1;")
        session.run("macro \\five = 5;")
        _assert_flushed_by_the_next_query(session)
        # the macro is actually picked up by the recompiled plan
        assert session.query_value("five + 1;") == 6

    def test_register_rule_flushes_cache(self, session):
        session.query_value("1 + 1;")
        # a rule that never fires: an invalidation trigger only
        session.env.register_rule("bounds", Rule("test-noop", lambda e: None))
        _assert_flushed_by_the_next_query(session)

    def test_a_dropped_session_leaves_no_cache_behind(self):
        """The environment holds no reference to a session's cache: a
        session dropped from a shared environment is collected whole,
        and later registrations reach no cache of it."""
        env = TopEnv.standard()
        keeper = Session(env)
        dropped = Session(env)
        dropped.query_value("1 + 1;")
        cache = weakref.ref(dropped.plan_cache)
        del dropped
        gc.collect()
        assert cache() is None
        keeper.query_value("1 + 1;")
        env.register_co("dbl", lambda x: x * 2, TArrow(TNat(), TNat()))
        assert keeper.query_value("dbl!(1 + 1);") == 4
        assert keeper.plan_cache.stats.invalidations == 1

    def test_val_rebinding_invalidates_referencing_plan(self, session):
        session.run("val \\m = 5;")
        assert session.query_value("m + 1;") == 6
        session.run("val \\m = 7;")
        # the plan reads m when it runs: the old value is never served
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

        def counting(self, expr, *args):
            compiled.append(expr)
            return generate(self, expr, *args)

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

    def test_a_kept_plan_is_typed_once(self, session, monkeypatch):
        """The first hit's typed emission types the kept core; every
        later probed emission reuses that table."""
        typed = []
        node_types = TopEnv.node_types

        def counting(self, core):
            typed.append(core)
            return node_types(self, core)

        monkeypatch.setattr(TopEnv, "node_types", counting)
        source = self.SOURCE + ";"
        assert session.query_value(source) == 10            # miss
        assert session.query_value(source) == 10            # hit
        for _ in range(3):
            (output,) = session.run(":profile " + source)
            assert output.value == 10
            assert output.explain.span("plan_cache").meta["hit"] is True
        (entry,) = session.plan_cache._entries.values()
        assert typed == [entry.core]

    def test_key_has_no_engine_component(self):
        core = _core("1 + 1")
        assert PlanCache.key_for(core, True) == (fingerprint(core), True)


def _parses(monkeypatch):
    """Record every source the session hands to the parser."""
    from repro.system import session as session_module

    seen = []
    parse = session_module.parse_program

    def recording(source):
        seen.append(source)
        return parse(source)

    monkeypatch.setattr(session_module, "parse_program", recording)
    return seen


#: statement sequences for the counting tests: a text runs through
#: ``Session.run``, a pair ``(name, value)`` binds a val behind it
_COUNTED = {
    "repeat": ["1 + 1;", "1 + 1;", "1 + 1;"],
    "stale": [("A", Array.from_list([1, 2])), "(A, 1);", "(A, 1);",
              ("A", Array.from_list([0.5])), "(A, 1);", "(A, 1);"],
    "same type": [("A", Array.from_list([1, 2])), "(A, 1);",
                  ("A", Array.from_list([3])), "(A, 1);", "(A, 1);"],
    "whitespace": ["1 + 1;", "1  +  1 ;", "1 + 1;", "1  +  1 ;"],
    "evicted": ["1;", "2;", "3;", "1;", "2;", "3;", "1;"],
}


class TestStatementTable:
    """A source that is one query is remembered by its text: running the
    same text again skips parse and desugar, and finds the entry the
    fingerprint would have found, under the same checks and counts."""

    TEXT = r"summap(fn \x => x * x)!(gen!6);"

    @staticmethod
    def _counts(session):
        return session.plan_cache.stats.to_dict()

    def test_a_table_hit_counts_one_hit_and_parses_nothing(
            self, session, monkeypatch):
        parsed = _parses(monkeypatch)
        assert session.run(self.TEXT)[0].value == 55
        before = self._counts(session)
        (output,) = session.run(self.TEXT)
        assert (output.kind, output.name, output.type_text,
                output.value) == ("query", "it", "nat", 55)
        assert parsed == [self.TEXT]
        assert self._counts(session) == {**before, "hits": before["hits"] + 1}
        assert session._last_core is \
            next(iter(session.plan_cache._entries.values())).core

    def test_a_stale_entry_counts_one_miss_and_one_invalidation(
            self, session, monkeypatch):
        session.env.set_val("A", Array.from_list([1, 2]))
        session.run("(A, 1);")
        session.run("(A, 1);")
        session.env.set_val("A", Array.from_list([0.5]))
        before = self._counts(session)
        parsed = _parses(monkeypatch)
        (output,) = session.run("(A, 1);")
        assert output.type_text == "([[real]]_1 * nat)"
        assert parsed == ["(A, 1);"]          # judged by the fallback path
        assert self._counts(session) == {
            **before, "misses": before["misses"] + 1,
            "invalidations": before["invalidations"] + 1}

    def test_a_whitespace_variant_is_one_fingerprint_hit(self, session,
                                                         monkeypatch):
        session.run("1 + 1;")
        before = self._counts(session)
        parsed = _parses(monkeypatch)
        assert session.run("1  +  1 ;")[0].value == 2
        assert parsed == ["1  +  1 ;"]
        assert self._counts(session) == {**before, "hits": before["hits"] + 1}

    @pytest.mark.parametrize("case", sorted(_COUNTED))
    def test_counts_equal_those_with_the_table_bypassed(self, case):
        tabled = Session(plan_cache_capacity=2)
        bypassed = Session(plan_cache_capacity=2)
        for step in _COUNTED[case]:
            if isinstance(step, tuple):
                tabled.env.set_val(*step)
                bypassed.env.set_val(*step)
                continue
            (output,) = tabled.run(step)
            # execute() of a parsed statement never sees the table
            (expected,) = [bypassed.execute(statement)
                           for statement in parse_program(step)]
            assert (output.value, output.type_text) == \
                (expected.value, expected.type_text)
            assert self._counts(tabled) == self._counts(bypassed), step
        assert tabled.plan_cache._texts    # the table did serve

    def test_each_optimize_mode_gets_its_own_plan(self, session):
        text = "[[1, 2, 3]][5];"
        reasons = {}
        for optimize in (True, False, True, False):
            session.optimize = optimize
            with pytest.raises(BottomError) as caught:
                session.run(text)
            reasons.setdefault(optimize, set()).add(caught.value.reason)
        assert reasons == {True: {"index out of bounds"},
                           False: {"index (5,) out of bounds for dims (3,)"}}
        assert self._counts(session)["hits"] == 2

    def test_a_redefined_macro_replans(self, session):
        session.run(r"macro \c = 1;")
        assert session.run("c + 1;")[0].value == 2
        assert session.run("c + 1;")[0].value == 2
        session.env.register_macro("c", _core("5"), replace=True)
        assert session.run("c + 1;")[0].value == 6
        assert session.run("c + 1;")[0].value == 6

    def test_a_name_between_macro_and_val_replans(self, session):
        cold = Session(plan_cache_capacity=0)
        script = [r"macro \c = 1;", "c + 1;", "c + 1;", r"val \c = 2.5;",
                  "c + 1;", r"val \d = 1;", "d + 1;", "d + 1;",
                  r"macro \d = 41;", "d + 1;", "d + 1;"]
        for text in script:
            assert _statement_outcome(session, text) == \
                _statement_outcome(cold, text), text
        assert session.run("d + 1;")[0].value == 42
        assert session.run("c + 1;")[0].value == 2

    def test_a_val_of_another_type_replans(self, session):
        session.run(r"val \v = 1;")
        assert session.run("(v, 1);")[0].type_text == "(nat * nat)"
        assert session.run("(v, 1);")[0].type_text == "(nat * nat)"
        session.run(r"val \v = 2.5;")
        (output,) = session.run("(v, 1);")
        assert (output.value, output.type_text) == ((2.5, 1), "(real * nat)")

    def test_profile_of_a_tabled_text_shows_the_hit(self, session,
                                                    monkeypatch):
        """``:profile`` of a repeat takes the table as a plain run does:
        no parse or desugar, one counted hit, and the probed plan typed
        like the kept one — the counters and code of a fingerprint hit."""
        session.run(self.TEXT)
        session.run(self.TEXT)                 # a table hit
        before = self._counts(session)
        parsed = _parses(monkeypatch)
        (output,) = session.run(":profile " + self.TEXT)
        report = output.explain
        assert parsed == []
        assert [span.name for span in report.spans.children] == \
            ["plan_cache", "codegen", "evaluate"]
        assert report.span("plan_cache").meta["hit"] is True
        assert report.value == 55
        assert self._counts(session) == {**before, "hits": before["hits"] + 1}
        fingerprint_hit = session.explain(self.TEXT[:-1] + " ;")
        assert fingerprint_hit.span("parse") is not None
        assert fingerprint_hit.to_dict()["metrics"] == \
            report.to_dict()["metrics"]
        assert fingerprint_hit.code == report.code

    @pytest.mark.parametrize("source", [
        "1; 1;", r"val \x = 3;", r"macro \m = 4;",
        'writeval [[1]] using CO at "{path}";',
        'readval \\y using CO at "{path}";'])
    def test_only_one_query_sources_are_recorded(self, session, tmp_path,
                                                 source):
        session.run(f'writeval [[1]] using CO at "{tmp_path}/a.co";')
        source = source.format(path=f"{tmp_path}/a.co")
        for _ in range(1 if "macro" in source else 2):
            session.run(source)
        assert session.plan_cache._texts == {}

    def test_capacity_zero_records_nothing(self):
        session = Session(plan_cache_capacity=0)
        for _ in range(3):
            assert session.run(self.TEXT)[0].value == 55
        assert session.plan_cache._texts == {}
        assert set(self._counts(session).values()) == {0}

    def test_the_table_holds_at_most_capacity_texts(self, monkeypatch):
        session = Session(plan_cache_capacity=3)
        texts = [f"{n} + 1;" for n in range(8)]
        for text in texts + texts[-3:]:
            session.run(text)
            assert len(session.plan_cache._texts) <= 3
        assert [text for text, _ in session.plan_cache._texts] == texts[-3:]
        parsed = _parses(monkeypatch)
        session.run(texts[-1])
        assert parsed == []

    def test_invalidate_all_and_clear_empty_the_table(self, session):
        for flush in (session.plan_cache.invalidate_all,
                      session.plan_cache.clear):
            session.run(self.TEXT)
            assert session.plan_cache._texts
            flush()
            assert session.plan_cache._texts == {}

    def test_query_value_uses_the_table(self, session, monkeypatch):
        parsed = _parses(monkeypatch)
        for _ in range(3):
            assert session.query_value(self.TEXT) == 55
        assert parsed == [self.TEXT]
        assert self._counts(session)["hits"] == 2
        assert list(session.plan_cache._texts) == [(self.TEXT, True)]

    def test_query_value_records_the_text_that_parsed(self, session,
                                                      monkeypatch):
        parsed = _parses(monkeypatch)
        for _ in range(3):
            assert session.query_value("2 * 3") == 6
        # the first call parses the text with its final `;` and records
        # it; every later call is a table hit, with no parse
        assert parsed == ["2 * 3;"]
        assert list(session.plan_cache._texts) == [("2 * 3;", True)]
        assert self._counts(session)["hits"] == 2
        # run() never reaches the retry's entry through the caller's text
        with pytest.raises(ParseError):
            session.run("2 * 3")

    def test_query_value_errors_are_unchanged(self, session):
        assert session.query_value("1 + 1") == 2  # the table holds "1 + 1;"
        for source in ("(1", "1 +", "1 + 1 +", "(1 (* c *)",
                       "1 +; (* c *)"):
            with pytest.raises(ParseError) as caught:
                session.query_value(source)
            with pytest.raises(ParseError) as direct:
                parse_program(source)
            assert str(caught.value) == str(direct.value)
        with pytest.raises(SessionError, match="empty source"):
            session.query_value("")
        with pytest.raises(SessionError, match="did not produce"):
            session.query_value(r"macro \m = 4;")

    def test_query_value_answers_a_source_ending_in_a_comment(
            self, session, monkeypatch):
        parsed = _parses(monkeypatch)
        source = "2 * 3; (* done *)"
        for _ in range(3):
            assert session.query_value(source) == 6
        # its last token is `;`: it runs as is, then from the table
        assert parsed == [source]
        assert session.query_value("2 * 3;  ") == 6   # ends in `;`: as is
        assert parsed[1:] == ["2 * 3;  "]
        assert session.query_value("2 * 3 (* c *)") == 6  # `;` appended
        assert parsed[2:] == ["2 * 3 (* c *);"]


class TestTableHitPath:
    """A statement-table hit runs the entry's kept plan and builds its
    output from the entry: the same output, error mappings and
    bookkeeping as the parsed path."""

    TEXT = r"(fn \s => (s, s))!{};"      # a polymorphic type: ({'a} * {'a})

    @staticmethod
    def _output(session, text):
        (output,) = session.run(text)
        return (output.kind, output.name, output.type_text, output.value)

    def test_a_type_is_shown_once_per_entry(self, session, monkeypatch):
        from repro.system import session as session_module

        shown = []
        show = session_module._shown
        monkeypatch.setattr(session_module, "_shown",
                            lambda t: shown.append(t) or show(t))
        for _ in range(5):
            session.run(self.TEXT)
        assert len(shown) == 1
        assert self._output(session, self.TEXT)[2] == "({'a} * {'a})"
        assert len(shown) == 1

    def test_miss_fingerprint_hit_and_table_hit_agree(self, session):
        miss = self._output(session, self.TEXT)
        before = session.plan_cache.stats.hits
        fingerprint_hit = self._output(session, r"(fn \t=>(t,t))!{} ;")
        table_hit = self._output(session, self.TEXT)
        assert session.plan_cache.stats.hits == before + 2
        assert miss == fingerprint_hit == table_hit == (
            "query", "it", "({'a} * {'a})", (frozenset(), frozenset()))

    def test_bottom_keeps_its_reason_on_every_path(self, session):
        reasons = []
        for text in ("[[1, 2, 3]][5];", "[[1,2,3]][5] ;", "[[1, 2, 3]][5];"):
            with pytest.raises(BottomError) as caught:
                session.run(text)
            reasons.append(str(caught.value))
        assert reasons == [reasons[0]] * 3
        assert "index out of bounds" in reasons[0]
        assert self._counts(session) == (2, 1)

    def test_a_host_value_error_is_bottom_on_a_table_hit(self, session):
        session.register_co("bad", lambda n: Array((2,), [n]),
                            TArrow(TNat(), TArray(TNat(), 1)))
        reasons = []
        for _ in range(3):
            with pytest.raises(BottomError) as caught:
                session.run("bad!1;")
            reasons.append(caught.value.reason)
        assert reasons == ["host value error: dims (2,) require 2 values, "
                           "got 1"] * 3
        assert self._counts(session) == (2, 1)

    def test_past_the_host_stack_is_a_nesting_error(self, session):
        deep = "1" + " + 1" * 4999 + ";"
        for _ in range(2):
            with pytest.raises(NestingError, match="too deeply nested"):
                session.run(deep)
        assert session.plan_cache._texts == {}

    def test_a_table_hit_maps_recursion_to_nesting_error(self, session,
                                                          monkeypatch):
        session.run(self.TEXT)                 # a miss: no kept plan yet

        def overflow(core):
            raise RecursionError

        monkeypatch.setattr(session.env, "node_types", overflow)
        with pytest.raises(NestingError, match="too deeply nested"):
            session.run(self.TEXT)             # the first hit emits it

    def test_a_same_type_rebinding_is_served_by_the_table(self, session,
                                                          monkeypatch):
        session.env.set_val("A", Array.from_list([1, 2]))
        assert session.run("A;")[0].value == Array.from_list([1, 2])
        assert session.run("A;")[0].value == Array.from_list([1, 2])
        session.env.set_val("A", Array.from_list([3, 4, 5]))
        parsed = _parses(monkeypatch)
        assert self._output(session, "A;") == (
            "query", "it", "[[nat]]_1", Array.from_list([3, 4, 5]))
        assert parsed == []
        assert self._counts(session) == (2, 1)

    def test_last_core_is_the_entrys_after_a_table_hit(self, session):
        session.run(self.TEXT)
        session.run("1 + 1;")
        session.run(self.TEXT)
        entry = session.plan_cache._entries[
            session.plan_cache._texts[(self.TEXT, True)]]
        assert session._last_core is entry.core
        assert self._counts(session) == (1, 2)

    @staticmethod
    def _counts(session):
        return session.plan_cache.stats.hits, session.plan_cache.stats.misses


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
        return ("value", Evaluator(env._prim_impls).run(
            compiled, val_bindings(env, compiled)))
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


class _Tracked(Array):
    """An ``Array`` a test can hold weakly (``Array`` has no
    ``__weakref__`` slot)."""

    __slots__ = ("__weakref__",)


class TestValParameters:
    """A val is a parameter of the plans that name it: a rebinding to a
    value of the same type keeps them, and they read the new value."""

    def test_rebound_vals_are_collected(self):
        """No plan, cache entry or environment table keeps a val's old
        array alive after the val is rebound."""
        session = Session()
        bound = []

        def reader(args):
            array = _Tracked((64,), [float(cell) for cell in range(64)])
            bound.append(weakref.ref(array))
            return array

        session.env.drivers.register_reader("TRACKED", reader)
        for _ in range(50):
            session.run('readval \\Y using TRACKED at "anywhere";'
                        ' summap(fn \\i => Y[i])!(gen!64);')
        gc.collect()
        assert bound[0]() is None
        assert sum(1 for ref in bound if ref() is not None) <= 2

    @staticmethod
    def _counts(session):
        stats = session.plan_cache.stats
        return stats.hits, stats.misses, stats.invalidations

    def _rebound_hit(self, session, source, first, second):
        """``source`` after each binding: the run after the second is a
        hit that invalidates nothing; both values."""
        first()
        before = session.query_value(source)
        second()
        hits, misses, invalidations = self._counts(session)
        after = session.query_value(source)
        assert self._counts(session) == (hits + 1, misses, invalidations)
        return before, after

    @pytest.mark.parametrize("old, new, source, values", [
        (Array.from_list([1, 2, 3]), Array.from_list([5, 6]),
         r"maparr!(fn \x => x + 1, A);",
         (Array.from_list([2, 3, 4]), Array.from_list([6, 7]))),
        (Array((2, 2), [0.5, 1.5, 2.5, 3.5]), Array((1, 2), [4.0, 8.0]),
         r"[[ A[i, j] * 2.0 | \i < 1, \j < 2 ]];",
         (Array((1, 2), [1.0, 3.0]), Array((1, 2), [8.0, 16.0]))),
        (frozenset({(1, 2), (3, 4)}), frozenset({(5, 6)}),
         r"{a + b | (\a, \b) <- A};",
         (frozenset({3, 7}), frozenset({11}))),
    ])
    def test_same_type_rebinding_is_a_hit_with_the_new_value(
            self, session, old, new, source, values):
        bind = session.env.set_val
        assert self._rebound_hit(session, source, lambda: bind("A", old),
                                 lambda: bind("A", new)) == values

    def test_netcdf3_window_of_another_month_is_a_hit(self, session,
                                                      tmp_path):
        path = tmp_path / "year.nc"
        session.run(r"writeval [[ h * 4 + i * 2 + j | \h < 96, \i < 2, "
                    rf'\j < 2 ]] using NETCDFW at ("{path}", "temp");')

        def window(first):
            return lambda: session.run(
                f'readval \\T using NETCDF3 at ("{path}", "temp", '
                f'({first}, 1, 1), ({first + 23}, 1, 1));')

        source = r"summap(fn \h => T[h, 0, 0])!(gen!24);"
        before, after = self._rebound_hit(session, source, window(0),
                                          window(48))
        assert before == sum(h * 4 + 3 for h in range(24))
        assert after == sum(h * 4 + 3 for h in range(48, 72))

    @pytest.mark.parametrize("old, new, type_text", [
        (Array.from_list([1, 2]), Array.from_list([0.5]),
         "([[real]]_1 * nat)"),
        (Array.from_list([1, 2]), Array((1, 1), [7]), "([[nat]]_2 * nat)"),
        (frozenset(), frozenset(), None),
    ])
    def test_type_change_is_a_miss_with_one_invalidation(
            self, session, old, new, type_text):
        session.env.set_val("A", old)
        session.run("(A, 1);")
        hits, misses, invalidations = self._counts(session)
        session.env.set_val("A", new)
        (output,) = session.run("(A, 1);")
        assert self._counts(session) == (hits, misses + 1,
                                         invalidations + 1)
        assert output.value == (new, 1)
        if type_text is not None:
            assert output.type_text == type_text

    def test_rebinding_keeps_plan_without_optimizing(self, session,
                                                     monkeypatch):
        source = r"[[ A[i] + 1 | \i < len!A ]];"
        session.env.set_val("A", Array.from_list(range(10)))
        session.query_value(source)
        (entry,) = session.plan_cache._entries.values()
        session.env.set_val("A", Array.from_list(range(1000)))

        def refuse(*args, **kwargs):
            raise AssertionError("a rebinding must not re-optimize")

        monkeypatch.setattr(session.env.optimizer, "optimize", refuse)
        assert session.query_value(source) == \
            Array.from_list(range(1, 1001))
        assert session.plan_cache._entries[entry.key] is entry

    def test_macro_keeps_the_value_it_saw_at_definition(self, session):
        session.run(r"val \m = 5;")
        session.run(r"macro \mp = m + 1;")
        session.run(r"val \m = 7;")
        assert session.query_value("mp;") == 6
        assert session.query_value("m + 1;") == 8

    def test_binder_shadowing_a_val_is_left_alone(self, session):
        session.run(r"val \x = 100;")
        session.run(r"val \R = {(1, 10), (2, 20)};")
        assert session.query_value(r"(fn \x => x + 1)!2;") == 3
        assert session.query_value(r"{x | \x <- gen!3};") == \
            frozenset({0, 1, 2})
        join = r"{(x, c) | (\x, \c) <- R, (\a, \b) <- R, x = a};"
        assert session.query_value(join) == frozenset({(1, 10), (2, 20)})
        hits, misses, invalidations = self._counts(session)
        session.env.set_val("x", 2.5)   # no plan reads the val x
        assert session.query_value(r"{x | \x <- gen!3};") == \
            frozenset({0, 1, 2})
        assert self._counts(session) == (hits + 1, misses, invalidations)

    def test_lifted_helpers_and_functions_read_the_val(self, session):
        session.run(r"val \m = 5;")
        names = "abcdefghij"   # nested past the loop depth of a helper
        deep = "{" + " + ".join(names) + " + m | " + ", ".join(
            f"\\{name} <- gen!2" for name in names) + "};"
        shifted = r"maparr!(fn \x => x + m, [[ i | \i < 3 ]]);"
        assert session.query_value(deep) == frozenset(range(5, 16))
        assert session.query_value(shifted) == Array.from_list([5, 6, 7])
        session.run(r"val \m = 7;")
        assert session.query_value(deep) == frozenset(range(7, 18))
        assert session.query_value(shifted) == Array.from_list([7, 8, 9])

    def test_profile_prints_the_val_name(self, session):
        session.env.set_val("A", Array.from_list([31, 41, 59]))
        (output,) = session.run(r":profile maparr!(fn \x => x + 1, A);")
        text = output.render()
        assert "A[" in output.explain.core_text
        assert "31" not in output.explain.core_text
        assert output.value == Array.from_list([32, 42, 60])
        assert "== optimized core ==\n[[A[i] + 1" in text


#: the values a differential step binds, grouped by type: nats, reals,
#: arrays of either kind and rank, sets, and an empty set (whose type
#: has a variable)
_VAL_GROUPS = [["5", "7"], ["2.5", "0.5"], ["[[1, 2, 3]]", "[[4]]"],
               ["[[0.5, 1.5]]", "[[2.5]]"],
               [r"[[ i * 3 + j | \i < 2, \j < 3 ]]",
                r"[[ j | \i < 1, \j < 4 ]]"],
               ["{1, 2}", "{3}"], ["{(1, 2)}", "{(3, 4), (5, 6)}"], ["{}"]]
#: the queries it runs: typed by the bindings, some ⊥ or ill-typed
_QUERY_TEXTS = ["(a, b);", "(b, a);", "a;", "a + 1;", r"{x + 1 | \x <- a};",
                "len!a;", r"summap(fn \i => a[i])!(gen!2);",
                r"[[ a[i] * 2 | \i < len!a ]];", "a[1, 1];",
                r"(fn \a => a)!b;", "a = b;", "c;", "(c, a);", "c + 1;",
                "[[1, 2, 3]][5];", "g!a;"]
#: the bodies a macro step gives ``b`` or ``c``; one captures the val
#: ``a`` as it is at definition
_MACRO_BODIES = ["1", "2.5", "a + 1", "{a}", "[[7, 8]]"]

#: a (re)binding: how, which name, whether to keep the name's current
#: type, and a group and member of :data:`_VAL_GROUPS`
_BIND = st.tuples(st.sampled_from(["val", "readval"]),
                  st.sampled_from(["a", "b"]), st.booleans(),
                  st.integers(0, len(_VAL_GROUPS) - 1), st.integers(0, 1))
#: a macro definition, or a redefinition of one already there
_MACRO = st.tuples(st.just("macro"), st.sampled_from(["b", "c"]),
                   st.sampled_from(_MACRO_BODIES))
#: a flip of both sessions' ``optimize`` flag
_OPTIMIZE = st.just(("optimize",))
#: ``normalize`` rules, each with a text whose plan (or ⊥ reason) it
#: changes whatever the bindings
_RULE_WITNESSES = {"beta": r"(fn \x => x)!3;", "arith-fold": "1 + 2;",
                   "subscript-mkarray": "[[1, 2, 3]][5];"}
#: one removed through the ablation API, which the environment never
#: hears of, or put back (last) once removed
_RULE = st.tuples(st.just("rule"), st.sampled_from(sorted(_RULE_WITNESSES)))
#: ``register_co`` of the primitive ``g``, a new definition replacing
#: the last; two share a type
_COS = [(lambda n: n + 1, TArrow(TNat(), TNat())),
        (lambda n: n * 2, TArrow(TNat(), TNat())),
        (len, TArrow(TSet(TNat()), TNat()))]
_CO = st.tuples(st.just("co"), st.integers(0, len(_COS) - 1))
#: ``:profile`` of a text run before (by its index among those run), on
#: the cached session only: a table hit must judge it as a plain run does
_PROFILE = st.tuples(st.just("profile"), st.integers(0, 15))
_PROFILED = ":profile "


@st.composite
def _steps(draw):
    """Both names bound and each text and rule witness run once first,
    then queries twice as often as each other kind of step.  A query,
    run once or twice in a row, is one of at most three texts, so that
    texts repeat verbatim across the other steps."""
    texts = draw(st.lists(st.sampled_from(_QUERY_TEXTS), min_size=1,
                          max_size=3, unique=True))
    query = st.tuples(st.just("query"), st.sampled_from(texts),
                      st.integers(1, 2))
    first = [draw(_BIND.map(lambda bind: ("val", name, False, *bind[3:])))
             for name in "ab"] + [("query", text, 1) for text in
                                  texts + list(_RULE_WITNESSES.values())]
    return first + draw(st.lists(
        st.one_of(_BIND, query, query, _MACRO, _OPTIMIZE, _RULE, _CO,
                  _PROFILE),
        min_size=1, max_size=12))


def _statement_outcome(session, text):
    """A statement's value and type text, or its ⊥ reason or error, with
    the fingerprint of the plan it ran; an error's type variables are
    numbered per process, so their numbers are dropped."""
    try:
        (output,) = session.run(text)
    except BottomError as exc:
        return ("bottom", exc.reason, _last_plan(session))
    except Exception as exc:  # noqa: BLE001 - ill-typed steps included
        return ("error", type(exc).__name__, re.sub(r"'t\d+", "'t", str(exc)))
    return ("value", output.value, output.type_text, _last_plan(session))


def _last_plan(session):
    """The fingerprint of the optimized core the session ran last."""
    core = session._last_core
    return None if core is None else fingerprint(core)


def _macro_outcome(session, name, body):
    """``macro \\name = body;``, or, once ``name`` is a macro, its
    redefinition through the environment (a statement cannot replace a
    macro)."""
    if name not in session.env.macro_names():
        return _statement_outcome(session, f"macro \\{name} = {body};")
    try:
        session.env.register_macro(name, _core(body), replace=True)
    except Exception as exc:  # noqa: BLE001 - ill-typed bodies included
        return ("error", type(exc).__name__, re.sub(r"'t\d+", "'t", str(exc)))
    return ("redefined", name)


def _toggle_rule(session, name, removed):
    """Remove the ``normalize`` rule ``name`` (kept in ``removed``), or
    add it back if it is out."""
    rules = session.env.optimizer.phase("normalize").rules
    if name in rules.names():
        removed[name] = next(rule for rule in rules if rule.name == name)
        rules.remove(name)
    else:
        rules.add(removed.pop(name))


class TestRebindingDifferential:
    """Random interleavings of ``val``/``readval``, ``macro``
    (re)definitions, ``optimize`` flips, rule removals and re-additions,
    primitive replacements and queries, each repeated verbatim or not,
    agree with a session that caches nothing.  Every step but a query
    or a profile is followed by each query text run so far, which the
    statement table holds: a table hit must judge every change as a miss
    does.  A profile step, and the first of those reruns, runs
    ``:profile`` of a text run before on the cached session, against the
    uncached session's plain run."""

    @_SETTINGS
    @given(steps=_steps())
    def test_cached_session_agrees_with_uncached(self, steps):
        cached, cold = Session(), Session(plan_cache_capacity=0)
        groups, removed, ran = {}, ({}, {}), {}
        with tempfile.TemporaryDirectory() as workdir:
            path = f"{workdir}/v.co"
            for position, step in enumerate(steps):
                texts = []
                if step[0] == "optimize":
                    cached.optimize = cold.optimize = not cold.optimize
                elif step[0] == "macro":
                    assert _macro_outcome(cached, *step[1:]) == \
                        _macro_outcome(cold, *step[1:]), (step, steps)
                elif step[0] == "rule":
                    for session, out in zip((cached, cold), removed):
                        _toggle_rule(session, step[1], out)
                elif step[0] == "co":
                    for session in (cached, cold):
                        session.register_co("g", *_COS[step[1]],
                                            replace=True)
                elif step[0] == "query":
                    texts = [step[1]] * step[2]
                    ran[step[1]] = None
                elif step[0] == "profile":
                    texts = [_PROFILED + list(ran)[step[1] % len(ran)]]
                else:
                    how, name, keep, group, member = step
                    group = groups[name] = \
                        groups[name] if keep else group
                    value = _VAL_GROUPS[group][
                        member % len(_VAL_GROUPS[group])]
                    texts = [f"val \\{name} = {value};"] if how == "val" \
                        else [f'writeval {value} using CO at "{path}";',
                              f'readval \\{name} using CO at "{path}";']
                if step[0] not in ("query", "profile"):
                    # every text run so far again: the table holds them;
                    # one of them first under :profile, to meet the change
                    reruns = list(ran)
                    if reruns:
                        texts.append(_PROFILED
                                     + reruns[position % len(reruns)])
                    texts += reruns
                for text in texts:
                    # the uncached session runs a profiled text plainly
                    assert _statement_outcome(cached, text) == \
                        _statement_outcome(cold, text.removeprefix(
                            _PROFILED)), (text, steps)
