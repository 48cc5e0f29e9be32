"""Typed plans: the plan a cache entry keeps drops the guards its types
prove, and computes exactly what the guarded miss and the reference
evaluator compute.

Each statement runs twice — a miss, which emits the guarded text, then
a hit, which emits the kept plan from the entry's optimized core typed
once — and both outcomes are held to the reference ``Evaluator`` on
that core (value by :func:`conftest.assert_identical`, ⊥ by reason).
The explicit cases are where a type is *not* a proof of a host type:
real join keys (NaN, -0.0), bools beside nats, the empty real Σ (the
nat 0), a negative nat, and a val rebound to another rank.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.core.typecheck import TypeChecker
from repro.errors import BottomError, TypeCheckError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.system.session import Session
from repro.types.unify import unify

from conftest import assert_identical, reference_outcome
from expr_strategies import ENV_VALUES, typed_exprs
from test_macro_compilation import (APPLICATIONS, CORPUS, _environment,
                                    _free_env)

#: the generator's vals at edges a type does not rule out: a negative
#: nat, zero, an empty set, -0.0 and a NaN among the reals, and a
#: dense-backed array where numpy is present
EDGE_VALUES = {
    **ENV_VALUES,
    "n0": -3, "n1": 0, "b0": False, "sn": frozenset(),
    "r0": -0.0, "sr": frozenset({float("nan"), -0.0, 2.5}),
}
try:
    import numpy

    EDGE_VALUES["an"] = Array((4,), numpy.array([7, 0, 9, 4]))
except ImportError:  # the numpy-free lane: an object-backed array
    pass

#: one val of every kind, for the explicit statements
KINDS = {
    "n": 4, "neg": -3, "r": 1.5, "b": True, "s": "ab",
    "t": (1, 2.5), "S": frozenset({1, 2, 3}), "Sr": frozenset({0.5, 1.5}),
    "B": Bag([1, 1, 2]), "A": Array.from_list([5, 6, 7]),
    "M": Array((2, 3), [1, 2, 3, 4, 5, 6]),
    "C": Array((2, 2, 2), [float(i) for i in range(8)]),
}


def _session(vals) -> Session:
    session = Session()
    for name, value in vals.items():
        session.env.set_val(name, value)
    return session


def _core(text: str) -> ast.Expr:
    return desugar_expression(parse_expression(text))


def _run(plan):
    try:
        return ("value", plan.evaluator.run(plan.core))
    except BottomError as exc:
        return ("bottom", exc.reason)


def _agree(got, want):
    assert got[0] == want[0], (got, want)
    if want[0] == "value":
        assert_identical(got[1], want[1])
    else:
        assert got[1] == want[1]


def miss_then_hit(session: Session, core: ast.Expr):
    """Run ``core`` as a miss, then as a hit on the kept plan; both must
    agree with the reference on the optimized core.  Returns the two
    plans."""
    miss, hit = session.prepare(core), session.prepare(core)
    assert not miss.cached and hit.cached
    assert hit.evaluator is hit.entry.evaluator
    binds = {name: session.env.get_val(name)
             for name in ast.free_vars(hit.core) if session.env.has_val(name)}
    want = reference_outcome(hit.core, binds, session.env._prim_impls)
    for plan in (miss, hit):
        _agree(_run(plan), want)
    return miss, hit


def sources(session: Session, text: str):
    """The miss's source and the kept plan's, for ``text``."""
    miss, hit = miss_then_hit(session, _core(text))
    return miss.evaluator.source, hit.evaluator.source


_SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.mark.slow
class TestDifferential:
    @_SETTINGS
    @given(pair=typed_exprs())
    def test_generated_terms(self, pair):
        miss_then_hit(_session(ENV_VALUES), pair[0])

    @_SETTINGS
    @given(pair=typed_exprs())
    # a NaN inside a set: {Σ{s | s ∈ sr}} is {nan} on both sides
    @example(pair=(ast.Singleton(ast.Sum("s", ast.Var("s"), ast.Var("sr"))),
                   None))
    def test_generated_terms_at_the_edges(self, pair):
        miss_then_hit(_session(EDGE_VALUES), pair[0])


STATEMENTS = [
    "n + 1", "neg + 1", "neg - 1", "n - neg", "neg / 2", "neg % 3",
    "neg < n", "gen!neg", "A[neg]", "A[n]", "A[2]", "M[1, 2]", "M[neg, 0]",
    "C[1, 0, 1] * 2.0", "C[1, 1, 2]", r"[[ M[i, j] * 2 | \i < 2, \j < 3 ]]",
    "r / 0.0", "r - 2.5", "n / 0", "n % 0", r"{y + r | (\x, \y) <- {t}}",
    r"{x < n | (\x, \y) <- {t}}", "s = \"ab\"", "b = true", "b < false",
    r"{(i + j, v - len!A) | [(\i, \j) : \v] <- M}",
    r"{x * 2 | \x <- S}", r"summap(fn \x => x * r)!(Sr)",
    r"{(x, y) | \x <- S, \y <- S, x = y}",
    r"{(x, y) | \x <- Sr, \y <- Sr, x = y}",
    r"positions!(A, 6)", r"hist2!A", r"maparr!(fn \x => x + n, A)",
    "B", "{t}", "B = B",
]


class TestStatements:
    @pytest.mark.parametrize("text", STATEMENTS)
    def test_every_kind_of_val(self, text):
        miss_then_hit(_session(KINDS), _core(text))

    @pytest.mark.parametrize("text, value", [
        (r"summap(fn \i => r)!(gen!0)", 0),
        (r"summap(fn \i => r)!(gen!z) = 0.0", False),
        (r"summap(fn \i => r)!(gen!z) + 2.5", 2.5),
        (r"summap(fn \i => r)!(gen!z) < 0.0", True),
        (r"{x = 0.0 | \x <- {summap(fn \i => r)!(gen!k) | \k <- gen!2}}",
         frozenset({False})),
    ])
    def test_the_empty_real_sum(self, text, value):
        """The documented deviation holds in the kept plan too: a plan
        holding a real Σ proves no float, so ``0 = 0.0`` stays false."""
        session = _session({**KINDS, "z": 0})
        miss, hit = miss_then_hit(session, _core(text))
        assert _run(hit) == ("value", value)

    @pytest.mark.parametrize("keys", [
        [(float("nan"), 1), (0.0, 2), (-0.0, 3), (1.5, 4)],
        [(True, 1), (False, 2)],
        [(1, 1), (0, 2), (2, 3)],
        [("a", 1), ("b", 2)],
        [((1, True), 1), ((1, False), 2)],
    ], ids=["real", "bool", "nat", "string", "tuple"])
    def test_join_keys(self, keys):
        session = _session({"R": frozenset(keys),
                            "T": frozenset((k, "x") for k, _ in keys)})
        text = r"{(a, b, c) | (\a, \b) <- R, (\a2, \c) <- T, a = a2};"
        _, kept = sources(session, text)
        assert ("_HashKey(" in kept) == isinstance(keys[0][0], float)

    def test_nan_key_matches_nothing(self):
        nan = float("nan")
        session = _session({"R": frozenset({(nan, 1)}),
                            "T": frozenset({(nan, 2), (0.0, 3)})})
        text = r"{(b, c) | (\a, \b) <- R, (\a2, \c) <- T, a = a2};"
        for _ in range(2):
            assert session.query_value(text) == frozenset()

    def test_a_rebinding_to_another_rank_replans(self):
        session = _session({"A": Array.from_list([1, 2, 3])})
        for _ in range(2):
            assert session.query_value("A[1];") == 2
        stats = session.plan_cache.stats
        session.env.set_val("A", Array((2, 2), [1, 2, 3, 4]))
        with pytest.raises(TypeCheckError):
            session.query_value("A[1];")
        assert stats.invalidations == 1
        for _ in range(2):
            assert session.query_value("{A};") == frozenset(
                {session.env.get_val("A")})
        assert session.query_value("A[1, 0];") == 3

    def test_a_rebinding_to_the_same_type_keeps_the_kept_plan(self):
        session = _session({"A": Array.from_list([1, 2, 3]), "k": 1})
        for _ in range(2):
            assert session.query_value("A[k] + k;") == 3
        session.env.set_val("A", Array.from_list([4, 5, 6]))
        session.env.set_val("k", -1)
        with pytest.raises(BottomError):
            session.query_value("A[k] + k;")
        assert session.plan_cache.stats.invalidations == 0


class TestKeptText:
    """What the kept plan drops, and that nothing else changes."""

    def test_a_miss_emits_the_guarded_text(self):
        session = _session(KINDS)
        core = _core("positions!(A, n)")
        miss = session.prepare(core)
        guarded = CompiledEvaluator(session.env._prim_impls,
                                    vals=session.env._vals)
        guarded.prepare(miss.core)
        assert miss.evaluator.source == guarded.source

    def test_the_kept_plan_reads_cells_directly(self):
        guarded, kept = sources(_session(KINDS), "positions!(A, n);")
        assert ".at1(" in guarded and "_array(" in guarded
        assert ".at1(" not in kept and "_array(" not in kept
        assert "._flat[" in kept and "_eq(" not in kept

    def test_an_uncached_session_emits_the_guarded_text(self):
        session = Session(plan_cache_capacity=0)
        session.env.set_val("A", KINDS["A"])
        for _ in range(2):
            plan = session.prepare(_core("A[1] + 1"))
            assert ".at1(" in plan.evaluator.source

    def test_an_unproven_operand_keeps_its_guard(self):
        session = _session(KINDS)
        _, kept = sources(session, r"(fn \f => f!1)!(fn \x => x);")
        assert "callable(" not in kept  # an arrow is proven
        _, kept = sources(session, "get!{} ;")
        assert "_get(" in kept


class TestProofRules:
    def test_a_node_typed_twice_proves_nothing(self):
        """A shared subterm typed at two instances records no type: the
        monus of one ``x - x`` node runs on a nat and on a real."""
        body = ast.Lam("x", ast.Arith("-", ast.Var("x"), ast.Var("x")))
        core = ast.TupleE((ast.App(body, ast.NatLit(3)),
                           ast.App(body, ast.RealLit(1.5))))
        table = {}
        TypeChecker().check(core, record=table)
        assert table[id(body.body)] is None
        evaluator = CompiledEvaluator()
        evaluator.prepare(core, types=table)
        assert "_arith('-'" in evaluator.source
        assert_identical(evaluator.run(core), (0, 0.0))

    def test_a_dense_operand_is_read_through_its_cells(self):
        """An array the plan did not box (here a macro's captured val, a
        slot) is read through ``Array._cell``, which counts dense hits
        exactly as the miss does."""
        numpy = pytest.importorskip("numpy")
        from repro.objects import dense

        session = _session({"S": frozenset({0, 2, 3})})
        session.env.set_val("D", Array((4,), numpy.array([7, 0, 9, 4])))
        session.run(r"macro \mD = D;")
        core = _core(r"{mD[x] * 2 | \x <- S}")
        counts = []
        for _ in range(2):  # the miss, then the kept plan
            before = dense.COUNTERS.dense_hits
            plan = session.prepare(core)
            assert _run(plan) == ("value", frozenset({14, 18, 8}))
            counts.append(dense.COUNTERS.dense_hits - before)
        assert plan.cached and "._cell(" in plan.evaluator.source
        assert counts == [3, 3]


class TestTypePreservation:
    """The optimizer preserves types: its output typechecks, at a type
    compatible with its input's, on the macro-compilation corpus and on
    every stdlib macro application."""

    def test_corpus(self):
        env = _environment(False)
        checker = TypeChecker(env.typechecker().prim_signatures)
        for core in CORPUS:
            resolved = env.resolve(core)
            try:
                before = checker.check(resolved, _free_env(resolved))
            except TypeCheckError:
                continue  # the ill-typed statements of the corpus
            optimized = env.optimizer.optimize(resolved)
            after = checker.check(optimized, _free_env(optimized))
            unify(before, after, {})

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_stdlib_applications(self, name):
        env = _environment(False)
        core = env.resolve(_core(APPLICATIONS[name]))
        before = env.typechecker().check(core)
        optimized = env.optimizer.optimize(core)
        assert env.node_types(optimized) is not None
        unify(before, env.typechecker().check(optimized), {})
