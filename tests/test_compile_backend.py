"""Cross-checking the execution engine against the reference semantics.

Every construct and a corpus of derived operators must produce identical
values (and identical ⊥ behaviour) from the closure compiler and from
the reference tree-walker; hypothesis drives random inputs through both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import builders as B
from repro.core.compile import CompiledEvaluator, Compiler, evaluate
from repro.errors import EvalError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.system.session import Session

from conftest import (agree, nat_arrays, nat_matrices, nat_sets,
                      reference_query_value)

N = ast.NatLit
V = ast.Var


def both(expr, binds=None):
    """The value engine and reference agree on (``None`` for an agreed ⊥)."""
    kind, payload = agree(expr, binds=binds or {})
    return payload if kind == "value" else None


class TestConstructParity:
    def test_scalars_and_arith(self):
        both(ast.Arith("-", N(3), N(7)))
        both(ast.Arith("/", ast.RealLit(1.0), ast.RealLit(4.0)))
        both(ast.Arith("/", N(1), N(0)))  # ⊥ both ways

    def test_functions_and_closures(self):
        # (λx. λy. x + y)(10)(5)
        e = ast.App(
            ast.App(ast.Lam("x", ast.Lam("y", ast.Arith(
                "+", V("x"), V("y")))), N(10)), N(5))
        assert both(e) == 15

    def test_closure_captures_not_leaks(self):
        # the captured x must be the binding-time one
        e = ast.App(
            ast.Lam("f", ast.App(
                ast.Lam("x", ast.App(V("f"), N(0))), N(99))),
            ast.App(ast.Lam("x", ast.Lam("ignored", V("x"))), N(7)),
        )
        assert both(e) == 7

    def test_sets(self):
        both(ast.Ext("x", ast.Singleton(ast.Arith("*", V("x"), V("x"))),
                     ast.Gen(N(5))))
        both(ast.Get(ast.Singleton(N(1))))
        both(ast.Get(ast.EmptySet()))  # ⊥

    def test_tuples_and_projections(self):
        both(ast.Proj(2, 3, ast.TupleE((N(1), N(2), N(3)))))

    def test_comparisons_all_ops(self):
        for op in ast.CMP_OPS:
            both(ast.Cmp(op, N(2), N(3)))
            both(ast.Cmp(op, ast.StrLit("a"), ast.StrLit("b")))

    def test_arrays(self):
        both(ast.Tabulate(("i", "j"), (N(2), N(3)),
                          ast.Arith("*", V("i"), V("j"))))
        both(ast.MkArray((N(2),), (N(5), N(6))))
        both(ast.MkArray((N(3),), (N(5), N(6))))  # ⊥
        arr = Array.from_list([7, 8, 9])
        both(ast.Subscript(ast.Const(arr), (N(1),)))
        both(ast.Subscript(ast.Const(arr), (N(9),)))  # ⊥
        both(ast.Dim(ast.Const(arr), 1))

    def test_index_and_sum(self):
        pairs = frozenset({(1, "a"), (3, "b"), (1, "c")})
        both(ast.IndexSet(ast.Const(pairs), 1))
        both(ast.Sum("x", V("x"), ast.Gen(N(10))))

    def test_bags_and_rank(self):
        both(ast.BagExt("x", ast.SingletonBag(V("x")),
                        ast.Const(Bag([1, 1, 2]))))
        both(ast.ExtRank("x", "i",
                         ast.Singleton(ast.TupleE((V("x"), V("i")))),
                         ast.Const(frozenset({"b", "a"}))))
        both(ast.BagExtRank("x", "i",
                            ast.SingletonBag(ast.TupleE((V("x"), V("i")))),
                            ast.Const(Bag(["x", "x"]))))


class TestDerivedOperatorParity:
    @given(nat_arrays)
    @settings(max_examples=20)
    def test_one_dim_corpus(self, arr):
        binds = {"A": arr}
        for make in (B.reverse, B.evenpos, B.rng, B.graph, B.hist_fast):
            both(make(V("A")), binds)

    @given(nat_matrices(max_dim=3))
    @settings(max_examples=15)
    def test_matrix_corpus(self, m):
        binds = {"M": m}
        both(B.transpose(V("M")), binds)
        both(ast.Dim(V("M"), 2), binds)

    @given(nat_sets)
    @settings(max_examples=15)
    def test_set_corpus(self, s):
        binds = {"S": s}
        both(B.count(V("S")), binds)
        if s:
            both(B.min_set(V("S")), binds)
            both(B.max_set(V("S")), binds)


class TestCompiledEvaluatorAPI:
    def test_run_with_bindings(self):
        ev = CompiledEvaluator()
        expr = ast.Arith("+", V("a"), V("b"))
        assert ev.run(expr, {"a": 1, "b": 2}) == 3

    def test_cache_hit_same_expression(self):
        ev = CompiledEvaluator()
        expr = ast.Arith("+", V("a"), N(1))
        assert ev.run(expr, {"a": 1}) == 2
        assert ev.run(expr, {"a": 10}) == 11  # cached code, new env

    def test_recycled_node_ids_never_serve_stale_code(self):
        """Regression: the code memo was keyed by bare ``id(expr)``
        without pinning the node, so a fresh expression allocated at a
        dead one's address ran the dead one's code (994 stale answers
        out of 1000 on the seed)."""
        ev = CompiledEvaluator()
        got = [ev.run(ast.Arith("+", N(i), N(0))) for i in range(1000)]
        assert got == list(range(1000))

    def test_primitive_table_is_shared_not_copied(self):
        """An environment builds an engine per statement; copying the
        registry into each one made every statement (and every cached
        plan) pay for the whole table."""
        prims = {"one": lambda value, evaluator: 1}
        assert Compiler(prims).prims is prims
        assert CompiledEvaluator(prims).compiler.prims is prims

    def test_unbound_variable_fails_at_compile(self):
        with pytest.raises(EvalError):
            evaluate(V("ghost"))

    def test_prims_work(self):
        from repro.env.primitives import builtin_primitives

        prims = {name: impl for name, (impl, _)
                 in builtin_primitives().items()}
        expr = ast.App(ast.Prim("min"), ast.Const(frozenset({4, 2})))
        assert evaluate(expr, prims=prims) == 2

    def test_higher_order_prim_through_shim(self):
        def apply_twice(value, evaluator):
            fn, start = value
            return evaluator.apply_function(
                fn, evaluator.apply_function(fn, start))

        expr = ast.App(ast.Prim("twice"), ast.TupleE((
            ast.Lam("x", ast.Arith("*", V("x"), N(3))), N(2))))
        assert evaluate(expr, prims={"twice": apply_twice}) == 18


class TestSessionPipeline:
    def test_session_full_pipeline(self):
        session = Session()
        session.env.set_val("A", Array.from_list([3, 1, 4]))
        got = session.query_value(
            "{(i, x) | [\\i : \\x] <- A, x > 1};"
        )
        assert got == frozenset({(0, 3), (2, 4)})

    def test_session_agrees_with_reference_on_paper_query(self):
        from repro.external.heatindex import heatindex_prim
        from repro.external.weather import june_arrays
        from repro.types.types import TArray, TArrow, TProduct, TReal

        T, RH, WS = june_arrays()
        session = Session()
        session.register_co(
            "heatindex", heatindex_prim,
            TArrow(TArray(TProduct((TReal(), TReal(), TReal())), 1),
                   TReal()),
        )
        for name, value in (("T", T), ("RH", RH), ("WS", WS)):
            session.env.set_val(name, value)
        query = r"""
            {d | \d <- gen!5,
                 \WS' == evenpos!(proj_col!(WS, 0)),
                 \TRW == zip_3!(T, RH, WS'),
                 \A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > 90.0}
        """
        assert session.query_value(query + ";") \
            == reference_query_value(session.env, query)

    def test_there_is_no_engine_switch(self):
        from repro.env.environment import TopEnv

        with pytest.raises(TypeError):
            Session(backend="compiled")
        with pytest.raises(TypeError):
            TopEnv(backend="interpreter")
        with pytest.raises(TypeError):
            TopEnv.standard("compiled")
