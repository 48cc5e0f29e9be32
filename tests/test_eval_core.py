"""The reference evaluator's own edge cases (beyond Figure 1
conformance), and the value-level rules it shares with the engine."""

import pytest

from repro.core import ast
from repro.core.eval import Evaluator, evaluate
from repro.errors import BottomError, EvalError
from repro.objects.array import Array, index_set
from repro.objects.bag import Bag
from repro.objects.values import apply_arith

N = ast.NatLit
V = ast.Var


class TestEnvironments:
    def test_lookup_innermost_binding(self):
        inner = ast.App(ast.Lam("x", V("x")), N(2))
        assert evaluate(ast.App(ast.Lam("x", inner), N(1))) == 2

    def test_lookup_through_enclosing_binders(self):
        inner = ast.App(ast.Lam("b", V("a")), N(2))
        assert evaluate(ast.App(ast.Lam("a", inner), N(1))) == 1

    def test_unbound_raises(self):
        with pytest.raises(EvalError):
            evaluate(V("ghost"))


class TestClosures:
    def test_apply_function_on_closure(self):
        ev = Evaluator()
        closure = ev.run(ast.Lam("x", ast.Arith("+", V("x"), N(1))))
        assert ev.apply_function(closure, 5) == 6

    def test_apply_function_on_native(self):
        ev = Evaluator({"double": lambda v, e: v * 2})
        assert ev.apply_function(ev.run(ast.Prim("double")), 21) == 42

    def test_apply_function_on_non_function(self):
        with pytest.raises(EvalError):
            Evaluator().apply_function(42, 1)

    def test_unknown_prim(self):
        with pytest.raises(EvalError):
            evaluate(ast.Prim("missing"))


class TestApplyArith:
    def test_bool_operands_rejected(self):
        with pytest.raises(EvalError):
            apply_arith("+", True, 1)

    def test_mixed_promotes_to_real(self):
        assert apply_arith("+", 1, 2.5) == 3.5
        assert isinstance(apply_arith("*", 2, 2.0), float)

    def test_real_mod_rejected(self):
        with pytest.raises(BottomError):
            apply_arith("%", 1.0, 2.0)

    def test_real_division_by_zero(self):
        with pytest.raises(BottomError):
            apply_arith("/", 1.0, 0.0)

    def test_non_numeric_rejected(self):
        with pytest.raises(EvalError):
            apply_arith("+", "a", "b")


class TestIndexSetSemantics:
    def test_groups_duplicates(self):
        out = index_set(frozenset({(0, "a"), (0, "b")}), 1)
        assert out == Array((1,), [frozenset({"a", "b"})])

    def test_holes_are_empty_sets(self):
        out = index_set(frozenset({(2, "x")}), 1)
        assert out.flat[:2] == (frozenset(), frozenset())

    def test_bad_pair_shape(self):
        with pytest.raises(EvalError):
            index_set(frozenset({(1, 2, 3)}), 1)

    def test_bad_key_type(self):
        with pytest.raises(EvalError):
            index_set(frozenset({("k", 1)}), 1)
        with pytest.raises(EvalError):
            index_set(frozenset({(True, 1)}), 1)

    def test_rank_2_keys(self):
        out = index_set(frozenset({((1, 1), "x")}), 2)
        assert out.dims == (2, 2)

    def test_rank_mismatch(self):
        with pytest.raises(EvalError):
            index_set(frozenset({((1, 1), "x")}), 3)


class TestStrictness:
    def test_error_in_set_element_propagates(self):
        e = ast.Union(ast.Singleton(N(1)), ast.Singleton(ast.Bottom()))
        with pytest.raises(BottomError):
            evaluate(e)

    def test_error_in_unreached_branch_ignored(self):
        e = ast.If(ast.Cmp("<", N(1), N(2)), N(1),
                   ast.Arith("/", N(1), N(0)))
        assert evaluate(e) == 1

    def test_error_in_loop_body_propagates(self):
        e = ast.Ext("x", ast.If(ast.Cmp("=", V("x"), N(1)),
                                ast.Singleton(ast.Bottom()),
                                ast.Singleton(V("x"))),
                    ast.Gen(N(3)))
        with pytest.raises(BottomError):
            evaluate(e)

    def test_empty_loop_never_evaluates_body(self):
        e = ast.Ext("x", ast.Singleton(ast.Bottom()), ast.EmptySet())
        assert evaluate(e) == frozenset()

    def test_zero_bound_tabulation_never_evaluates_body(self):
        e = ast.Tabulate(("i",), (N(0),), ast.Bottom())
        assert evaluate(e) == Array((0,), [])


class TestRuntimeTypeErrors:
    def test_subscript_non_array(self):
        with pytest.raises(EvalError):
            evaluate(ast.Subscript(ast.Const(frozenset()), (N(0),)))

    def test_projection_arity_at_runtime(self):
        # a Const sidesteps the typechecker; the evaluator still validates
        with pytest.raises(EvalError):
            evaluate(ast.Proj(1, 3, ast.Const((1, 2))))

    def test_gen_of_negative_is_bottom(self):
        with pytest.raises(BottomError):
            evaluate(ast.Gen(ast.Const(-1)))

    def test_tabulate_bool_bound_is_bottom(self):
        with pytest.raises(BottomError):
            evaluate(ast.Tabulate(("i",), (ast.Const(True),), N(0)))

    def test_dim_wrong_rank_is_bottom(self):
        with pytest.raises(BottomError):
            evaluate(ast.Dim(ast.Const(Array((1, 1), [0])), 1))


class TestBagEvaluation:
    def test_bag_ext_with_multiplicity(self):
        e = ast.BagExt("x", ast.SingletonBag(N(9)),
                       ast.Const(Bag([1, 1, 2])))
        assert evaluate(e) == Bag([9, 9, 9])

    def test_bag_union(self):
        e = ast.BagUnion(ast.Const(Bag([1])), ast.Const(Bag([1, 2])))
        assert evaluate(e) == Bag([1, 1, 2])


class TestBindings:
    def test_run_with_bindings(self):
        ev = Evaluator()
        assert ev.run(ast.Arith("+", V("a"), V("b")),
                      {"a": 1, "b": 2}) == 3

    def test_bindings_shadowed_by_binders(self):
        ev = Evaluator()
        e = ast.App(ast.Lam("a", V("a")), N(9))
        assert ev.run(e, {"a": 1}) == 9
