"""C6 — the bounds-check elimination rules and their conservativeness.

Proposition 5.1: bounds checking is undecidable, so the eliminator is a
conservative approximation: it must remove the *redundant* checks of the
four Section 5 rules, and must never remove a live check.
"""

import pytest

from repro.core import ast
from repro.core import evaluate
from repro.errors import BottomError
from repro.optimizer.engine import Phase, RuleBase, default_optimizer
from repro.optimizer.rules_bounds import bounds_rules

N = ast.NatLit
V = ast.Var


def bounds_phase():
    base = RuleBase()
    for rule in bounds_rules():
        base.add(rule)
    return Phase("bounds", base)


class TestRule1TabulationGuards:
    def test_index_guard_becomes_true(self):
        guard = ast.Cmp("<", V("i"), V("n"))
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.If(guard, V("i"), ast.Bottom()))
        out = bounds_phase().run(e)
        assert out == ast.Tabulate(
            ("i",), (V("n"),),
            ast.If(ast.BoolLit(True), V("i"), ast.Bottom()),
        )

    def test_mirrored_guard(self):
        guard = ast.Cmp(">", V("n"), V("i"))
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.If(guard, V("i"), ast.Bottom()))
        out = bounds_phase().run(e)
        assert isinstance(out.body.cond, ast.BoolLit)

    def test_negated_guard_becomes_false(self):
        guard = ast.Cmp(">=", V("i"), V("n"))
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.If(guard, ast.Bottom(), V("i")))
        out = bounds_phase().run(e)
        assert out.body.cond == ast.BoolLit(False)

    def test_k_dim_all_guards(self):
        inner = ast.If(ast.Cmp("<", V("j"), V("n")), N(1), ast.Bottom())
        e = ast.Tabulate(("i", "j"), (V("m"), V("n")),
                         ast.If(ast.Cmp("<", V("i"), V("m")), inner,
                                ast.Bottom()))
        out = bounds_phase().run(e)
        assert out.body.cond == ast.BoolLit(True)
        assert out.body.then.cond == ast.BoolLit(True)

    def test_different_bound_untouched(self):
        guard = ast.Cmp("<", V("i"), V("k"))  # k is not the bound
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.If(guard, V("i"), ast.Bottom()))
        assert bounds_phase().run(e) == e

    def test_shadowed_variable_untouched(self):
        # inner lambda rebinds i: the guard below it refers to ANOTHER i
        guard = ast.Cmp("<", V("i"), V("n"))
        body = ast.App(ast.Lam("i", ast.If(guard, V("i"), N(0))), N(0))
        e = ast.Tabulate(("i",), (V("n"),), body)
        assert bounds_phase().run(e) == e

    def test_shadowed_bound_variable_untouched(self):
        # the bound expression's own variable is rebound inside
        guard = ast.Cmp("<", V("i"), V("n"))
        body = ast.App(ast.Lam("n", ast.If(guard, V("i"), N(0))), N(3))
        e = ast.Tabulate(("i",), (V("n"),), body)
        assert bounds_phase().run(e) == e


class TestRule2GenGuards:
    def test_ext_over_gen(self):
        guard = ast.Cmp("<", V("x"), V("e"))
        body = ast.If(guard, ast.Singleton(V("x")), ast.EmptySet())
        e = ast.Ext("x", body, ast.Gen(V("e")))
        out = bounds_phase().run(e)
        assert out.body.cond == ast.BoolLit(True)

    def test_sum_over_gen(self):
        guard = ast.Cmp("<", V("x"), V("e"))
        e = ast.Sum("x", ast.If(guard, N(1), N(0)), ast.Gen(V("e")))
        out = bounds_phase().run(e)
        assert out.body.cond == ast.BoolLit(True)

    def test_non_gen_source_untouched(self):
        guard = ast.Cmp("<", V("x"), V("e"))
        body = ast.If(guard, ast.Singleton(V("x")), ast.EmptySet())
        e = ast.Ext("x", body, V("S"))
        assert bounds_phase().run(e) == e


class TestRules34Conditionals:
    def test_condition_true_in_then(self):
        c = ast.Cmp("<", V("a"), V("b"))
        e = ast.If(c, ast.If(c, N(1), N(2)), N(3))
        out = bounds_phase().run(e)
        assert out.then.cond == ast.BoolLit(True)

    def test_condition_false_in_else(self):
        c = ast.Cmp("<", V("a"), V("b"))
        e = ast.If(c, N(1), ast.If(c, N(2), N(3)))
        out = bounds_phase().run(e)
        assert out.orelse.cond == ast.BoolLit(False)

    def test_negated_condition_in_then(self):
        c = ast.Cmp("<", V("a"), V("b"))
        negated = ast.Cmp(">=", V("a"), V("b"))
        e = ast.If(c, ast.If(negated, N(1), N(2)), N(3))
        out = bounds_phase().run(e)
        assert out.then.cond == ast.BoolLit(False)

    def test_capture_condition_respected(self):
        c = ast.Cmp("<", V("a"), V("b"))
        shadowed = ast.App(ast.Lam("a", ast.If(c, N(1), N(2))), N(0))
        e = ast.If(c, shadowed, N(3))
        assert bounds_phase().run(e) == e

    def test_deeply_nested_occurrence(self):
        c = ast.Cmp("=", V("x"), N(0))
        deep = ast.Singleton(ast.If(c, N(1), N(2)))
        e = ast.If(c, deep, ast.EmptySet())
        out = bounds_phase().run(e)
        assert out.then.expr.cond == ast.BoolLit(True)


class TestMonusRule:
    def test_subseq_style_check_eliminated(self):
        # [[ if i + k < j+1 then ... | k < (j+1) - i ]]
        upper = ast.Arith("+", V("j"), N(1))
        bound = ast.Arith("-", upper, V("i"))
        guard = ast.Cmp("<", ast.Arith("+", V("i"), V("k")), upper)
        e = ast.Tabulate(("k",), (bound,),
                         ast.If(guard, V("k"), ast.Bottom()))
        out = bounds_phase().run(e)
        assert out.body.cond == ast.BoolLit(True)


class TestConservativeness:
    """The eliminator must never remove a live check (Prop 5.1 says we
    cannot have them all; here we check we don't overreach)."""

    def test_live_check_kept_and_semantics_preserved(self):
        # A[i+1] inside [[ ... | i < len A ]] CAN be out of bounds
        opt = default_optimizer()
        e = ast.Tabulate(
            ("i",), (ast.Dim(V("A"), 1),),
            ast.Subscript(
                ast.Tabulate(("j",), (ast.Dim(V("A"), 1),),
                             ast.Subscript(V("A"), (V("j"),))),
                (ast.Arith("+", V("i"), N(1)),),
            ),
        )
        out = opt.optimize(e)
        from repro.objects.array import Array
        arr = Array.from_list([1, 2, 3])
        with pytest.raises(BottomError):
            evaluate(e, {"A": arr})
        with pytest.raises(BottomError):
            evaluate(out, {"A": arr})

    def test_unrelated_comparison_kept(self):
        opt = default_optimizer()
        e = ast.Tabulate(
            ("i",), (V("n"),),
            ast.If(ast.Cmp("<", V("i"), N(2)), N(1), N(0)),
        )
        out = opt.optimize(e)
        # the comparison against 2 is live (it partitions the array)
        assert any(isinstance(t, ast.Cmp) for t in ast.subterms(out))

    def test_full_pipeline_cleans_redundant_check(self):
        # after the full pipeline the if-true residue is folded away
        opt = default_optimizer()
        guard = ast.Cmp("<", V("i"), V("n"))
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.If(guard, V("i"), ast.Bottom()))
        out = opt.optimize(e)
        assert out == ast.Tabulate(("i",), (V("n"),), V("i"))
