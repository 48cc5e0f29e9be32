"""C6 — the bounds-check elimination rules and their conservativeness.

Proposition 5.1: bounds checking is undecidable, so the eliminator is a
conservative approximation: it must remove the *redundant* checks of the
four Section 5 rules, and must never remove a live check.
"""

import pytest

from repro.core import ast
from repro.core import evaluate
from repro.errors import BottomError
from repro.optimizer.engine import RuleBase, default_optimizer
from repro.optimizer.rules_bounds import BoundsPhase

N = ast.NatLit
V = ast.Var


def bounds_phase():
    """The bounds phase with no normalization rules: decided checks stay
    as ``if true``/``if false`` residue the tests can see."""
    return BoundsPhase("bounds", RuleBase())


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

    def test_name_shadowed_twice_untouched(self):
        # [[ (fn \i => (fn \i => if i < n then 1 else 0)!(0))!(1) | \i < n ]]
        guard = ast.If(ast.Cmp("<", V("i"), V("n")), N(1), N(0))
        inner = ast.App(ast.Lam("i", guard), N(0))
        body = ast.App(ast.Lam("i", inner), N(1))
        e = ast.Tabulate(("i",), (V("n"),), body)
        assert bounds_phase().run(e) == e

    def test_bound_rebound_by_a_nested_tabulation_untouched(self):
        # [[ [[ if i < n then 1 else 0 | \n < 3 ]] | \i < n ]]: the
        # guard's n is the inner index, not the outer bound
        guard = ast.If(ast.Cmp("<", V("i"), V("n")), N(1), N(0))
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.Tabulate(("n",), (N(3),), guard))
        assert bounds_phase().run(e) == e

    def test_bound_naming_its_own_index_untouched(self):
        # [[ if i < i then 1 else 0 | \i < i ]]: the bound's i is the
        # outer one, the guard's both the index
        guard = ast.Cmp("<", V("i"), V("i"))
        e = ast.Tabulate(("i",), (V("i"),), ast.If(guard, N(1), N(0)))
        assert bounds_phase().run(e) == e
        e = ast.Ext("x", ast.If(ast.Cmp("<", V("x"), V("x")),
                                ast.Singleton(V("x")), ast.EmptySet()),
                    ast.Gen(V("x")))
        assert bounds_phase().run(e) == e

    def test_only_the_bound_naming_an_index_loses_its_fact(self):
        # [[ (if i < n .., if j < i ..) | \i < n, \j < i ]]: the bound
        # of j reads the outer i, the index shadows it; i < n holds
        first = ast.If(ast.Cmp("<", V("i"), V("n")), N(1), N(0))
        second = ast.If(ast.Cmp("<", V("j"), V("i")), N(1), N(0))
        e = ast.Tabulate(("i", "j"), (V("n"), V("i")),
                         ast.TupleE((first, second)))
        out = bounds_phase().run(e)
        assert out.body.items == (
            ast.If(ast.BoolLit(True), N(1), N(0)), second)

    def test_one_firing_per_binder(self):
        guard = ast.Cmp("<", V("i"), V("n"))
        e = ast.Tabulate(("i",), (V("n"),), ast.TupleE((
            ast.If(guard, V("i"), ast.Bottom()),
            ast.If(guard, N(0), ast.Bottom()))))
        phase = bounds_phase()
        out = phase.run(e)
        assert out.body.items[0].cond == out.body.items[1].cond \
            == ast.BoolLit(True)
        assert phase.stats.by_rule == {"tabulate-bound-elim": 1}


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


def _each_rule_decides_one():
    r"""One check per fact source, inside ``[[ .. | \k < (j+1) ∸ i ]]``:
    the tabulation bound itself, the monus consequence, a guard under
    ``⋃ over gen(m)`` and a repeated conditional."""
    upper = ast.Arith("+", V("j"), N(1))
    bound = ast.Arith("-", upper, V("i"))
    c = ast.Cmp("<", V("a"), V("b"))
    return ast.Tabulate(("k",), (bound,), ast.TupleE((
        ast.Cmp("<", V("k"), bound),
        ast.Cmp("<", ast.Arith("+", V("i"), V("k")), upper),
        ast.Ext("x", ast.If(ast.Cmp("<", V("x"), V("m")),
                            ast.Singleton(V("x")), ast.EmptySet()),
                ast.Gen(V("m"))),
        ast.If(c, c, ast.BoolLit(False)),
    )))


#: where in :func:`_each_rule_decides_one` each source's check sits
_DECIDED_AT = {
    "tabulate-bound-elim": lambda body: body.items[0],
    "monus-bound-elim": lambda body: body.items[1],
    "gen-bound-elim": lambda body: body.items[2].body.cond,
    "if-branch-elim": lambda body: body.items[3].then,
}


class TestFactSources:
    """Each of the four rules is the fact source of its node kind:
    removing it by name disables exactly its facts."""

    def test_every_source_decides_its_check(self):
        phase = bounds_phase()
        body = phase.run(_each_rule_decides_one()).body
        for name, at in _DECIDED_AT.items():
            assert at(body) == ast.BoolLit(True), name
        assert phase.stats.by_rule == dict.fromkeys(_DECIDED_AT, 1)

    @pytest.mark.parametrize("removed", sorted(_DECIDED_AT))
    def test_removing_a_rule_disables_exactly_its_facts(self, removed):
        phase = bounds_phase()
        phase.rules.remove(removed)
        e = _each_rule_decides_one()
        body = phase.run(e).body
        for name, at in _DECIDED_AT.items():
            if name == removed:
                assert at(body) == at(e.body), name
            else:
                assert at(body) == ast.BoolLit(True), name
        assert removed not in phase.stats.by_rule
        assert len(phase.stats.by_rule) == 3

    def test_every_run_folds_its_residue(self):
        # the phase's size ceiling holds, per run, not per phase lifetime
        phase = default_optimizer().phase("bounds")
        guard = ast.Cmp("<", V("i"), V("n"))
        e = ast.Tabulate(("i",), (V("n"),), ast.TupleE(tuple(
            ast.If(guard, N(k), ast.Bottom()) for k in range(8))))
        folded = ast.TupleE(tuple(N(k) for k in range(8)))
        phase.MAX_NODES = 3
        assert phase.run(e).body != folded
        phase.MAX_NODES = 100
        for _ in range(5):
            assert phase.run(e).body == folded

    def test_nothing_decided_returns_the_input(self):
        e = ast.Tabulate(("i",), (V("n"),), ast.If(
            ast.Cmp("<", V("i"), N(2)), N(1), N(0)))
        phase = default_optimizer().phase("bounds")
        assert phase.run(e) is e
        assert phase.stats.applications == 0


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

    def test_a_bound_naming_the_index_keeps_its_check(self):
        # the bound's i is the val, the guard's the index: the guard is
        # live, and an optimizer taking it for i < 10 - i decided it
        from repro.system.session import Session
        text = r"[[ if i < 10 - i then 1 else 0 | \i < 10 - i ]];"
        values = []
        for optimize in (True, False):
            session = Session(optimize=optimize)
            session.run(r"val \i = 2;")
            values.append(session.query_value(text).to_nested())
        assert values == [[1, 1, 1, 1, 1, 0, 0, 0]] * 2

    def test_full_pipeline_cleans_redundant_check(self):
        # after the full pipeline the if-true residue is folded away
        opt = default_optimizer()
        guard = ast.Cmp("<", V("i"), V("n"))
        e = ast.Tabulate(("i",), (V("n"),),
                         ast.If(guard, V("i"), ast.Bottom()))
        out = opt.optimize(e)
        assert out == ast.Tabulate(("i",), (V("n"),), V("i"))
