"""Tests for the code-motion phase (Section 5's "later phases") and the
work-duplication guards that protect sharing.
"""

import pytest
from hypothesis import given, settings

from repro.core import ast
from repro.core import evaluate
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.optimizer.analysis import effective_occurrences
from repro.optimizer.engine import default_optimizer
from repro.optimizer.rules_motion import motion_rules

from conftest import agree, aql_core, nat_arrays, nat_sets, reference_outcome

N = ast.NatLit
V = ast.Var


def motion_only(expr, name="hoist-loop-invariant"):
    (rule,) = [rule for rule in motion_rules() if rule.name == name]
    return rule.apply(expr)


class TestHoisting:
    def test_invariant_sum_hoisted_from_tabulate(self):
        invariant = ast.Sum("y", V("y"), V("S"))
        loop = ast.Tabulate(("i",), (N(100),),
                            ast.Arith("*", invariant, V("i")))
        hoisted = motion_only(loop)
        assert isinstance(hoisted, ast.App)
        assert hoisted.arg == invariant
        assert isinstance(hoisted.fn.body, ast.Tabulate)

    def test_invariant_hoisted_from_ext(self):
        invariant = ast.Sum("y", V("y"), V("S"))
        loop = ast.Ext("x", ast.Singleton(ast.Arith("+", V("x"), invariant)),
                       V("T"))
        hoisted = motion_only(loop)
        assert isinstance(hoisted, ast.App)
        assert hoisted.arg == invariant

    def test_variant_not_hoisted(self):
        variant = ast.Sum("y", ast.Arith("+", V("y"), V("i")), V("S"))
        loop = ast.Tabulate(("i",), (N(10),), variant)
        assert motion_only(loop) is None

    def test_cheap_expression_not_hoisted(self):
        loop = ast.Tabulate(("i",), (N(10),),
                            ast.Arith("*", V("c"), V("i")))
        assert motion_only(loop) is None

    def test_error_prone_expression_not_hoisted(self):
        # hoisting would evaluate A[0] even when the loop runs 0 times
        risky = ast.Ext("y", ast.Singleton(
            ast.Subscript(V("A"), (V("y"),))), V("S"))
        loop = ast.Tabulate(("i",), (N(10),), ast.Cmp("=", risky, risky))
        assert motion_only(loop) is None

    def test_lambda_not_hoisted(self):
        # a loop-invariant λ holding a tabulation: building its closure
        # is no work, and a hoisted one would be called per cell
        inner = ast.Tabulate(("j",), (V("x"),), ast.Arith("*", V("x"),
                                                          V("j")))
        lam = ast.Lam("x", ast.Subscript(inner, (N(1),)))
        loop = ast.Tabulate(("i",), (N(6),), ast.App(lam, V("i")))
        assert motion_only(loop) is None
        motion = default_optimizer().phase("motion")
        moved = motion.run(loop)
        assert moved is loop and not motion.stats.applications
        assert agree(moved) == reference_outcome(loop)

    def test_inner_binder_reference_not_hoisted(self):
        # Σ{y | y ∈ S} where S itself mentions an inner binder is fine,
        # but a candidate mentioning the loop var through an inner lambda
        # must be rejected
        inner = ast.Sum("y", V("y"), ast.Gen(V("i")))
        loop = ast.Tabulate(("i",), (N(5),), inner)
        assert motion_only(loop) is None


class TestPipelineIntegration:
    def test_motion_phase_present_and_last(self):
        opt = default_optimizer()
        assert [p.name for p in opt.phases][-1] == "motion"

    def test_hoisted_redex_survives_the_pipeline(self):
        invariant = ast.Sum("y", V("y"), V("S"))
        loop = ast.Tabulate(("i",), (N(50),),
                            ast.Arith("*", invariant, V("i")))
        out = default_optimizer().optimize(loop)
        # the hoisted β-redex must NOT be re-inlined
        assert isinstance(out, ast.App)
        assert isinstance(out.fn, ast.Lam)

    @given(nat_sets)
    @settings(max_examples=20)
    def test_semantics_preserved(self, s):
        invariant = ast.Sum("y", V("y"), V("S"))
        loop = ast.Tabulate(("i",), (N(7),),
                            ast.Arith("*", invariant, V("i")))
        opt = default_optimizer()
        assert evaluate(opt.optimize(loop), {"S": s}) == \
            evaluate(loop, {"S": s})

    def test_hoisting_actually_saves_work(self):
        import time

        big = frozenset(range(400))
        invariant = ast.Sum("y", V("y"), V("S"))
        loop = ast.Tabulate(("i",), (N(300),),
                            ast.Arith("*", invariant, V("i")))
        optimized = default_optimizer().optimize(loop)

        def clock(expr):
            start = time.perf_counter()
            evaluate(expr, {"S": big})
            return time.perf_counter() - start

        raw = min(clock(loop) for _ in range(3))
        fast = min(clock(optimized) for _ in range(3))
        assert fast * 5 < raw, (raw, fast)


#: ``Σ{A[y] | y ∈ gen!5}`` over four cells: ⊥ at ``y = 4``
OUT_OF_RANGE = ast.Sum("y", ast.Subscript(V("A"), (V("y"),)), ast.Gen(N(5)))
#: ``Σ{A[y] | y ∈ gen!4}``: 10, but not provably ⊥-free, so not hoisted
IN_RANGE = ast.Sum("y", ast.Subscript(V("A"), (V("y"),)), ast.Gen(N(4)))
#: ``Σ{y | y ∈ S}``: expensive and provably ⊥-free
INVARIANT = ast.Sum("y", V("y"), V("S"))
BINDS = {"A": Array.from_list([1, 2, 3, 4]), "S": frozenset({2, 5, 7}),
         "E": frozenset(), "B": Bag([2, 5, 5]), "x": 3}


def in_loop(value, source, loop=ast.Ext, single=ast.Singleton):
    """``⋃{⋃{{(d, x + x)} | x ∈ {value}} | d ∈ source}``, or its Σ / ⊎
    twin: the body uses the binding twice, so β leaves it alone."""
    twice = ast.Arith("+", V("x"), V("x"))
    body = ast.Arith("*", twice, V("d")) if loop is ast.Sum else \
        single(ast.TupleE((V("d"), twice)))
    return loop("d", loop("x", body, single(value)), source)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
class TestLetFloating:
    """``⋃{⋃{f | x ∈ {e}} | d ∈ D}`` ⇝ ``⋃{⋃{f | d ∈ D} | x ∈ {e}}``,
    checked against the reference evaluator on the *unoptimised* term."""

    @staticmethod
    def floated(expr, strict, remove=()):
        """The optimised term's outcome (agreeing with the reference on
        ``expr``) and its let-float count."""
        optimizer = default_optimizer(assume_error_free=not strict)
        for name in remove:
            optimizer.phase("motion").rules.remove(name)
        got = agree(optimizer.optimize(expr), binds=BINDS)
        assert got == reference_outcome(expr, binds=BINDS)
        return got, optimizer.phase("motion").stats.by_rule.get("let-float", 0)

    def test_bottom_binding_under_a_nonempty_gen_keeps_its_reason(
            self, strict):
        got, fired = self.floated(in_loop(OUT_OF_RANGE, ast.Gen(N(3))), strict)
        assert got == ("bottom", "index (4,) out of bounds for dims (4,)")
        assert fired == 1

    def test_empty_gen_keeps_the_binding_unevaluated(self, strict):
        expr = in_loop(OUT_OF_RANGE, ast.Gen(N(0)))
        got, fired = self.floated(expr, strict)
        assert got == ("value", frozenset()) and fired == 0
        # (normalisation may empty the loop first: ask the rule itself)
        assert motion_only(expr, "let-float") is None

    def test_possibly_empty_source_floats_only_an_error_free_binding(
            self, strict):
        # (hoisting would bind an error-free ``{e}`` first)
        alone = ["hoist-loop-invariant"]
        got, fired = self.floated(in_loop(OUT_OF_RANGE, V("E")), strict, alone)
        assert got == ("value", frozenset()) and fired == 0
        got, fired = self.floated(in_loop(INVARIANT, V("S")), strict, alone)
        assert got == ("value", frozenset({(2, 28), (5, 28), (7, 28)}))
        assert fired == 1

    def test_binding_that_mentions_the_loop_variable_stays(self, strict):
        variant = ast.Sum("y", ast.Arith("+", V("y"), V("d")), V("S"))
        got, fired = self.floated(in_loop(variant, ast.Gen(N(3))), strict)
        assert got == ("value", frozenset({(0, 28), (1, 34), (2, 40)}))
        assert fired == 0

    def test_singleton_inside_a_singleton_does_not_swap_back(self, strict):
        _, fired = self.floated(
            in_loop(INVARIANT, ast.Singleton(INVARIANT)), strict,
            ["hoist-loop-invariant"])
        assert fired == 0
        # ``d ∈ {…}`` floats past ``z ∈ gen!3`` once; ``x`` needs ``z``
        uses_z = ast.Arith("+", IN_RANGE, ast.Arith("*", V("z"), N(4)))
        outer = ast.Ext("z", in_loop(uses_z, ast.Singleton(IN_RANGE)),
                        ast.Gen(N(3)))
        got, fired = self.floated(outer, strict)
        assert got == ("value", frozenset({(10, 20), (10, 28), (10, 36)}))
        assert fired == 1

    def test_binders_are_not_captured(self, strict):
        alone = ["hoist-loop-invariant"]
        # ``gen!x`` names the free ``x``, not the binding's
        got, fired = self.floated(in_loop(INVARIANT, ast.Gen(V("x"))),
                                  strict, alone)
        assert got == ("value", frozenset({(0, 28), (1, 28), (2, 28)}))
        assert fired == 0
        # the binding shadows the loop variable
        shadowed = ast.Ext("d", ast.Ext(
            "d", ast.Singleton(ast.TupleE((V("d"), V("d")))),
            ast.Singleton(INVARIANT)), V("S"))
        got, fired = self.floated(shadowed, strict, alone)
        assert got == ("value", frozenset({(14, 14)})) and fired == 0

    def test_sums_float_the_same_way(self, strict):
        got, fired = self.floated(in_loop(IN_RANGE, ast.Gen(N(3)), ast.Sum),
                                  strict)
        assert got == ("value", 60) and fired == 1
        got, fired = self.floated(in_loop(OUT_OF_RANGE, ast.Gen(N(0)),
                                          ast.Sum), strict)
        assert got == ("value", 0) and fired == 0

    def test_bags_float_an_error_free_binding(self, strict):
        expr = in_loop(INVARIANT, V("B"), ast.BagExt, ast.SingletonBag)
        got, fired = self.floated(expr, strict, ["hoist-loop-invariant"])
        assert got == ("value", Bag([(2, 28), (5, 28), (5, 28)]))
        assert fired == 1

    def test_rule_can_be_removed_like_any_other(self, strict):
        expr = in_loop(OUT_OF_RANGE, ast.Gen(N(3)))
        got, fired = self.floated(expr, strict, remove=["let-float"])
        assert got[0] == "bottom" and fired == 0
        assert "let-float" in default_optimizer().phase("motion").rules.names()


class TestSharingGuards:
    """Regression: naive β destroyed hist' complexity (found by C2)."""

    def test_effective_occurrences_weights_loops(self):
        body = ast.Tabulate(("i",), (N(3),), V("g"))
        assert effective_occurrences(body, "g") == 2
        flat = ast.Arith("+", V("g"), N(1))
        assert effective_occurrences(flat, "g") == 1

    def test_effective_occurrences_respects_shadowing(self):
        body = ast.Ext("g", ast.Singleton(V("g")), V("h"))
        assert effective_occurrences(body, "g") == 0
        assert effective_occurrences(body, "h") == 1

    def test_expensive_let_not_inlined(self, std_env):
        expr = aql_core(std_env, r"""
            let val \g = index!S in [[ g[i] | \i < len!g ]] end""")
        out = default_optimizer().optimize(expr)
        occurrences = sum(
            isinstance(t, ast.IndexSet) for t in ast.subterms(out)
        )
        assert occurrences == 1  # computed once, not inlined per use

    def test_cheap_let_still_inlined(self, std_env):
        expr = aql_core(std_env, r"let val \x = 5 in x + x end")
        out = default_optimizer().optimize(expr)
        assert out == N(10)

    def test_hist_fast_keeps_single_groupby_after_optimization(self,
                                                              std_env):
        expr = aql_core(std_env, "hist2!A", optimize=True)
        occurrences = sum(
            isinstance(t, ast.IndexSet) for t in ast.subterms(expr)
        )
        assert occurrences == 1

    def test_hist_fast_complexity_shape(self, std_env):
        import time

        expr = aql_core(std_env, "hist2!A")

        def clock(n):
            arr = Array.from_list([(i * 37) % n for i in range(n)])
            start = time.perf_counter()
            evaluate(expr, {"A": arr})
            return time.perf_counter() - start

        t_small = min(clock(128) for _ in range(3))
        t_large = min(clock(512) for _ in range(3))
        # 4x the data must cost well under the 16x a quadratic would
        assert t_large < 10 * t_small, (t_small, t_large)
