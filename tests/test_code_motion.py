"""Tests for the code-motion phase (Section 5's "later phases") and the
work-duplication guards that protect sharing.
"""

import pytest
from hypothesis import given, settings

from repro.core import ast
from repro.core.builders import count, hist_fast, let_in
from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.analysis import effective_occurrences
from repro.optimizer.engine import default_optimizer
from repro.optimizer.rules_motion import motion_rules

from conftest import nat_arrays, nat_sets

N = ast.NatLit
V = ast.Var


def motion_only(expr):
    (rule,) = motion_rules()
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

    def test_expensive_let_not_inlined(self):
        expensive = ast.IndexSet(V("S"), 1)
        expr = let_in("g", expensive,
                      ast.Tabulate(("i",), (ast.Dim(V("g"), 1),),
                                   ast.Subscript(V("g"), (V("i"),))))
        out = default_optimizer().optimize(expr)
        occurrences = sum(
            isinstance(t, ast.IndexSet) for t in ast.subterms(out)
        )
        assert occurrences == 1  # computed once, not inlined per use

    def test_cheap_let_still_inlined(self):
        expr = let_in("x", N(5), ast.Arith("+", V("x"), V("x")))
        out = default_optimizer().optimize(expr)
        assert out == N(10)

    def test_hist_fast_keeps_single_groupby_after_optimization(self):
        expr = default_optimizer().optimize(hist_fast(V("A")))
        occurrences = sum(
            isinstance(t, ast.IndexSet) for t in ast.subterms(expr)
        )
        assert occurrences == 1

    def test_hist_fast_complexity_shape(self):
        import time

        expr = hist_fast(V("A"))

        def clock(n):
            arr = Array.from_list([(i * 37) % n for i in range(n)])
            start = time.perf_counter()
            evaluate(expr, {"A": arr})
            return time.perf_counter() - start

        t_small = min(clock(128) for _ in range(3))
        t_large = min(clock(512) for _ in range(3))
        # 4x the data must cost well under the 16x a quadratic would
        assert t_large < 10 * t_small, (t_small, t_large)
