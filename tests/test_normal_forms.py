"""C3/C4 — the Section 5 normal-form claims, plus optimizer soundness.

* the derived ``transpose`` rule:
  ``transpose([[e | i<m, j<n]]) ⇝ [[e | j<n, i<m]]``;
* ``zip ∘ (subseq, subseq)`` and ``subseq ∘ zip`` normalize to the same
  query up to redundant bound checks;
* a property-based soundness check: optimization never changes the value
  of a query.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import builders as B
from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.analysis import strip_bounds_checks
from repro.optimizer.engine import default_optimizer

from conftest import nat_arrays, nat_matrices

N = ast.NatLit
V = ast.Var


@pytest.fixture(scope="module")
def opt():
    return default_optimizer()


class TestTransposeRule:
    """C4: the transpose rule is derivable from β, π, β^p, δ^p + bounds
    elimination — no transpose-specific rule exists in the system."""

    def test_rule_name_absent(self, opt):
        for phase in opt.phases:
            assert "transpose" not in " ".join(phase.rules.names())

    def test_derivation(self, opt):
        body = ast.Arith("+", ast.Arith("*", V("i"), V("n")), V("j"))
        tab = ast.Tabulate(("i", "j"), (V("m"), V("n")), body)
        normal = opt.optimize(B.transpose(tab))
        expected = ast.Tabulate(("j", "i"), (V("n"), V("m")), body)
        assert ast.alpha_equal(normal, expected)

    def test_no_redundant_checks_remain(self, opt):
        tab = ast.Tabulate(("i", "j"), (V("m"), V("n")), V("i"))
        normal = opt.optimize(B.transpose(tab))
        assert not any(isinstance(t, ast.Bottom)
                       for t in ast.subterms(normal))

    @given(nat_matrices(max_dim=3))
    @settings(max_examples=25)
    def test_semantics_preserved(self, m):
        local = default_optimizer()
        e = B.transpose(ast.Const(m))
        assert evaluate(local.optimize(e)) == evaluate(e)

    def test_double_transpose_is_identity(self, opt):
        # η^p finishes the job: transpose(transpose(M)) ⇝ M
        assert opt.optimize(B.transpose(B.transpose(V("M")))) == V("M")


class TestZipSubseqEquivalence:
    """C3: zip_3∘(subseq,subseq,subseq) and subseq∘zip_3 reduce to the
    same query, up to extra constant-time bound checks (Section 1/5)."""

    def _normal_forms(self, opt, lo, hi):
        q1 = B.zip2(B.subseq(V("A"), N(lo), N(hi)),
                    B.subseq(V("B"), N(lo), N(hi)))
        q2 = B.subseq(B.zip2(V("A"), V("B")), N(lo), N(hi))
        return opt.optimize(q1), opt.optimize(q2)

    def test_equal_up_to_bound_checks(self, opt):
        n1, n2 = self._normal_forms(opt, 2, 7)
        assert not ast.alpha_equal(n1, n2)  # residual checks differ...
        assert ast.alpha_equal(strip_bounds_checks(n1),
                               strip_bounds_checks(n2))  # ...only

    def test_both_sides_are_single_tabulations(self, opt):
        n1, n2 = self._normal_forms(opt, 2, 7)
        assert isinstance(n1, ast.Tabulate)
        assert isinstance(n2, ast.Tabulate)
        # no nested tabulations survive: intermediates were eliminated
        for normal in (n1, n2):
            inner = [t for t in ast.subterms(normal.body)
                     if isinstance(t, ast.Tabulate)]
            assert inner == []

    def test_three_way_zip_variant(self, opt):
        q1 = B.zip3(B.subseq(V("A"), N(1), N(4)),
                    B.subseq(V("B"), N(1), N(4)),
                    B.subseq(V("C"), N(1), N(4)))
        q2 = B.subseq(B.zip3(V("A"), V("B"), V("C")), N(1), N(4))
        n1, n2 = opt.optimize(q1), opt.optimize(q2)
        assert ast.alpha_equal(strip_bounds_checks(n1),
                               strip_bounds_checks(n2))

    @given(st.lists(st.integers(0, 20), min_size=10, max_size=14),
           st.lists(st.integers(0, 20), min_size=10, max_size=14))
    @settings(max_examples=20)
    def test_values_agree_after_optimization(self, xs, ys):
        local = default_optimizer()
        binds = {"A": Array.from_list(xs), "B": Array.from_list(ys)}
        q1 = B.zip2(B.subseq(V("A"), N(2), N(7)),
                    B.subseq(V("B"), N(2), N(7)))
        q2 = B.subseq(B.zip2(V("A"), V("B")), N(2), N(7))
        v1 = evaluate(local.optimize(q1), binds)
        v2 = evaluate(local.optimize(q2), binds)
        assert v1 == v2 == evaluate(q1, binds)


class TestEtaPipelines:
    def test_identity_map_collapses(self, opt):
        # [[A[i] | i < len A]] ⇝ A  (η^p after β fires on map's lambda)
        e = B.map_array(lambda x: x, V("A"))
        assert opt.optimize(e) == V("A")

    def test_reverse_reverse_collapses(self, opt):
        e = B.reverse(B.reverse(V("A")))
        out = opt.optimize(e)
        # needs len A - (len A - i - 1) - 1 = i: beyond pure rewriting,
        # but the result must stay a single tabulation over A
        tabs = [t for t in ast.subterms(out) if isinstance(t, ast.Tabulate)]
        assert len(tabs) <= 1

    def test_map_fusion(self, opt):
        # map f (map g A) fuses into a single tabulation
        e = B.map_array(
            lambda x: ast.Arith("+", x, N(1)),
            B.map_array(lambda x: ast.Arith("*", x, N(2)), V("A")),
        )
        out = opt.optimize(e)
        tabs = [t for t in ast.subterms(out) if isinstance(t, ast.Tabulate)]
        assert len(tabs) == 1
        arr = Array.from_list([1, 2, 3])
        assert evaluate(out, {"A": arr}) == \
            Array.from_list([3, 5, 7])


class TestOptimizerSoundness:
    """Optimization must never change query results (or error behaviour
    of error-free queries)."""

    CASES = [
        ("hist", lambda: B.hist(V("A")), "array"),
        ("hist_fast", lambda: B.hist_fast(V("A")), "array"),
        ("reverse", lambda: B.reverse(V("A")), "array"),
        ("evenpos", lambda: B.evenpos(V("A")), "array"),
        ("rng", lambda: B.rng(V("A")), "array"),
        ("graph", lambda: B.graph(V("A")), "array"),
        ("dom", lambda: B.dom(V("A")), "array"),
        ("nest", lambda: B.nest(V("R")), "rel"),
        ("count", lambda: B.count(V("S")), "set"),
    ]

    @pytest.mark.parametrize("name,make,kind",
                             CASES, ids=[c[0] for c in CASES])
    @given(data=st.data())
    @settings(max_examples=15)
    def test_preserved(self, name, make, kind, data):
        local = default_optimizer()
        expr = make()
        if kind == "array":
            binds = {"A": data.draw(nat_arrays)}
            if name in ("hist", "hist_fast") and not binds["A"].size:
                return  # hist of an empty array is ⊥ (max of empty rng)
        elif kind == "rel":
            rel = data.draw(st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                max_size=6).map(frozenset))
            binds = {"R": rel}
        else:
            binds = {"S": data.draw(st.lists(st.integers(0, 9),
                                             max_size=6).map(frozenset))}
        before = evaluate(expr, binds)
        after = evaluate(local.optimize(expr), binds)
        assert before == after

    @given(nat_matrices(max_dim=3), nat_matrices(max_dim=3))
    @settings(max_examples=15)
    def test_matrix_multiply_preserved(self, m, n):
        from repro.errors import BottomError
        local = default_optimizer()
        expr = B.multiply(V("M"), V("N"))
        binds = {"M": m, "N": n}
        try:
            before = evaluate(expr, binds)
        except BottomError:
            with pytest.raises(BottomError):
                evaluate(local.optimize(expr), binds)
            return
        assert evaluate(local.optimize(expr), binds) == before
