"""Per-rule tests: each rewrite fires where it should, not where it
shouldn't, and preserves semantics."""

import pytest

from repro.core import ast
from repro.core import evaluate
from repro.errors import BottomError, EvalError
from repro.objects.array import Array
from repro.optimizer.analysis import (
    is_duplication_safe,
    is_error_free,
    strip_bounds_checks,
)
from repro.optimizer.engine import Phase, RuleBase, default_optimizer
from repro.optimizer.rules_arith import arith_rules
from repro.optimizer.rules_arrays import array_rules
from repro.optimizer.rules_nrc import nrc_rules
from repro.system.session import Session

N = ast.NatLit
V = ast.Var


def apply_named(rules, name, expr):
    (rule,) = [r for r in rules if r.name == name]
    return rule.apply(expr)


class TestNRCRules:
    def setup_method(self):
        self.rules = nrc_rules()

    def test_beta(self):
        e = ast.App(ast.Lam("x", ast.Arith("+", V("x"), V("x"))), N(2))
        assert apply_named(self.rules, "beta", e) == \
            ast.Arith("+", N(2), N(2))

    def test_beta_no_fire_on_plain_app(self):
        e = ast.App(V("f"), N(1))
        assert apply_named(self.rules, "beta", e) is None

    #: (fn \z => [[ π1(z)!(π2(z)[i]) | \i < dim_1(π2 z) ]])!(f, index_1(P)),
    #: β's duplication guard refusing the tuple as a whole
    GROUPS = ast.IndexSet(V("P"), 1)
    MAPPED = ast.Tabulate(
        ("i",), (ast.Dim(ast.Proj(2, 2, V("z")), 1),),
        ast.App(ast.Proj(1, 2, V("z")),
                ast.Subscript(ast.Proj(2, 2, V("z")), (V("i"),))))
    COUNT = ast.Lam("S", ast.Sum("x", N(1), V("S")))

    def test_beta_splits_a_tuple_holding_a_lambda(self):
        e = ast.App(ast.Lam("z", self.MAPPED),
                    ast.TupleE((self.COUNT, self.GROUPS)))
        split = apply_named(self.rules, "beta", e)
        # (fn \z2 => b'{z1 := count})!(index_1(P)): the λ substituted,
        # the index bound once
        assert split.arg == self.GROUPS
        second = split.fn.param
        assert split.fn.body == ast.Tabulate(
            ("i",), (ast.Dim(V(second), 1),),
            ast.App(self.COUNT, ast.Subscript(V(second), (V("i"),))))
        # the λ passes both guards, the index stays bound once (and where
        # the cell may be discarded, count's β inlines it too)
        out = Phase("normalize", RuleBase(nrc_rules(True))).run(e)
        assert out.arg == self.GROUPS and isinstance(out.fn.body.body, ast.Sum)
        binds = {"P": frozenset({(0, 5), (2, 6), (2, 7)})}
        assert evaluate(out, binds) == evaluate(e, binds) == \
            Array.from_list([1, 0, 2])

    def test_beta_splits_no_tuple_without_a_lambda(self):
        # splitting every tuple costs the optimizer more than plans gain
        e = ast.App(ast.Lam("z", self.MAPPED),
                    ast.TupleE((V("f"), self.GROUPS)))
        assert apply_named(self.rules, "beta", e) is None

    def test_beta_split_keeps_the_components_in_order(self):
        # (fn \z => π3(z) + π1(z) * π1(z))!(Σ S, f, Σ S'): Σ S binds first
        sums = [ast.Sum("x", V("x"), V(name)) for name in ("S", "T")]
        body = ast.Arith("+", ast.Proj(3, 3, V("z")), ast.Arith(
            "*", ast.Proj(1, 3, V("z")), ast.Proj(1, 3, V("z"))))
        e = ast.App(ast.Lam("z", body), ast.TupleE(
            (sums[0], ast.Lam("y", V("y")), sums[1])))
        split = apply_named(nrc_rules(True), "beta", e)
        assert split.arg == sums[0] and split.fn.body.arg == sums[1]
        binds = {"S": frozenset({1, 2}), "T": frozenset({4})}
        assert evaluate(split, binds) == evaluate(e, binds) == 13

    def test_beta_splits_no_tuple_read_whole(self):
        body = ast.TupleE((self.MAPPED, V("z")))
        e = ast.App(ast.Lam("z", body), ast.TupleE((self.COUNT, self.GROUPS)))
        assert apply_named(self.rules, "beta", e) is None

    def test_proj_tuple(self):
        e = ast.Proj(2, 2, ast.TupleE((N(1), N(2))))
        assert apply_named(self.rules, "proj-tuple", e) == N(2)

    def test_ext_singleton_source(self):
        e = ast.Ext("x", ast.Singleton(V("x")), ast.Singleton(N(5)))
        assert apply_named(self.rules, "ext-singleton-source", e) == \
            ast.Singleton(N(5))

    def test_ext_union_distributes(self):
        e = ast.Ext("x", ast.Singleton(V("x")),
                    ast.Union(V("A"), V("B")))
        out = apply_named(self.rules, "ext-union-source", e)
        assert isinstance(out, ast.Union)
        assert isinstance(out.left, ast.Ext)

    def test_vertical_fusion_semantics(self):
        inner = ast.Ext("y", ast.Singleton(ast.Arith("*", V("y"), N(2))),
                        ast.Const(frozenset({1, 2, 3})))
        outer = ast.Ext("x", ast.Singleton(ast.Arith("+", V("x"), N(1))),
                        inner)
        fused = apply_named(self.rules, "ext-ext-fusion", outer)
        assert fused is not None
        assert isinstance(fused.source, ast.Const)  # loop over base set now
        assert evaluate(fused) == evaluate(outer) == frozenset({3, 5, 7})

    def test_vertical_fusion_capture_avoidance(self):
        # the outer body mentions a free `y` that must not be captured
        inner = ast.Ext("y", ast.Singleton(V("y")), V("S"))
        outer = ast.Ext("x", ast.Singleton(ast.TupleE((V("x"), V("y")))),
                        inner)
        fused = apply_named(self.rules, "ext-ext-fusion", outer)
        env = {"S": frozenset({1}), "y": 99}
        assert evaluate(fused, env) == evaluate(outer, env) == \
            frozenset({(1, 99)})

    def test_filter_promotion(self):
        e = ast.Ext("x", ast.Singleton(V("x")),
                    ast.If(V("c"), V("A"), V("B")))
        out = apply_named(self.rules, "ext-if-source", e)
        assert isinstance(out, ast.If)

    def test_ext_eta(self):
        e = ast.Ext("x", ast.Singleton(V("x")), V("S"))
        assert apply_named(self.rules, "ext-eta", e) == V("S")

    def test_ext_eta_requires_same_var(self):
        e = ast.Ext("x", ast.Singleton(V("y")), V("S"))
        assert apply_named(self.rules, "ext-eta", e) is None

    def test_horizontal_fusion_semantics(self):
        s = ast.Const(frozenset({1, 2}))
        left = ast.Ext("x", ast.Singleton(ast.Arith("*", V("x"), N(10))), s)
        right = ast.Ext("y", ast.Singleton(ast.Arith("+", V("y"), N(1))), s)
        e = ast.Union(left, right)
        out = apply_named(self.rules, "horizontal-fusion", e)
        assert isinstance(out, ast.Ext)
        assert evaluate(out) == evaluate(e)

    def test_horizontal_fusion_requires_equal_sources(self):
        e = ast.Union(
            ast.Ext("x", ast.Singleton(V("x")), V("A")),
            ast.Ext("y", ast.Singleton(V("y")), V("B")),
        )
        assert apply_named(self.rules, "horizontal-fusion", e) is None

    def test_if_folding(self):
        assert apply_named(self.rules, "if-literal-cond",
                           ast.If(ast.BoolLit(True), N(1), N(2))) == N(1)

    def test_if_bool_branches(self):
        e = ast.If(V("c"), ast.BoolLit(True), ast.BoolLit(False))
        assert apply_named(self.rules, "if-bool-branches", e) == V("c")

    def test_if_same_branches_guarded(self):
        safe = ast.If(ast.Cmp("<", V("a"), V("b")), N(1), N(1))
        assert apply_named(self.rules, "if-same-branches", safe) == N(1)
        risky = ast.If(ast.Cmp("<", ast.Get(V("s")), V("b")), N(1), N(1))
        assert apply_named(self.rules, "if-same-branches", risky) is None

    def test_cmp_fold_literals(self):
        assert apply_named(self.rules, "cmp-fold",
                           ast.Cmp("<", N(1), N(2))) == ast.BoolLit(True)

    def test_cmp_fold_reflexive_var(self):
        assert apply_named(self.rules, "cmp-fold",
                           ast.Cmp("<=", V("x"), V("x"))) == \
            ast.BoolLit(True)
        assert apply_named(self.rules, "cmp-fold",
                           ast.Cmp("<", V("x"), V("x"))) == \
            ast.BoolLit(False)

    def test_cmp_fold_mixed_literal_kinds_no_fire(self):
        assert apply_named(self.rules, "cmp-fold",
                           ast.Cmp("=", N(1), ast.RealLit(1.0))) is None

    def test_cmp_fold_keeps_reflexive_equality(self):
        # x = x is false for a NaN x, so only the order tests fold
        for op in ("=", "<>"):
            assert apply_named(self.rules, "cmp-fold",
                               ast.Cmp(op, V("x"), V("x"))) is None

    def test_cmp_fold_nan_literals_follow_the_language(self):
        nan = ast.RealLit(float("nan"))
        expected = {"=": False, "<>": True, "<": False, "<=": True,
                    ">": False, ">=": True}
        for op, value in expected.items():
            assert apply_named(self.rules, "cmp-fold",
                               ast.Cmp(op, nan, ast.RealLit(1.0))) \
                == ast.BoolLit(value), op

    def test_get_singleton(self):
        assert apply_named(self.rules, "get-singleton",
                           ast.Get(ast.Singleton(N(3)))) == N(3)


#: comparisons the optimizer once folded by host ``==``/``<=`` or by
#: reflexivity, disagreeing with the language on NaN
NAN_STATEMENTS = {
    "x = x": False,
    "x <> x": True,
    "t = t": False,
    "(1e308 * 10.0 - 1e308 * 10.0) <= 1.0": True,
    "x <= x": True,
}


@pytest.mark.parametrize("text", sorted(NAN_STATEMENTS))
def test_nan_comparisons_agree_with_and_without_the_optimizer(text):
    from conftest import reference_query_value
    from repro.system.session import Session

    values = []
    for optimize in (True, False):
        session = Session(optimize=optimize)
        session.env.set_val("x", float("nan"))
        session.env.set_val("t", (float("nan"), 1.0))
        values.append(session.query_value(text + ";"))
        values.append(reference_query_value(session.env, text,
                                            optimize=optimize))
    assert values == [NAN_STATEMENTS[text]] * 4


class TestArithRules:
    def setup_method(self):
        self.rules = arith_rules()

    def test_fold(self):
        assert apply_named(self.rules, "arith-fold",
                           ast.Arith("+", N(2), N(3))) == N(5)

    def test_fold_monus(self):
        assert apply_named(self.rules, "arith-fold",
                           ast.Arith("-", N(2), N(5))) == N(0)

    def test_fold_reals(self):
        out = apply_named(self.rules, "arith-fold",
                          ast.Arith("*", ast.RealLit(2.0),
                                    ast.RealLit(1.5)))
        assert out == ast.RealLit(3.0)

    def test_fold_division_by_zero_to_bottom(self):
        out = apply_named(self.rules, "arith-fold",
                          ast.Arith("/", N(1), N(0)))
        assert out == ast.Bottom("division by zero")

    def test_identities(self):
        assert apply_named(self.rules, "arith-identity",
                           ast.Arith("+", V("x"), N(0))) == V("x")
        assert apply_named(self.rules, "arith-identity",
                           ast.Arith("*", N(1), V("x"))) == V("x")
        assert apply_named(self.rules, "arith-identity",
                           ast.Arith("/", V("x"), N(1))) == V("x")

    def test_zero_minus_not_an_identity(self):
        # 0 - x is monus, NOT x
        assert apply_named(self.rules, "arith-identity",
                           ast.Arith("-", N(0), V("x"))) is None

    def test_sum_rules(self):
        assert apply_named(self.rules, "sum-empty-source",
                           ast.Sum("x", V("x"), ast.EmptySet())) == N(0)
        assert apply_named(self.rules, "sum-singleton-source",
                           ast.Sum("x", V("x"), ast.Singleton(N(7)))) == N(7)

    def test_gen_zero(self):
        assert apply_named(self.rules, "gen-zero",
                           ast.Gen(N(0))) == ast.EmptySet()


class TestArrayRules:
    def setup_method(self):
        self.rules = array_rules()
        self.assume = array_rules(assume_error_free=True)

    def test_beta_p_one_dim(self):
        tab = ast.Tabulate(("i",), (N(5),), ast.Arith("*", V("i"), N(2)))
        e = ast.Subscript(tab, (N(3),))
        out = apply_named(self.rules, "beta-p", e)
        assert out == ast.If(ast.Cmp("<", N(3), N(5)),
                             ast.Arith("*", N(3), N(2)),
                             ast.Bottom("index out of bounds"))

    def test_beta_p_k_dim_nested_checks(self):
        tab = ast.Tabulate(("i", "j"), (V("m"), V("n")),
                           ast.TupleE((V("i"), V("j"))))
        e = ast.Subscript(tab, (V("a"), V("b")))
        out = apply_named(self.rules, "beta-p", e)
        assert isinstance(out, ast.If)
        assert isinstance(out.then, ast.If)  # one check per dimension

    def test_beta_p_semantics_in_bounds(self):
        tab = ast.Tabulate(("i",), (N(5),), ast.Arith("*", V("i"), N(2)))
        e = ast.Subscript(tab, (N(3),))
        out = apply_named(self.rules, "beta-p", e)
        assert evaluate(out) == evaluate(e) == 6

    def test_beta_p_semantics_out_of_bounds(self):
        tab = ast.Tabulate(("i",), (N(2),), V("i"))
        e = ast.Subscript(tab, (N(9),))
        out = apply_named(self.rules, "beta-p", e)
        with pytest.raises(BottomError):
            evaluate(out)

    def test_eta_p(self):
        e = ast.Tabulate(("i",), (ast.Dim(V("E"), 1),),
                         ast.Subscript(V("E"), (V("i"),)))
        assert apply_named(self.rules, "eta-p", e) == V("E")

    def test_eta_p_k_dim(self):
        e = ast.Tabulate(
            ("i", "j"),
            (ast.Proj(1, 2, ast.Dim(V("M"), 2)),
             ast.Proj(2, 2, ast.Dim(V("M"), 2))),
            ast.Subscript(V("M"), (V("i"), V("j"))),
        )
        assert apply_named(self.rules, "eta-p", e) == V("M")

    def test_eta_p_rejects_swapped_indices(self):
        e = ast.Tabulate(
            ("i", "j"),
            (ast.Proj(1, 2, ast.Dim(V("M"), 2)),
             ast.Proj(2, 2, ast.Dim(V("M"), 2))),
            ast.Subscript(V("M"), (V("j"), V("i"))),
        )
        assert apply_named(self.rules, "eta-p", e) is None

    def test_eta_p_rejects_wrong_bounds(self):
        e = ast.Tabulate(("i",), (N(5),),
                         ast.Subscript(V("E"), (V("i"),)))
        assert apply_named(self.rules, "eta-p", e) is None

    def test_eta_p_rejects_self_reference(self):
        # the array expression may not mention the index variable
        e = ast.Tabulate(
            ("i",), (ast.Dim(ast.Subscript(V("N"), (V("i"),)), 1),),
            ast.Subscript(ast.Subscript(V("N"), (V("i"),)), (V("i"),)),
        )
        assert apply_named(self.rules, "eta-p", e) is None

    def test_delta_p_error_free_body(self):
        e = ast.Dim(ast.Tabulate(("i",), (V("n"),), V("i")), 1)
        assert apply_named(self.rules, "delta-p", e) == V("n")

    def test_delta_p_guard_blocks_subscript_body(self):
        body = ast.Subscript(V("A"), (V("i"),))
        e = ast.Dim(ast.Tabulate(("i",), (V("n"),), body), 1)
        assert apply_named(self.rules, "delta-p", e) is None
        # ... unless the paper's assumption is switched on
        assert apply_named(self.assume, "delta-p", e) == V("n")

    def test_delta_p_k_dim(self):
        e = ast.Dim(ast.Tabulate(("i", "j"), (V("m"), V("n")), N(0)), 2)
        assert apply_named(self.rules, "delta-p", e) == \
            ast.TupleE((V("m"), V("n")))

    def test_dim_mkarray(self):
        e = ast.Dim(ast.MkArray((N(3),), (N(1), N(2), N(3))), 1)
        assert apply_named(self.rules, "dim-mkarray", e) == N(3)

    def test_dim_mkarray_mismatch_no_fire(self):
        e = ast.Dim(ast.MkArray((N(3),), (N(1),)), 1)
        assert apply_named(self.rules, "dim-mkarray", e) is None

    def test_subscript_mkarray(self):
        e = ast.Subscript(ast.MkArray((N(2), N(2)),
                                      (N(10), N(11), N(12), N(13))),
                          (N(1), N(0)))
        assert apply_named(self.rules, "subscript-mkarray", e) == N(12)

    def test_subscript_mkarray_out_of_bounds_to_bottom(self):
        e = ast.Subscript(ast.MkArray((N(1),), (N(10),)), (N(5),))
        assert apply_named(self.rules, "subscript-mkarray", e) == \
            ast.Bottom("index out of bounds")

    def test_subscript_if_distributes(self):
        e = ast.Subscript(ast.If(V("c"), V("A"), V("B")), (N(0),))
        out = apply_named(self.rules, "subscript-if", e)
        assert isinstance(out, ast.If)
        assert isinstance(out.then, ast.Subscript)


class TestAnalysis:
    def test_error_free_positive(self):
        assert is_error_free(ast.Arith("+", V("x"), N(1)))
        assert is_error_free(ast.Tabulate(("i",), (V("n"),), V("i")))
        assert is_error_free(ast.Arith("/", V("x"), N(2)))

    def test_error_free_negative(self):
        assert not is_error_free(ast.Bottom())
        assert not is_error_free(ast.Subscript(V("A"), (N(0),)))
        assert not is_error_free(ast.Get(V("s")))
        assert not is_error_free(ast.Arith("/", V("x"), N(0)))
        assert not is_error_free(ast.Arith("/", V("x"), V("y")))
        assert not is_error_free(ast.App(V("f"), N(1)))
        assert not is_error_free(ast.MkArray((N(2),), (N(1),)))
        # a negative key is an error of index_k
        assert not is_error_free(ast.IndexSet(V("P"), 1))

    def test_strict_pipeline_keeps_an_index_key_error(self):
        want = "bad index key -3 for rank 1"
        for optimize in (False, True):
            session = Session(optimize=optimize)
            session.env.optimizer = default_optimizer(False)
            session.env.set_val("Q", frozenset({(-3, 1), (0, 2)}))
            with pytest.raises(EvalError, match=want):
                session.query_value(r"(fn \x => 5)!(index!Q);")

    def test_duplication_safety(self):
        assert is_duplication_safe(V("x"))
        assert is_duplication_safe(ast.Arith("+", V("x"), N(1)))
        assert not is_duplication_safe(
            ast.Ext("x", ast.Singleton(V("x")), V("S"))
        )
        # copying a closure copies code, not work
        assert is_duplication_safe(ast.Lam("y", ast.Ext(
            "x", ast.Singleton(V("x")), V("y"))))

    def test_strip_bounds_checks(self):
        e = ast.If(ast.Cmp("<", V("i"), V("n")), V("x"), ast.Bottom())
        assert strip_bounds_checks(e) == V("x")

    def test_strip_leaves_real_conditionals(self):
        e = ast.If(ast.Cmp("<", V("i"), V("n")), V("x"), V("y"))
        assert strip_bounds_checks(e) == e
