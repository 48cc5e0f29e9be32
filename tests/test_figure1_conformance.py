"""F1 — Figure 1 conformance: every NRCA construct, typing and semantics.

For each construct of Figure 1 this module checks (a) the typing rule,
with a positive and a negative case, and (b) the evaluation semantics of
Section 2.
"""

import pytest

from repro.core import ast
from repro.core import evaluate
from repro.core.typecheck import infer_type
from repro.errors import BottomError, TypeCheckError
from repro.objects.array import Array
from repro.types.types import (
    TArray,
    TBool,
    TNat,
    TProduct,
    TSet,
    TString,
    TypeScheme,
)

N = ast.NatLit
V = ast.Var


def typ(expr, **env):
    return infer_type(
        expr, {k: TypeScheme.mono(v) for k, v in env.items()}
    )


class TestFunctions:
    """λx.e and e1(e2)."""

    def test_lam_type(self):
        t = typ(ast.Lam("x", ast.Arith("+", V("x"), N(1))))
        assert str(t) == "nat -> nat"

    def test_app_type(self):
        assert typ(ast.App(ast.Lam("x", V("x")), N(3))) == TNat()

    def test_app_argument_mismatch(self):
        bad = ast.App(ast.Lam("x", ast.Arith("+", V("x"), N(1))),
                      ast.BoolLit(True))
        with pytest.raises(TypeCheckError):
            typ(bad)

    def test_apply_non_function(self):
        with pytest.raises(TypeCheckError):
            typ(ast.App(N(1), N(2)))

    def test_beta_semantics(self):
        assert evaluate(ast.App(ast.Lam("x", ast.Arith("*", V("x"), V("x"))),
                                N(7))) == 49

    def test_closure_captures_environment(self):
        # (λx. λy. x)(1)(2) = 1
        inner = ast.App(
            ast.App(ast.Lam("x", ast.Lam("y", V("x"))), N(1)), N(2)
        )
        assert evaluate(inner) == 1


class TestProducts:
    """(e1,...,ek) and π_{i,k}."""

    def test_tuple_type(self):
        t = typ(ast.TupleE((N(1), ast.BoolLit(True), ast.StrLit("a"))))
        assert t == TProduct((TNat(), TBool(), TString()))

    def test_projection_type(self):
        t = typ(ast.Proj(2, 3, ast.TupleE((N(1), ast.BoolLit(True),
                                           ast.StrLit("a")))))
        assert t == TBool()

    def test_projection_arity_mismatch(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Proj(1, 2, ast.TupleE((N(1), N(2), N(3)))))

    def test_projection_semantics(self):
        e = ast.Proj(3, 3, ast.TupleE((N(1), N(2), N(3))))
        assert evaluate(e) == 3


class TestSets:
    """{}, {e}, e1 ∪ e2, ⋃{e1 | x ∈ e2}."""

    def test_empty_set_polymorphic(self):
        t = typ(ast.Union(ast.EmptySet(), ast.Singleton(N(1))))
        assert t == TSet(TNat())

    def test_singleton_type(self):
        assert typ(ast.Singleton(N(5))) == TSet(TNat())

    def test_union_same_elem_type_required(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Union(ast.Singleton(N(1)),
                          ast.Singleton(ast.BoolLit(True))))

    def test_union_of_non_sets_rejected(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Union(N(1), N(2)))

    def test_ext_type(self):
        e = ast.Ext("x", ast.Singleton(ast.Arith("+", V("x"), N(1))),
                    ast.Gen(N(3)))
        assert typ(e) == TSet(TNat())

    def test_ext_body_must_be_set(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Ext("x", V("x"), ast.Gen(N(3))))

    def test_union_semantics_dedup(self):
        e = ast.Union(ast.Singleton(N(1)), ast.Singleton(N(1)))
        assert evaluate(e) == frozenset({1})

    def test_ext_semantics_flattens(self):
        # ⋃{ {x, x+1} | x ∈ {0, 10} }
        body = ast.Union(ast.Singleton(V("x")),
                         ast.Singleton(ast.Arith("+", V("x"), N(1))))
        e = ast.Ext("x", body, ast.Const(frozenset({0, 10})))
        assert evaluate(e) == frozenset({0, 1, 10, 11})


class TestBooleansAndConditionals:
    def test_literals(self):
        assert typ(ast.BoolLit(True)) == TBool()
        assert evaluate(ast.BoolLit(False)) is False

    def test_if_type(self):
        assert typ(ast.If(ast.BoolLit(True), N(1), N(2))) == TNat()

    def test_if_condition_must_be_bool(self):
        with pytest.raises(TypeCheckError):
            typ(ast.If(N(1), N(1), N(2)))

    def test_if_branches_must_agree(self):
        with pytest.raises(TypeCheckError):
            typ(ast.If(ast.BoolLit(True), N(1), ast.BoolLit(False)))

    def test_if_lazy_in_untaken_branch(self):
        e = ast.If(ast.BoolLit(True), N(1), ast.Bottom())
        assert evaluate(e) == 1

    @pytest.mark.parametrize("op,expected", [
        ("=", False), ("<>", True), ("<", True),
        ("<=", True), (">", False), (">=", False),
    ])
    def test_comparisons(self, op, expected):
        assert evaluate(ast.Cmp(op, N(1), N(2))) is expected

    def test_comparison_at_set_type(self):
        # the order lifts to all object types (Section 2)
        e = ast.Cmp("<", ast.Const(frozenset({1})),
                    ast.Const(frozenset({1, 2})))
        assert evaluate(e) is True

    def test_comparison_operands_must_agree(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Cmp("=", N(1), ast.StrLit("x")))

    def test_functions_not_comparable(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Cmp("=", ast.Lam("x", V("x")), ast.Lam("y", V("y"))))


class TestNaturals:
    """Constants, arithmetic, gen, Σ."""

    def test_literal(self):
        assert typ(N(7)) == TNat()

    @pytest.mark.parametrize("op,a,b,expected", [
        ("+", 2, 3, 5),
        ("-", 2, 3, 0),   # monus!
        ("-", 7, 3, 4),
        ("*", 4, 3, 12),
        ("/", 7, 2, 3),   # integer division
        ("%", 7, 2, 1),
    ])
    def test_arith_semantics(self, op, a, b, expected):
        assert evaluate(ast.Arith(op, N(a), N(b))) == expected

    def test_division_by_zero_is_bottom(self):
        with pytest.raises(BottomError):
            evaluate(ast.Arith("/", N(1), N(0)))
        with pytest.raises(BottomError):
            evaluate(ast.Arith("%", N(1), N(0)))

    def test_real_arithmetic_overload(self):
        e = ast.Arith("-", ast.RealLit(1.0), ast.RealLit(2.5))
        assert evaluate(e) == -1.5  # ordinary subtraction on reals

    def test_arith_rejects_bool(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Arith("+", ast.BoolLit(True), N(1)))

    def test_mod_is_nat_only(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Arith("%", ast.RealLit(1.0), ast.RealLit(2.0)))

    def test_gen(self):
        assert typ(ast.Gen(N(3))) == TSet(TNat())
        assert evaluate(ast.Gen(N(3))) == frozenset({0, 1, 2})
        assert evaluate(ast.Gen(N(0))) == frozenset()

    def test_gen_requires_nat(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Gen(ast.RealLit(1.0)))

    def test_sum_semantics(self):
        e = ast.Sum("x", ast.Arith("*", V("x"), V("x")), ast.Gen(N(4)))
        assert evaluate(e) == 0 + 1 + 4 + 9

    def test_sum_over_set_counts_distinct_elements(self):
        # Σ over a SET: {1, 1, 2} has two elements
        e = ast.Sum("x", N(1), ast.Const(frozenset({1, 1, 2})))
        assert evaluate(e) == 2

    def test_sum_body_must_be_numeric(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Sum("x", ast.BoolLit(True), ast.Gen(N(2))))


class TestArrays:
    """Tabulation, subscript, dim, index (1-d and k-d)."""

    def test_tabulate_type(self):
        e = ast.Tabulate(("i",), (N(3),), ast.Arith("*", V("i"), N(2)))
        assert typ(e) == TArray(TNat(), 1)

    def test_tabulate_k_dim_type(self):
        e = ast.Tabulate(("i", "j"), (N(2), N(2)),
                         ast.Arith("+", V("i"), V("j")))
        assert typ(e) == TArray(TNat(), 2)

    def test_tabulate_bound_must_be_nat(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Tabulate(("i",), (ast.BoolLit(True),), V("i")))

    def test_tabulate_semantics_row_major(self):
        e = ast.Tabulate(("i", "j"), (N(2), N(3)),
                         ast.Arith("+", ast.Arith("*", V("i"), N(10)),
                                   V("j")))
        assert evaluate(e) == Array((2, 3), [0, 1, 2, 10, 11, 12])

    def test_subscript_type(self):
        e = ast.Subscript(ast.Const(Array((2,), [1, 2])), (N(0),))
        assert typ(e) == TNat()

    def test_subscript_rank_mismatch(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Subscript(ast.Const(Array((2,), [1, 2])),
                              (N(0), N(0))))

    def test_subscript_out_of_bounds_is_bottom(self):
        e = ast.Subscript(ast.Const(Array((2,), [1, 2])), (N(5),))
        with pytest.raises(BottomError):
            evaluate(e)

    def test_dim_one(self):
        e = ast.Dim(ast.Const(Array((4,), [0, 0, 0, 0])), 1)
        assert typ(e) == TNat()
        assert evaluate(e) == 4

    def test_dim_k_returns_tuple(self):
        e = ast.Dim(ast.Const(Array((2, 3), range(6))), 2)
        assert typ(e) == TProduct((TNat(), TNat()))
        assert evaluate(e) == (2, 3)

    def test_dim_rank_mismatch_rejected(self):
        with pytest.raises(TypeCheckError):
            typ(ast.Dim(ast.Const(Array((2, 3), range(6))), 1))

    def test_index_paper_example(self):
        # index({(1,"a"), (3,"b"), (1,"c")}) = [[{}, {a,c}, {}, {b}]]
        pairs = frozenset({(1, "a"), (3, "b"), (1, "c")})
        e = ast.IndexSet(ast.Const(pairs), 1)
        result = evaluate(e)
        assert result == Array((4,), [
            frozenset(), frozenset({"a", "c"}), frozenset(),
            frozenset({"b"}),
        ])

    def test_index_type(self):
        pairs = frozenset({(0, "x")})
        assert typ(ast.IndexSet(ast.Const(pairs), 1)) == \
            TArray(TSet(TString()), 1)

    def test_index_empty_set(self):
        assert evaluate(ast.IndexSet(ast.EmptySet(), 1)) == Array((0,), [])

    def test_index_two_dimensional(self):
        pairs = frozenset({((0, 1), "a"), ((1, 0), "b")})
        result = evaluate(ast.IndexSet(ast.Const(pairs), 2))
        assert result.dims == (2, 2)
        assert result[0, 1] == frozenset({"a"})
        assert result[0, 0] == frozenset()

    def test_index_requires_pairs(self):
        with pytest.raises(TypeCheckError):
            typ(ast.IndexSet(ast.Const(frozenset({1})), 1))


class TestErrorsAndGet:
    def test_get_singleton(self):
        assert evaluate(ast.Get(ast.Singleton(N(9)))) == 9

    def test_get_type(self):
        assert typ(ast.Get(ast.Singleton(N(9)))) == TNat()

    def test_get_empty_is_bottom(self):
        with pytest.raises(BottomError):
            evaluate(ast.Get(ast.EmptySet()))

    def test_get_multi_is_bottom(self):
        with pytest.raises(BottomError):
            evaluate(ast.Get(ast.Const(frozenset({1, 2}))))

    def test_bottom_construct(self):
        with pytest.raises(BottomError):
            evaluate(ast.Bottom())

    def test_bottom_types_as_anything(self):
        assert typ(ast.If(ast.BoolLit(True), N(1), ast.Bottom())) == TNat()

    def test_errors_propagate_strictly(self):
        e = ast.Singleton(ast.Arith("+", N(1), ast.Bottom()))
        with pytest.raises(BottomError):
            evaluate(e)


class TestMkArray:
    """The efficient [[n1,...,nk; ...]] literal of Section 3."""

    def test_type(self):
        e = ast.MkArray((N(2), N(2)), (N(1), N(2), N(3), N(4)))
        assert typ(e) == TArray(TNat(), 2)

    def test_semantics(self):
        e = ast.MkArray((N(2), N(2)), (N(1), N(2), N(3), N(4)))
        assert evaluate(e) == Array((2, 2), [1, 2, 3, 4])

    def test_count_mismatch_is_bottom(self):
        e = ast.MkArray((N(3),), (N(1), N(2)))
        with pytest.raises(BottomError):
            evaluate(e)

    def test_items_must_agree(self):
        with pytest.raises(TypeCheckError):
            typ(ast.MkArray((N(2),), (N(1), ast.BoolLit(True))))

    def test_computed_dims(self):
        e = ast.MkArray((ast.Arith("+", N(1), N(1)),), (N(7), N(8)))
        assert evaluate(e) == Array((2,), [7, 8])


class TestUnboundVariables:
    def test_unbound_rejected(self):
        with pytest.raises(TypeCheckError):
            infer_type(V("nope"))
