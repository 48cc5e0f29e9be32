"""Tests for the core AST machinery: free vars, substitution, α-equivalence."""

from repro.core import ast
from repro.core.ast import (
    App,
    Arith,
    Cmp,
    Ext,
    Gen,
    If,
    Lam,
    NatLit,
    Singleton,
    Subscript,
    Sum,
    Tabulate,
    TupleE,
    Var,
    alpha_equal,
    free_vars,
    fresh_var,
    node_count,
    substitute,
    subterms,
    transform_bottom_up,
)


class TestFreeVars:
    def test_var(self):
        assert free_vars(Var("x")) == frozenset({"x"})

    def test_lam_binds(self):
        assert free_vars(Lam("x", Var("x"))) == frozenset()
        assert free_vars(Lam("x", Var("y"))) == frozenset({"y"})

    def test_ext_binds_body_not_source(self):
        e = Ext("x", Var("x"), Var("x"))
        assert free_vars(e) == frozenset({"x"})  # the source occurrence

    def test_tabulate_binds_body_not_bounds(self):
        e = Tabulate(("i",), (Var("i"),), Var("i"))
        assert free_vars(e) == frozenset({"i"})  # the bound occurrence

    def test_multi_binders(self):
        e = Tabulate(("i", "j"), (Var("n"), Var("m")),
                     TupleE((Var("i"), Var("j"))))
        assert free_vars(e) == frozenset({"n", "m"})


class TestSubstitute:
    def test_simple(self):
        assert substitute(Var("x"), {"x": NatLit(1)}) == NatLit(1)

    def test_shadowed_not_replaced(self):
        e = Lam("x", Var("x"))
        assert substitute(e, {"x": NatLit(1)}) == e

    def test_simultaneous(self):
        e = TupleE((Var("x"), Var("y")))
        out = substitute(e, {"x": Var("y"), "y": Var("x")})
        assert out == TupleE((Var("y"), Var("x")))

    def test_capture_avoidance_lam(self):
        # (λy. x)  with  x := y  must NOT become λy. y
        e = Lam("y", Var("x"))
        out = substitute(e, {"x": Var("y")})
        assert isinstance(out, Lam)
        assert out.param != "y"
        assert out.body == Var("y")

    def test_capture_avoidance_ext(self):
        e = Ext("y", TupleE((Var("x"), Var("y"))), Var("s"))
        out = substitute(e, {"x": Var("y")})
        assert isinstance(out, Ext)
        assert out.var != "y"
        # body is (y, fresh)
        assert out.body.items[0] == Var("y")
        assert out.body.items[1] == Var(out.var)

    def test_capture_avoidance_tabulate(self):
        e = Tabulate(("i",), (Var("n"),), Arith("+", Var("i"), Var("x")))
        out = substitute(e, {"x": Var("i")})
        assert out.vars[0] != "i"
        assert Var("i") in out.body.children()

    def test_substitution_into_bounds(self):
        e = Tabulate(("i",), (Var("n"),), Var("i"))
        out = substitute(e, {"n": NatLit(5)})
        assert out.bounds == (NatLit(5),)

    def test_a_binder_hides_a_name_only_where_it_scopes(self):
        """A tabulation's index scopes over its body, not its bounds: a
        bound naming the index reads the enclosing variable, and the
        binder is not renamed for a part that receives nothing."""
        e = Tabulate(("i",), (Arith("-", NatLit(10), Var("i")),),
                     Var("i"))
        out = substitute(e, {"i": NatLit(0)})
        assert out == Tabulate(("i",), (Arith("-", NatLit(10), NatLit(0)),),
                               Var("i"))

    def test_empty_mapping_is_identity(self):
        e = Lam("x", Var("x"))
        assert substitute(e, {}) is e


class TestAlphaEquivalence:
    def test_renamed_lambdas(self):
        assert alpha_equal(Lam("x", Var("x")), Lam("y", Var("y")))

    def test_free_vars_must_match(self):
        assert not alpha_equal(Var("x"), Var("y"))
        assert alpha_equal(Var("x"), Var("x"))

    def test_binding_structure_matters(self):
        assert not alpha_equal(Lam("x", Var("x")), Lam("x", Var("y")))

    def test_tabulate_multi_binder(self):
        a = Tabulate(("i", "j"), (Var("n"), Var("m")),
                     TupleE((Var("i"), Var("j"))))
        b = Tabulate(("p", "q"), (Var("n"), Var("m")),
                     TupleE((Var("p"), Var("q"))))
        assert alpha_equal(a, b)

    def test_tabulate_swapped_use_not_equal(self):
        a = Tabulate(("i", "j"), (Var("n"), Var("n")),
                     TupleE((Var("i"), Var("j"))))
        b = Tabulate(("i", "j"), (Var("n"), Var("n")),
                     TupleE((Var("j"), Var("i"))))
        assert not alpha_equal(a, b)

    def test_non_binder_fields_matter(self):
        assert not alpha_equal(Cmp("<", Var("x"), Var("y")),
                               Cmp("<=", Var("x"), Var("y")))
        assert not alpha_equal(NatLit(1), NatLit(2))

    def test_different_constructors(self):
        assert not alpha_equal(NatLit(1), Var("x"))

    def test_nested_shadowing(self):
        a = Lam("x", Lam("x", Var("x")))
        b = Lam("y", Lam("z", Var("z")))
        c = Lam("y", Lam("z", Var("y")))
        assert alpha_equal(a, b)
        assert not alpha_equal(a, c)

    def test_ext_rank_two_binders(self):
        a = ast.ExtRank("x", "i", Singleton(TupleE((Var("x"), Var("i")))),
                        Var("s"))
        b = ast.ExtRank("v", "r", Singleton(TupleE((Var("v"), Var("r")))),
                        Var("s"))
        assert alpha_equal(a, b)


class TestTraversal:
    def test_subterms_preorder(self):
        e = App(Lam("x", Var("x")), NatLit(1))
        kinds = [type(t).__name__ for t in subterms(e)]
        assert kinds == ["App", "Lam", "Var", "NatLit"]

    def test_node_count(self):
        assert node_count(App(Lam("x", Var("x")), NatLit(1))) == 4

    def test_transform_bottom_up(self):
        e = Arith("+", NatLit(1), Arith("+", NatLit(2), NatLit(3)))

        def fold(node):
            if isinstance(node, Arith) and isinstance(node.left, NatLit) \
                    and isinstance(node.right, NatLit):
                return NatLit(node.left.value + node.right.value)
            return node

        assert transform_bottom_up(e, fold) == NatLit(6)

    def test_with_parts_identity_shape(self):
        e = Sum("x", Var("x"), Gen(NatLit(3)))
        rebuilt = e.with_parts([child for child, _ in e.parts()])
        assert rebuilt == e

    def test_fresh_var_unique_and_marked(self):
        a, b = fresh_var("x"), fresh_var("x")
        assert a != b
        assert "%" in a  # cannot collide with user-written names

    def test_fresh_var_keeps_hint(self):
        assert fresh_var("idx").startswith("idx%")


class TestNodeInvariants:
    def test_tuple_arity(self):
        import pytest
        with pytest.raises(ValueError):
            TupleE((Var("x"),))

    def test_tabulate_distinct_vars(self):
        import pytest
        with pytest.raises(ValueError):
            Tabulate(("i", "i"), (NatLit(1), NatLit(1)), Var("i"))

    def test_subscript_needs_indices(self):
        import pytest
        with pytest.raises(ValueError):
            Subscript(Var("a"), ())

    def test_cmp_op_validated(self):
        import pytest
        with pytest.raises(ValueError):
            Cmp("==", Var("x"), Var("y"))

    def test_bad_projection(self):
        import pytest
        with pytest.raises(ValueError):
            ast.Proj(3, 2, Var("x"))
