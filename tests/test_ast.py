"""Tests for the core AST machinery: free vars, substitution, α-equivalence."""

import dataclasses

import pytest

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

    def test_array_literal_dims_and_items_stay_apart(self):
        two_by_one = ast.MkArray((NatLit(2), NatLit(1)), (NatLit(5),))
        two = ast.MkArray((NatLit(2),), (NatLit(1), NatLit(5)))
        assert not alpha_equal(two_by_one, two)
        assert alpha_equal(two, ast.MkArray((NatLit(2),),
                                            (NatLit(1), NatLit(5))))

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


#: one node of every class, its children distinct and its binders bound
SAMPLES = [
    Var("x"), Lam("x", Var("x")), App(Var("f"), NatLit(1)),
    TupleE((NatLit(1), Var("y"), NatLit(2))), ast.Proj(2, 2, Var("p")),
    ast.EmptySet(), Singleton(Var("x")), ast.Union(Var("a"), Var("b")),
    Ext("x", Singleton(Var("x")), Var("S")), ast.BoolLit(True),
    If(ast.BoolLit(False), NatLit(1), NatLit(2)),
    Cmp("<", Var("a"), NatLit(1)), NatLit(3), ast.RealLit(1.5),
    ast.StrLit("s"), Arith("-", Var("a"), NatLit(1)), Gen(NatLit(3)),
    Sum("x", Var("x"), Gen(NatLit(3))),
    Tabulate(("i", "j"), (NatLit(2), Var("i")), Arith("+", Var("i"),
                                                       Var("j"))),
    Subscript(Var("A"), (NatLit(0), Var("k"))), ast.Dim(Var("A"), 2),
    ast.IndexSet(Var("S"), 1), ast.Get(Var("S")), ast.Bottom("why"),
    ast.MkArray((NatLit(2),), (NatLit(1), Var("v"))),
    ast.MkArray((NatLit(0),), ()), ast.Prim("plus"),
    ast.Const(frozenset({1})), ast.EmptyBag(), ast.SingletonBag(Var("x")),
    ast.BagUnion(Var("a"), Var("b")),
    ast.BagExt("x", ast.SingletonBag(Var("x")), Var("B")),
    ast.ExtRank("x", "r", Singleton(Var("r")), Var("S")),
    ast.BagExtRank("x", "r", ast.SingletonBag(Var("x")), Var("B")),
]


def _layout(node):
    """The declared child field of each part, in order, read off the
    dataclass fields: a tuple child gives one entry per element."""
    return [name.lstrip("*") for name in type(node).CHILDREN
            for _ in (getattr(node, name.lstrip("*"))
                      if name.startswith("*") else (None,))]


def _bound(node):
    """The binder fields' values, flattened in field order."""
    names = []
    for field in node.BINDER_FIELDS:
        value = getattr(node, field)
        names += value if isinstance(value, tuple) else [value]
    return tuple(names)


def test_every_class_has_a_sample():
    assert {type(node) for node in SAMPLES} == set(
        ast.Expr.__subclasses__())
    assert len(ast.Expr.__subclasses__()) == 33


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
class TestDeclaredShape:
    """Each class's ``parts``/``with_parts``, generated from its
    ``CHILDREN`` and ``BINDER_FIELDS``."""

    def test_with_parts_of_its_own_children_is_equal(self, node):
        rebuilt = node.with_parts([child for child, _ in node.parts()])
        assert rebuilt == node and type(rebuilt) is type(node)
        if not node.CHILDREN:
            assert rebuilt is node

    def test_parts_follow_the_fields(self, node):
        flat = [child for name in type(node).CHILDREN for child in (
            getattr(node, name[1:]) if name.startswith("*")
            else (getattr(node, name),))]
        assert [child for child, _ in node.parts()] == flat
        for name, (_, bound) in zip(_layout(node), node.parts()):
            assert bound == (_bound(node) if name == "body" else ())

    def test_with_parts_places_each_child_in_its_field(self, node):
        layout = _layout(node)
        fresh = [Var(f"c{k}") for k in range(len(layout))]
        values = {}
        for name, child in zip(layout, fresh):
            if "*" + name in type(node).CHILDREN:
                values[name] = values.get(name, ()) + (child,)
            else:
                values[name] = child
        for name in type(node).CHILDREN:  # an empty tuple child
            values.setdefault(name.lstrip("*"), ())
        assert node.with_parts(fresh) == dataclasses.replace(node, **values)

    def test_a_wrong_child_count_raises(self, node):
        children = [child for child, _ in node.parts()]
        if not node.CHILDREN:
            with pytest.raises(AssertionError):
                node.with_parts([NatLit(0)])
        elif not any(name.startswith("*") for name in node.CHILDREN):
            for wrong in (children[:-1], children + [NatLit(0)]):
                with pytest.raises(ValueError):
                    node.with_parts(wrong)


#: per tuple-child class, a child list that changes a tuple field's
#: length past what the constructor accepts, and the fields it means
SHRUNK = [
    (TupleE((NatLit(1), NatLit(2))), [NatLit(1)],
     {"items": (NatLit(1),)}),
    (Tabulate(("i", "j"), (NatLit(2), NatLit(3)), Var("i")),
     [NatLit(2), Var("i")], {"bounds": (NatLit(2),), "body": Var("i")}),
    (Subscript(Var("A"), (NatLit(0),)), [Var("A")],
     {"array": Var("A"), "indices": ()}),
    (ast.MkArray((NatLit(1),), (NatLit(7),)), [],
     {"dims": (), "items": ()}),
]


@pytest.mark.parametrize("node, children, fields", SHRUNK,
                         ids=lambda v: type(v).__name__
                         if isinstance(v, ast.Expr) else "")
def test_with_parts_keeps_the_constructor_check(node, children, fields):
    with pytest.raises(ValueError) as direct:
        dataclasses.replace(node, **fields)
    with pytest.raises(ValueError) as rebuilt:
        node.with_parts(children)
    assert str(rebuilt.value) == str(direct.value)
