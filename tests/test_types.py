"""Tests for the type language and unification (Figure 1 types)."""

import pytest

from repro.errors import UnificationError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.types.types import (
    NUMERIC,
    TArray,
    TArrow,
    TBag,
    TBase,
    TBool,
    TNat,
    TProduct,
    TReal,
    TSet,
    TString,
    TypeScheme,
    fresh_tvar,
    type_of_value,
)
from repro.types.unify import generalize, instantiate, unify, zonk


class TestTypeDisplay:
    def test_scalars(self):
        assert str(TNat()) == "nat"
        assert str(TBool()) == "bool"
        assert str(TBase("temp")) == "temp"

    def test_compound(self):
        assert str(TSet(TNat())) == "{nat}"
        assert str(TArray(TReal(), 2)) == "[[real]]_2"
        assert str(TBag(TString())) == "{|string|}"

    def test_product_and_arrow(self):
        t = TArrow(TProduct((TNat(), TNat())), TNat())
        assert str(t) == "(nat * nat) -> nat"

    def test_product_arity_check(self):
        with pytest.raises(ValueError):
            TProduct((TNat(),))

    def test_array_rank_check(self):
        with pytest.raises(ValueError):
            TArray(TNat(), 0)


class TestUnify:
    def test_equal_scalars(self):
        unify(TNat(), TNat(), {})

    def test_mismatch(self):
        with pytest.raises(UnificationError):
            unify(TNat(), TBool(), {})

    def test_var_binds(self):
        subst = {}
        v = fresh_tvar()
        unify(v, TSet(TNat()), subst)
        assert zonk(v, subst) == TSet(TNat())

    def test_var_transitive(self):
        subst = {}
        a, b = fresh_tvar(), fresh_tvar()
        unify(a, b, subst)
        unify(b, TNat(), subst)
        assert zonk(a, subst) == TNat()

    def test_occurs_check(self):
        subst = {}
        v = fresh_tvar()
        with pytest.raises(UnificationError):
            unify(v, TSet(v), subst)

    def test_structural(self):
        subst = {}
        a, b = fresh_tvar(), fresh_tvar()
        unify(TProduct((a, TNat())), TProduct((TBool(), b)), subst)
        assert zonk(a, subst) == TBool()
        assert zonk(b, subst) == TNat()

    def test_arity_mismatch(self):
        with pytest.raises(UnificationError):
            unify(TProduct((TNat(), TNat())),
                  TProduct((TNat(), TNat(), TNat())), {})

    def test_array_rank_mismatch(self):
        with pytest.raises(UnificationError):
            unify(TArray(TNat(), 1), TArray(TNat(), 2), {})

    def test_base_type_names(self):
        unify(TBase("x"), TBase("x"), {})
        with pytest.raises(UnificationError):
            unify(TBase("x"), TBase("y"), {})


class TestNumericConstraint:
    def test_accepts_nat_and_real(self):
        unify(fresh_tvar(NUMERIC), TNat(), {})
        unify(fresh_tvar(NUMERIC), TReal(), {})

    def test_rejects_bool(self):
        with pytest.raises(UnificationError):
            unify(fresh_tvar(NUMERIC), TBool(), {})

    def test_rejects_set(self):
        with pytest.raises(UnificationError):
            unify(fresh_tvar(NUMERIC), TSet(TNat()), {})

    def test_propagates_to_plain_var(self):
        subst = {}
        numeric = fresh_tvar(NUMERIC)
        plain = fresh_tvar()
        unify(numeric, plain, subst)
        with pytest.raises(UnificationError):
            unify(plain, TBool(), subst)
        unify(plain, TReal(), subst)


class TestSchemes:
    def test_generalize_quantifies_free_vars(self):
        v = fresh_tvar()
        scheme = generalize(TSet(v), {})
        assert scheme.quantified == (v.ident,)

    def test_monomorphic_vars_not_quantified(self):
        v = fresh_tvar()
        scheme = generalize(TSet(v), {}, monomorphic=[v.ident])
        assert scheme.quantified == ()

    def test_instantiate_freshens(self):
        v = fresh_tvar()
        scheme = generalize(TArrow(v, v), {})
        inst1 = instantiate(scheme)
        inst2 = instantiate(scheme)
        assert inst1 != inst2  # fresh variables each time
        assert inst1.arg == inst1.result  # but consistently renamed

    def test_instantiate_preserves_constraints(self):
        v = fresh_tvar(NUMERIC)
        scheme = generalize(TArrow(v, v), {})
        inst = instantiate(scheme)
        assert inst.arg.constraint == NUMERIC

    def test_mono_scheme(self):
        assert instantiate(TypeScheme.mono(TNat())) == TNat()


class TestTypeOfValue:
    @pytest.mark.parametrize("value,expected", [
        (True, TBool()),
        (3, TNat()),
        (1.5, TReal()),
        ("x", TString()),
        ((1, True), TProduct((TNat(), TBool()))),
        (frozenset({1}), TSet(TNat())),
        (Bag(["a"]), TBag(TString())),
        (Array((2,), [1, 2]), TArray(TNat(), 1)),
        (Array((1, 1), [1.0]), TArray(TReal(), 2)),
    ])
    def test_ground_values(self, value, expected):
        assert type_of_value(value) == expected

    def test_empty_set_gets_type_variable(self):
        t = type_of_value(frozenset())
        assert isinstance(t, TSet)
        assert t.elem.__class__.__name__ == "TVar"

    def test_element_types_unified_across_collection(self):
        # the element type must not depend on iteration order: in
        # {∅, {1}} the empty element's fresh variable unifies with {nat}
        t = type_of_value(frozenset([frozenset(), frozenset({1})]))
        assert t == TSet(TSet(TNat()))

    def test_heterogeneous_depth_set_types_fully(self):
        t = type_of_value(frozenset([frozenset(), frozenset([frozenset()])]))
        assert isinstance(t, TSet)
        assert isinstance(t.elem, TSet)
        assert isinstance(t.elem.elem, TSet)  # {α} ~ {{β}} gives {{β}}

    @pytest.mark.parametrize("items,elem", [
        ([n % 7 for n in range(300 * 300)], TNat()),
        ([n * 0.5 for n in range(300 * 300)], TReal()),
    ])
    def test_homogeneous_list_array_needs_no_unification(
            self, monkeypatch, items, elem):
        import importlib
        unify_module = importlib.import_module("repro.types.unify")

        calls = []
        real = unify_module.unify
        monkeypatch.setattr(unify_module, "unify",
                            lambda *args: calls.append(args) or real(*args))
        value = Array((300, 300), items)
        assert value.block is None  # the list-backed path
        assert type_of_value(value) == TArray(elem, 2)
        assert calls == []

    @pytest.mark.parametrize("value,expected", [
        (frozenset({(1, 2.0), (3, 4.5)}), TSet(TProduct((TNat(), TReal())))),
        (Array((2,), [frozenset(), frozenset({1})]), TArray(TSet(TNat()), 1)),
        (frozenset({True, 2}), None),
    ])
    def test_mixed_items_still_unify(self, value, expected):
        if expected is None:  # bool and nat items do not unify
            with pytest.raises(UnificationError):
                type_of_value(value)
        else:
            assert type_of_value(value) == expected
