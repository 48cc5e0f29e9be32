"""Tests for value classification, structural equality and the
exchange text of values."""

import pytest
from hypothesis import given

from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.exchange import dumps
from repro.objects.values import is_value, value_equal, value_kind

from conftest import values


class TestValueKind:
    @pytest.mark.parametrize("value,kind", [
        (True, "bool"),
        (0, "nat"),
        (1.5, "real"),
        ("x", "string"),
        ((1, 2), "tuple"),
        (frozenset(), "set"),
        (Bag(), "bag"),
        (Array((1,), [0]), "array"),
    ])
    def test_kinds(self, value, kind):
        assert value_kind(value) == kind

    def test_bool_is_not_nat(self):
        # Python bools are ints; the calculus distinguishes B from N
        assert value_kind(True) == "bool"

    def test_non_value_rejected(self):
        with pytest.raises(TypeError):
            value_kind([1, 2])
        with pytest.raises(TypeError):
            value_kind(None)


class TestIsValue:
    def test_negative_int_not_a_natural(self):
        assert not is_value(-1)

    def test_nested_ok(self):
        assert is_value(frozenset({(1, Array((1,), [frozenset()]))}))

    def test_nested_bad_leaf(self):
        assert not is_value((1, [2]))

    @given(values)
    def test_generated_values_are_values(self, v):
        assert is_value(v)


class TestValueEqual:
    def test_kind_distinction(self):
        assert not value_equal(True, 1)   # B vs N
        assert not value_equal(1, 1.0)    # N vs real

    def test_tuples(self):
        assert value_equal((1, "a"), (1, "a"))
        assert not value_equal((1, "a"), (1, "b"))

    def test_sets_deep(self):
        assert value_equal(frozenset({(1, 2)}), frozenset({(1, 2)}))

    def test_arrays(self):
        assert value_equal(Array((2,), [1, 2]), Array((2,), [1, 2]))
        assert not value_equal(Array((2,), [1, 2]), Array((1, 2), [1, 2]))

    @given(values)
    def test_reflexive(self, v):
        assert value_equal(v, v)


class TestValueRepr:
    """A value's text is its exchange form, :func:`dumps`."""

    def test_scalars(self):
        assert dumps(True) == "true"
        assert dumps(3) == "3"
        assert dumps("hi") == '"hi"'

    def test_set_canonical_order(self):
        assert dumps(frozenset({3, 1, 2})) == "{1, 2, 3}"

    def test_array_shows_dims(self):
        assert dumps(Array((2, 1), [5, 6])) == "[[2, 1; 5, 6]]"

    def test_bag_with_multiplicity(self):
        assert dumps(Bag([1, 1])) == "{|1, 1|}"

    @given(values)
    def test_repr_total(self, v):
        assert isinstance(dumps(v), str)
