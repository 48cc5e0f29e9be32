"""O1 — the ODMG array-primitive simulation (Section 7 claim)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ast
from repro.core import evaluate
from repro.core.odmg import (
    odmg_concat,
    odmg_create,
    odmg_insert,
    odmg_remove,
    odmg_resize,
    odmg_subscript,
    odmg_update,
)
from repro.errors import BottomError
from repro.objects.array import Array

from conftest import nonempty_nat_arrays

N = ast.NatLit
A = ast.Var("A")


def run(expr, **binds):
    return evaluate(expr, binds)


class TestCreateSubscript:
    def test_create(self):
        assert run(odmg_create([N(4), N(5)])) == Array((2,), [4, 5])

    def test_subscript(self):
        e = odmg_subscript(odmg_create([N(4), N(5)]), N(1))
        assert run(e) == 5

    def test_subscript_out_of_bounds(self):
        with pytest.raises(BottomError):
            run(odmg_subscript(odmg_create([N(4)]), N(3)))


class TestUpdate:
    @given(nonempty_nat_arrays, st.integers(0, 9), st.integers(0, 50))
    def test_update_replaces_one_slot(self, arr, position, value):
        position %= len(arr)
        out = run(odmg_update(A, N(position), N(value)), A=arr)
        expected = list(arr.flat)
        expected[position] = value
        assert out == Array((len(arr),), expected)

    def test_update_is_functional(self):
        arr = Array.from_list([1, 2, 3])
        run(odmg_update(A, N(0), N(99)), A=arr)
        assert arr == Array.from_list([1, 2, 3])  # original untouched

    def test_update_preserves_length(self):
        arr = Array.from_list([1, 2])
        assert len(run(odmg_update(A, N(1), N(9)), A=arr)) == 2


class TestInsertRemove:
    @given(nonempty_nat_arrays, st.integers(0, 9))
    def test_insert_then_remove_roundtrip(self, arr, position):
        position %= len(arr)
        inserted = run(odmg_insert(A, N(position), N(777)), A=arr)
        assert len(inserted) == len(arr) + 1
        assert inserted[position] == 777
        removed = run(odmg_remove(A, N(position)), A=inserted)
        assert removed == arr

    def test_insert_at_end(self):
        arr = Array.from_list([1, 2])
        out = run(odmg_insert(A, N(2), N(3)), A=arr)
        assert out == Array.from_list([1, 2, 3])

    def test_insert_shifts_suffix(self):
        arr = Array.from_list([1, 3])
        out = run(odmg_insert(A, N(1), N(2)), A=arr)
        assert out == Array.from_list([1, 2, 3])

    def test_remove_first(self):
        arr = Array.from_list([1, 2, 3])
        out = run(odmg_remove(A, N(0)), A=arr)
        assert out == Array.from_list([2, 3])


class TestResize:
    def test_truncate(self):
        arr = Array.from_list([1, 2, 3, 4])
        assert run(odmg_resize(A, N(2)), A=arr) == Array.from_list([1, 2])

    def test_extend_raises_on_materialization(self):
        # reading an unset slot of a resized ODMG array is an error —
        # here the hole IS ⊥, and the evaluator tabulates eagerly, so
        # extension past the data already raises
        arr = Array.from_list([1])
        with pytest.raises(BottomError):
            run(odmg_resize(A, N(3)), A=arr)

    def test_resize_to_zero(self):
        arr = Array.from_list([1, 2])
        assert run(odmg_resize(A, N(0)), A=arr).dims == (0,)


class TestConcat:
    @given(nonempty_nat_arrays, nonempty_nat_arrays)
    def test_concat(self, xs, ys):
        out = run(odmg_concat(A, ast.Var("B")), A=xs, B=ys)
        assert out.flat == xs.flat + ys.flat


class TestWithinCalculus:
    """The point of Section 7: these are *derived* NRCA queries."""

    def test_all_operations_are_core_expressions(self):
        arr_expr = odmg_create([N(1)])
        for expr in (
            odmg_update(arr_expr, N(0), N(2)),
            odmg_insert(arr_expr, N(0), N(2)),
            odmg_remove(arr_expr, N(0)),
            odmg_resize(arr_expr, N(1)),
            odmg_concat(arr_expr, arr_expr),
        ):
            assert isinstance(expr, ast.Expr)
            from repro.expressiveness.fragments import in_nrca
            assert in_nrca(expr)

    def test_operations_optimize_soundly(self):
        from repro.optimizer.engine import default_optimizer
        opt = default_optimizer()
        arr = Array.from_list([5, 6, 7])
        e = odmg_update(odmg_insert(A, N(1), N(9)), N(0), N(0))
        assert evaluate(opt.optimize(e), {"A": arr}) == \
            evaluate(e, {"A": arr}) == Array.from_list([0, 9, 6, 7])
