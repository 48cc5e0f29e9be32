"""Tests for the extended standard library (sequence toolkit, linear
algebra) and the ``sort`` primitive."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BottomError
from repro.objects.array import Array
from repro.system.session import Session

from conftest import nat_arrays, nat_sets, nonempty_nat_arrays


@pytest.fixture(scope="module")
def s():
    return Session()


def q(session, source, **vals):
    for name, value in vals.items():
        session.env.set_val(name, value)
    return session.query_value(source)


class TestSortPrimitive:
    @given(xs=nat_sets)
    def test_sort_matches_python(self, s, xs):
        assert q(s, "sort!Ss;", Ss=xs) == Array.from_list(sorted(xs))

    def test_sort_strings_canonically(self, s):
        got = q(s, 'sort!{"pear", "apple", "fig"};')
        assert got == Array.from_list(["apple", "fig", "pear"])

    def test_sort_agrees_with_derived_ranking(self, s):
        from repro.core import ast
        from repro.core import evaluate
        from repro.expressiveness.rank import set_to_array_by_rank

        values = frozenset({9, 1, 5, 3})
        native = q(s, "sort!Sx;", Sx=values)
        derived = evaluate(set_to_array_by_rank(ast.Const(values)))
        assert native == derived

    def test_sorted_rng(self, s):
        assert q(s, "sorted_rng!([[3, 1, 3, 2]]);") == \
            Array.from_list([1, 2, 3])


class TestSequenceToolkit:
    @given(arr=nat_arrays, n=st.integers(0, 12))
    def test_take_drop_partition(self, s, arr, n):
        taken = q(s, "take!(At, n);", At=arr, n=n)
        dropped = q(s, "drop!(At, n);", At=arr, n=n)
        assert list(taken.flat) + list(dropped.flat) == list(arr.flat)

    def test_contains(self, s):
        assert q(s, "contains!([[1, 2, 3]], 2);") is True
        assert q(s, "contains!([[1, 2, 3]], 9);") is False

    def test_positions(self, s):
        assert q(s, "positions!([[5, 7, 5]], 5);") == frozenset({0, 2})

    @given(arr=nonempty_nat_arrays)
    def test_argmin_argmax(self, s, arr):
        values = list(arr.flat)
        assert q(s, "argmin!Aa;", Aa=arr) == values.index(min(values))
        assert q(s, "argmax!Aa;", Aa=arr) == values.index(max(values))

    @given(arr=nat_arrays)
    def test_prefix_sums(self, s, arr):
        got = q(s, "prefix_sums!Ap;", Ap=arr)
        running, expected = 0, []
        for value in arr.flat:
            running += value
            expected.append(running)
        assert got == Array((len(arr),), expected)

    def test_windows(self, s):
        got = q(s, "windows!([[1, 2, 3, 4]], 2);")
        assert got == Array.from_list([
            Array.from_list([1, 2]),
            Array.from_list([2, 3]),
            Array.from_list([3, 4]),
        ])

    def test_windows_wider_than_array(self, s):
        assert q(s, "windows!([[1]], 3);").dims == (0,)

    def test_flatten_rect(self, s):
        got = q(s, "flatten_rect!([[ [[1, 2]], [[3, 4]], [[5, 6]] ]]);")
        assert got == Array.from_list([1, 2, 3, 4, 5, 6])

    def test_flatten_rect_empty(self, s):
        assert q(s, "flatten_rect!([[]]);").dims == (0,)


class TestLinearAlgebra:
    M = Array((2, 2), [1, 2, 3, 4])

    def test_dot(self, s):
        assert q(s, "dot!([[1, 2, 3]], [[4, 5, 6]]);") == 32

    def test_dot_length_mismatch(self, s):
        with pytest.raises(BottomError):
            q(s, "dot!([[1]], [[1, 2]]);")

    def test_outer(self, s):
        got = q(s, "outer!([[1, 2]], [[10, 20, 30]]);")
        assert got == Array((2, 3), [10, 20, 30, 20, 40, 60])

    def test_diag_trace(self, s):
        assert q(s, "diag!M;", M=self.M) == Array.from_list([1, 4])
        assert q(s, "trace!M;", M=self.M) == 5

    def test_diag_rectangular(self, s):
        wide = Array((2, 3), range(6))
        assert q(s, "diag!W;", W=wide) == Array.from_list([0, 4])

    def test_identity(self, s):
        assert q(s, "identity_mat!2;") == Array((2, 2), [1, 0, 0, 1])

    def test_matmul_identity_law(self, s):
        got = q(s, "matmul!(M, identity_mat!2);", M=self.M)
        assert got == self.M

    def test_matvec(self, s):
        assert q(s, "matvec!(M, [[1, 1]]);", M=self.M) == \
            Array.from_list([3, 7])

    def test_matvec_conformance(self, s):
        with pytest.raises(BottomError):
            q(s, "matvec!(M, [[1, 1, 1]]);", M=self.M)

    def test_matadd_and_scale(self, s):
        doubled = q(s, "matadd!(M, M);", M=self.M)
        scaled = q(s, "scale!(2, M);", M=self.M)
        assert doubled == scaled == Array((2, 2), [2, 4, 6, 8])

    def test_matadd_shape_mismatch(self, s):
        with pytest.raises(BottomError):
            q(s, "matadd!(M, [[1, 2; 1, 2]]);", M=self.M)

    def test_is_symmetric(self, s):
        sym = Array((2, 2), [1, 7, 7, 2])
        assert q(s, "is_symmetric!S2;", S2=sym) is True
        assert q(s, "is_symmetric!M;", M=self.M) is False
        assert q(s, "is_symmetric!R;", R=Array((2, 3), range(6))) is False

    def test_gram_matrix_is_symmetric(self, s):
        got = q(s, "is_symmetric!(matmul!(M, transpose!M));", M=self.M)
        assert got is True

    @given(n=st.integers(1, 4))
    def test_trace_of_identity(self, s, n):
        assert q(s, "trace!(identity_mat!n);", n=n) == n
