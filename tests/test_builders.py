"""Tests for the derived operators of Sections 2–3 (builders).

Each derived operator is compared against a plain-Python reference on
both fixed and hypothesis-generated inputs.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ast, builders as B
from repro.core import evaluate
from repro.errors import BottomError
from repro.objects.array import Array

from conftest import nat_arrays, nat_matrices, nat_sets, nonempty_nat_arrays

A = ast.Var("A")
M = ast.Var("M")


def run(expr, **binds):
    return evaluate(expr, binds)


class TestSetOperators:
    def test_filter(self):
        e = B.filter_set(lambda x: ast.Cmp(">", x, ast.NatLit(2)),
                         ast.Const(frozenset({1, 2, 3, 4})))
        assert run(e) == frozenset({3, 4})

    def test_project(self):
        e = B.project_set(1, 2, ast.Const(frozenset({(1, "a"), (2, "b")})))
        assert run(e) == frozenset({1, 2})

    @given(nat_sets, nat_sets)
    def test_cartesian(self, xs, ys):
        e = B.cartesian(ast.Const(xs), ast.Const(ys))
        assert run(e) == frozenset((x, y) for x in xs for y in ys)

    def test_nest_groups_by_first(self):
        source = frozenset({(1, "a"), (1, "b"), (2, "c")})
        assert run(B.nest(ast.Const(source))) == frozenset({
            (1, frozenset({"a", "b"})), (2, frozenset({"c"})),
        })

    @given(nat_sets, st.integers(0, 50))
    def test_member(self, xs, probe):
        e = B.set_member(ast.NatLit(probe), ast.Const(xs))
        assert run(e) == (probe in xs)


class TestAggregates:
    @given(nat_sets)
    def test_count(self, xs):
        assert run(B.count(ast.Const(xs))) == len(xs)

    @given(nat_sets)
    def test_min_max(self, xs):
        if not xs:
            with pytest.raises(BottomError):
                run(B.min_set(ast.Const(xs)))
        else:
            assert run(B.min_set(ast.Const(xs))) == min(xs)
            assert run(B.max_set(ast.Const(xs))) == max(xs)

    def test_forall(self):
        e = B.forall(lambda x: ast.Cmp("<", x, ast.NatLit(10)),
                     ast.Const(frozenset({1, 2})))
        assert run(e) is True
        e2 = B.forall(lambda x: ast.Cmp("<", x, ast.NatLit(2)),
                      ast.Const(frozenset({1, 2})))
        assert run(e2) is False

    def test_forall_vacuous(self):
        e = B.forall(lambda x: ast.BoolLit(False), ast.EmptySet())
        assert run(e) is True


class TestOneDimensional:
    @given(nat_arrays)
    def test_map(self, arr):
        e = B.map_array(lambda x: ast.Arith("+", x, ast.NatLit(1)), A)
        assert run(e, A=arr) == Array((len(arr),),
                                      [v + 1 for v in arr.flat])

    @given(nat_arrays, nat_arrays)
    def test_zip(self, xs, ys):
        out = run(B.zip2(A, ast.Var("B")), A=xs, B=ys)
        expected = list(zip(xs.flat, ys.flat))
        assert out == Array((len(expected),), expected)

    @given(nat_arrays, nat_arrays, nat_arrays)
    def test_zip3(self, xs, ys, zs):
        out = run(B.zip3(A, ast.Var("B"), ast.Var("C")), A=xs, B=ys, C=zs)
        expected = list(zip(xs.flat, ys.flat, zs.flat))
        assert out == Array((len(expected),), expected)

    @given(nat_arrays)
    def test_reverse(self, arr):
        out = run(B.reverse(A), A=arr)
        assert out == Array((len(arr),), list(reversed(arr.flat)))

    @given(nat_arrays)
    def test_reverse_involutive(self, arr):
        out = run(B.reverse(B.reverse(A)), A=arr)
        assert out == arr

    @given(nat_arrays)
    def test_evenpos(self, arr):
        out = run(B.evenpos(A), A=arr)
        assert out.flat == tuple(arr.flat[::2][: len(arr) // 2])

    def test_subseq_inclusive_bounds(self):
        arr = Array.from_list([10, 11, 12, 13, 14])
        out = run(B.subseq(A, ast.NatLit(1), ast.NatLit(3)), A=arr)
        assert out == Array((3,), [11, 12, 13])

    def test_subseq_monus_clamps_empty(self):
        arr = Array.from_list([10, 11, 12])
        out = run(B.subseq(A, ast.NatLit(2), ast.NatLit(0)), A=arr)
        assert out.dims == (0,)

    def test_subseq_out_of_range_is_bottom(self):
        arr = Array.from_list([10])
        with pytest.raises(BottomError):
            run(B.subseq(A, ast.NatLit(0), ast.NatLit(5)), A=arr)


class TestMatrices:
    @given(nat_matrices())
    def test_transpose(self, m):
        out = run(B.transpose(M), M=m)
        rows, cols = m.dims
        assert out.dims == (cols, rows)
        for i in range(rows):
            for j in range(cols):
                assert out[j, i] == m[i, j]

    @given(nat_matrices(max_dim=3))
    def test_double_transpose_identity(self, m):
        assert run(B.transpose(B.transpose(M)), M=m) == m

    def test_proj_col_and_row(self):
        m = Array((2, 3), [1, 2, 3, 4, 5, 6])
        assert run(B.proj_col(M, ast.NatLit(1)), M=m) == Array((2,), [2, 5])
        assert run(B.proj_row(M, ast.NatLit(1)), M=m) == \
            Array((3,), [4, 5, 6])

    def test_multiply_reference(self):
        m = Array((2, 3), [1, 2, 3, 4, 5, 6])
        n = Array((3, 2), [7, 8, 9, 10, 11, 12])
        out = run(B.multiply(M, ast.Var("N")), M=m, N=n)
        assert out == Array((2, 2), [58, 64, 139, 154])

    def test_multiply_conformance_check(self):
        m = Array((2, 3), range(6))
        with pytest.raises(BottomError):
            run(B.multiply(M, ast.Var("N")), M=m, N=m)

    def test_multiply_identity(self):
        m = Array((2, 2), [1, 2, 3, 4])
        identity = Array((2, 2), [1, 0, 0, 1])
        assert run(B.multiply(M, ast.Var("N")), M=m, N=identity) == m


class TestDomainsRangesGraphs:
    @given(nat_arrays)
    def test_dom(self, arr):
        assert run(B.dom(A), A=arr) == frozenset(range(len(arr)))

    @given(nat_arrays)
    def test_rng(self, arr):
        assert run(B.rng(A), A=arr) == frozenset(arr.flat)

    @given(nat_arrays)
    def test_graph(self, arr):
        assert run(B.graph(A), A=arr) == arr.graph()

    @given(nat_matrices(max_dim=3))
    def test_dom_2d(self, m):
        expected = frozenset(m.indices())
        assert run(B.dom(M, rank=2), M=m) == expected

    @given(nat_matrices(max_dim=3))
    def test_graph_2d(self, m):
        assert run(B.graph(M, rank=2), M=m) == m.graph()


class TestHistograms:
    @given(nonempty_nat_arrays)
    def test_hist_matches_reference(self, arr):
        out = run(B.hist(A), A=arr)
        top = max(arr.flat)
        expected = [0] * (top + 1)
        for v in arr.flat:
            expected[v] += 1
        assert out == Array((top + 1,), expected)

    @given(nonempty_nat_arrays)
    def test_hist_fast_agrees_with_hist(self, arr):
        slow = run(B.hist(A), A=arr)
        fast = run(B.hist_fast(A), A=arr)
        assert slow == fast


class TestArrayMonoid:
    def test_empty(self):
        assert run(B.array_empty()).dims == (0,)

    def test_singleton(self):
        assert run(B.array_singleton(ast.NatLit(5))) == Array((1,), [5])

    @given(nat_arrays, nat_arrays)
    def test_append(self, xs, ys):
        out = run(B.array_append(A, ast.Var("B")), A=xs, B=ys)
        assert out.flat == xs.flat + ys.flat

    def test_literal_via_monoid(self):
        e = B.array_literal([ast.NatLit(v) for v in (4, 5, 6)])
        assert run(e) == Array((3,), [4, 5, 6])

    def test_append_associative(self):
        xs = Array.from_list([1]); ys = Array.from_list([2])
        zs = Array.from_list([3])
        left = run(B.array_append(B.array_append(A, ast.Var("B")),
                                  ast.Var("C")), A=xs, B=ys, C=zs)
        right = run(B.array_append(A, B.array_append(ast.Var("B"),
                                                     ast.Var("C"))),
                    A=xs, B=ys, C=zs)
        assert left == right == Array((3,), [1, 2, 3])


class TestFreshness:
    def test_builders_safe_on_open_expressions(self):
        # map over an array expression that itself mentions `i`
        arr_expr = ast.Subscript(ast.Var("nested"), (ast.Var("i"),))
        e = B.map_array(lambda x: x, arr_expr)
        nested = Array((1,), [Array.from_list([1, 2, 3])])
        out = evaluate(e, {"nested": nested, "i": 0})
        assert out == Array.from_list([1, 2, 3])
