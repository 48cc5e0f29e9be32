"""The derived operators of Sections 2–3, as users run them.

Each derived operator is the stdlib macro (``repro.env.stdlib``) applied
in AQL text, compared against a plain-Python reference on both fixed and
hypothesis-generated inputs, together with the algebraic laws the paper
states for it (involutions, the array monoid, matrix identities).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BottomError
from repro.objects.array import Array
from repro.system.session import Session

from conftest import nat_arrays, nat_matrices, nat_sets, nonempty_nat_arrays


@pytest.fixture(scope="module")
def s():
    return Session()


def run(session, source, **vals):
    """The value of the AQL expression ``source`` with ``vals`` bound."""
    for name, value in vals.items():
        session.env.set_val(name, value)
    return session.query_value(source)


class TestSetOperators:
    def test_filter(self, s):
        assert run(s, "filterset!(fn \\x => x > 2, {1, 2, 3, 4});") == \
            frozenset({3, 4})

    def test_project(self, s):
        assert run(s, 'pi1set!{(1, "a"), (2, "b")};') == frozenset({1, 2})

    @given(xs=nat_sets, ys=nat_sets)
    def test_cartesian(self, s, xs, ys):
        assert run(s, "cross!(S, T);", S=xs, T=ys) == \
            frozenset((x, y) for x in xs for y in ys)

    def test_nest_groups_by_first(self, s):
        source = frozenset({(1, "a"), (1, "b"), (2, "c")})
        assert run(s, "nest!R;", R=source) == frozenset({
            (1, frozenset({"a", "b"})), (2, frozenset({"c"})),
        })

    @given(xs=nat_sets, probe=st.integers(0, 50))
    def test_member(self, s, xs, probe):
        assert run(s, f"{probe} in S;", S=xs) == (probe in xs)


class TestAggregates:
    @given(xs=nat_sets)
    def test_count(self, s, xs):
        assert run(s, "count!S;", S=xs) == len(xs)

    @given(xs=nat_sets)
    def test_min_max(self, s, xs):
        if not xs:
            with pytest.raises(BottomError):
                run(s, "min!S;", S=xs)
        else:
            assert run(s, "min!S;", S=xs) == min(xs)
            assert run(s, "max!S;", S=xs) == max(xs)

    def test_forall(self, s):
        assert run(s, "forall_in!(fn \\x => x < 10, {1, 2});") is True
        assert run(s, "forall_in!(fn \\x => x < 2, {1, 2});") is False

    def test_forall_vacuous(self, s):
        assert run(s, "forall_in!(fn \\x => false, gen!0);") is True


class TestOneDimensional:
    @given(arr=nat_arrays)
    def test_map(self, s, arr):
        assert run(s, "maparr!(fn \\x => x + 1, A);", A=arr) == \
            Array((len(arr),), [v + 1 for v in arr.flat])

    @given(xs=nat_arrays, ys=nat_arrays)
    def test_zip(self, s, xs, ys):
        expected = list(zip(xs.flat, ys.flat))
        assert run(s, "zip!(A, B);", A=xs, B=ys) == \
            Array((len(expected),), expected)

    @given(xs=nat_arrays, ys=nat_arrays, zs=nat_arrays)
    def test_zip3(self, s, xs, ys, zs):
        expected = list(zip(xs.flat, ys.flat, zs.flat))
        assert run(s, "zip_3!(A, B, C);", A=xs, B=ys, C=zs) == \
            Array((len(expected),), expected)

    @given(arr=nat_arrays)
    def test_reverse(self, s, arr):
        assert run(s, "reverse!A;", A=arr) == \
            Array((len(arr),), list(reversed(arr.flat)))

    @given(arr=nat_arrays)
    def test_reverse_involutive(self, s, arr):
        assert run(s, "reverse!(reverse!A);", A=arr) == arr

    @given(arr=nat_arrays)
    def test_evenpos(self, s, arr):
        assert run(s, "evenpos!A;", A=arr).flat == \
            tuple(arr.flat[::2][: len(arr) // 2])

    def test_subseq_inclusive_bounds(self, s):
        arr = Array.from_list([10, 11, 12, 13, 14])
        assert run(s, "subseq!(A, 1, 3);", A=arr) == Array((3,), [11, 12, 13])

    def test_subseq_monus_clamps_empty(self, s):
        arr = Array.from_list([10, 11, 12])
        assert run(s, "subseq!(A, 2, 0);", A=arr).dims == (0,)

    def test_subseq_out_of_range_is_bottom(self, s):
        arr = Array.from_list([10])
        with pytest.raises(BottomError):
            run(s, "subseq!(A, 0, 5);", A=arr)


class TestMatrices:
    @given(m=nat_matrices())
    def test_transpose(self, s, m):
        out = run(s, "transpose!M;", M=m)
        rows, cols = m.dims
        assert out.dims == (cols, rows)
        for i in range(rows):
            for j in range(cols):
                assert out[j, i] == m[i, j]

    @given(m=nat_matrices(max_dim=3))
    def test_double_transpose_identity(self, s, m):
        assert run(s, "transpose!(transpose!M);", M=m) == m

    def test_proj_col_and_row(self, s):
        m = Array((2, 3), [1, 2, 3, 4, 5, 6])
        assert run(s, "proj_col!(M, 1);", M=m) == Array((2,), [2, 5])
        assert run(s, "proj_row!(M, 1);", M=m) == Array((3,), [4, 5, 6])

    def test_multiply_reference(self, s):
        m = Array((2, 3), [1, 2, 3, 4, 5, 6])
        n = Array((3, 2), [7, 8, 9, 10, 11, 12])
        assert run(s, "matmul!(M, N);", M=m, N=n) == \
            Array((2, 2), [58, 64, 139, 154])

    def test_multiply_conformance_check(self, s):
        m = Array((2, 3), range(6))
        with pytest.raises(BottomError):
            run(s, "matmul!(M, N);", M=m, N=m)

    def test_multiply_identity(self, s):
        m = Array((2, 2), [1, 2, 3, 4])
        assert run(s, "matmul!(M, identity_mat!2);", M=m) == m


class TestDomainsRangesGraphs:
    @given(arr=nat_arrays)
    def test_dom(self, s, arr):
        assert run(s, "dom!A;", A=arr) == frozenset(range(len(arr)))

    @given(arr=nat_arrays)
    def test_rng(self, s, arr):
        assert run(s, "rng!A;", A=arr) == frozenset(arr.flat)

    @given(arr=nat_arrays)
    def test_graph(self, s, arr):
        assert run(s, "graph!A;", A=arr) == arr.graph()

    @given(m=nat_matrices(max_dim=3))
    def test_dom_2d(self, s, m):
        # the 2-d domain: the keys of graph_2
        assert run(s, "pi1set!(graph_2!M);", M=m) == frozenset(m.indices())

    @given(m=nat_matrices(max_dim=3))
    def test_graph_2d(self, s, m):
        assert run(s, "graph_2!M;", M=m) == m.graph()


class TestHistograms:
    @given(arr=nonempty_nat_arrays)
    def test_hist_matches_reference(self, s, arr):
        out = run(s, "hist!A;", A=arr)
        top = max(arr.flat)
        expected = [0] * (top + 1)
        for v in arr.flat:
            expected[v] += 1
        assert out == Array((top + 1,), expected)

    @given(arr=nonempty_nat_arrays)
    def test_hist_fast_agrees_with_hist(self, s, arr):
        assert run(s, "hist!A;", A=arr) == run(s, "hist2!A;", A=arr)


class TestArrayMonoid:
    def test_empty(self, s):
        assert run(s, "[[]];").dims == (0,)

    def test_singleton(self, s):
        assert run(s, "[[5]];") == Array((1,), [5])

    @given(xs=nat_arrays, ys=nat_arrays)
    def test_append(self, s, xs, ys):
        assert run(s, "append!(A, B);", A=xs, B=ys).flat == xs.flat + ys.flat

    def test_literal_via_monoid(self, s):
        assert run(s, "append!(append!(append!([[]], [[4]]), [[5]]), [[6]]);") \
            == Array((3,), [4, 5, 6])

    def test_append_associative(self, s):
        binds = dict(A=Array.from_list([1]), B=Array.from_list([2]),
                     C=Array.from_list([3]))
        left = run(s, "append!(append!(A, B), C);", **binds)
        right = run(s, "append!(A, append!(B, C));", **binds)
        assert left == right == Array((3,), [1, 2, 3])
