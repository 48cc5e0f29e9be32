"""Tests for the AQL-source standard macro library (Section 3 macros)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BottomError
from repro.objects.array import Array
from repro.system.session import Session

from conftest import nat_arrays, nat_sets, reference_query_value


@pytest.fixture(scope="module")
def s():
    return Session()


def q(session, source, **vals):
    for name, value in vals.items():
        session.env.set_val(name, value)
    return session.query_value(source)


class TestNumericMacros:
    def test_min2_max2(self, s):
        assert q(s, "min2!(3, 7);") == 3
        assert q(s, "max2!(3, 7);") == 7

    def test_count_total(self, s):
        assert q(s, "count!{5, 6, 7};") == 3
        assert q(s, "total!{5, 6, 7};") == 18

    def test_forall_exists(self, s):
        assert q(s, "forall_in!(fn \\x => x < 10, {1, 2});") is True
        assert q(s, "exists_in!(fn \\x => x > 1, {1, 2});") is True
        assert q(s, "exists_in!(fn \\x => x > 5, {1, 2});") is False

    def test_filterset(self, s):
        assert q(s, "filterset!(fn \\x => x % 2 = 0, gen!6);") == \
            frozenset({0, 2, 4})


class TestArrayMacros:
    @given(arr=nat_arrays)
    def test_dom_rng(self, s, arr):
        assert q(s, "dom!Adr;", Adr=arr) == frozenset(range(len(arr)))
        assert q(s, "rng!Adr;", Adr=arr) == frozenset(arr.flat)

    @given(arr=nat_arrays)
    def test_graph(self, s, arr):
        assert q(s, "graph!Ag;", Ag=arr) == arr.graph()

    def test_maparr(self, s):
        assert q(s, "maparr!(fn \\x => x + 1, [[1, 2]]);") == \
            Array((2,), [2, 3])

    def test_zip_truncates_to_shorter(self, s):
        got = q(s, "zip!([[1, 2, 3]], [[True, False]]);".replace(
            "True", "true").replace("False", "false"))
        assert got == Array((2,), [(1, True), (2, False)])

    def test_zip3(self, s):
        got = q(s, "zip_3!([[1]], [[2]], [[3]]);")
        assert got == Array((1,), [(1, 2, 3)])

    def test_subseq(self, s):
        assert q(s, "subseq!([[0, 1, 2, 3, 4]], 1, 3);") == \
            Array((3,), [1, 2, 3])

    @given(arr=nat_arrays)
    def test_reverse(self, s, arr):
        assert q(s, "reverse!Ar;", Ar=arr) == \
            Array((len(arr),), list(reversed(arr.flat)))

    def test_evenpos_oddpos(self, s):
        assert q(s, "evenpos!([[0, 1, 2, 3, 4]]);") == Array((2,), [0, 2])
        assert q(s, "oddpos!([[0, 1, 2, 3, 4]]);") == Array((2,), [1, 3])

    def test_append(self, s):
        assert q(s, "append!([[1, 2]], [[3]]);") == Array((3,), [1, 2, 3])

    def test_enumerate(self, s):
        assert q(s, 'enumerate!([["a", "b"]]);') == \
            Array((2,), [(0, "a"), (1, "b")])


class TestMatrixMacros:
    M = Array((2, 3), [1, 2, 3, 4, 5, 6])

    def test_transpose(self, s):
        assert q(s, "transpose!M;", M=self.M) == \
            Array((3, 2), [1, 4, 2, 5, 3, 6])

    def test_proj(self, s):
        assert q(s, "proj_col!(M, 0);", M=self.M) == Array((2,), [1, 4])
        assert q(s, "proj_row!(M, 0);", M=self.M) == Array((3,), [1, 2, 3])

    def test_matmul(self, s):
        got = q(s, "matmul!(M, transpose!M);", M=self.M)
        assert got == Array((2, 2), [14, 32, 32, 77])

    def test_matmul_conformance(self, s):
        with pytest.raises(BottomError):
            q(s, "matmul!(M, M);", M=self.M)

    def test_row_major_and_reshape_inverse(self, s):
        assert q(s, "reshape_2!(row_major!M, 2, 3);", M=self.M) == self.M

    def test_reshape_mismatch_is_bottom(self, s):
        with pytest.raises(BottomError):
            q(s, "reshape_2!([[1, 2, 3]], 2, 2);")

    def test_rng_2_graph_2(self, s):
        assert q(s, "rng_2!M;", M=self.M) == frozenset(range(1, 7))
        assert q(s, "graph_2!M;", M=self.M) == self.M.graph()


class TestHistogramMacros:
    @given(arr=st.lists(st.integers(0, 6), min_size=1, max_size=10).map(
        Array.from_list))
    def test_hist_hist2_agree(self, s, arr):
        assert q(s, "hist!Ah;", Ah=arr) == q(s, "hist2!Ah;", Ah=arr)

    def test_hist_values(self, s):
        assert q(s, "hist!([[1, 1, 3]]);") == Array((4,), [0, 2, 0, 1])


class TestRelationalMacros:
    def test_nest(self, s):
        got = q(s, "nest!{(1, 10), (1, 20), (2, 30)};")
        assert got == frozenset({
            (1, frozenset({10, 20})), (2, frozenset({30})),
        })

    @given(a=nat_sets, b=nat_sets)
    def test_cross(self, s, a, b):
        got = q(s, "cross!(CA, CB);", CA=a, CB=b)
        assert got == frozenset((x, y) for x in a for y in b)

    def test_projections(self, s):
        r = frozenset({(1, "a"), (2, "b")})
        assert q(s, "pi1set!R;", R=r) == frozenset({1, 2})
        assert q(s, "pi2set!R;", R=r) == frozenset({"a", "b"})


class TestMacroHygiene:
    """An argument may mention the names a macro binds inside its own
    body: substitution renames the body's binders, so the argument keeps
    its meaning, optimised or not."""

    CASES = [
        (r"let val \i = 10 in maparr!(fn \x => x + i, [[1, 2, 3]]) end;",
         Array.from_list([11, 12, 13])),
        (r"let val \i = 1 in reverse!([[i, i + 1, i + 2]]) end;",
         Array.from_list([3, 2, 1])),
        (r"let val \k = 2 in subseq!([[k, k * 10, k * 100]], 1, k) end;",
         Array.from_list([20, 200])),
        (r"""let val \i = 1 val \j = 2 val \m = 3 val \n = 4
             in transpose!([[2, 2; i, j, m, n]]) end;""",
         Array((2, 2), [1, 3, 2, 4])),
        (r"""let val \i = 1 val \j = 2 val \m = 3 val \n = 4
             in matmul!([[2, 2; i, j, m, n]], [[2, 2; 1, 0, 0, 1]]) end;""",
         Array((2, 2), [1, 2, 3, 4])),
    ]

    @pytest.mark.parametrize("optimize", [True, False],
                             ids=["optimized", "unoptimized"])
    @pytest.mark.parametrize("source,want", CASES,
                             ids=["maparr", "reverse", "subseq", "transpose",
                                  "matmul"])
    def test_argument_names_are_not_captured(self, source, want, optimize):
        session = Session(optimize=optimize)
        assert session.query_value(source) == want
        assert reference_query_value(session.env, source, optimize) == want
