"""O1 — the ODMG array-primitive simulation (Section 7 claim).

ODMG-93 one-dimensional arrays support *create*, *insert*, *update*
(in-place element assignment), *subscript*, *resize* and concatenation.
NRCA arrays are pure functions, so the mutating operations become
functional transformations, each a tabulation: the stdlib macros
``update``, ``insert``, ``remove`` and ``resize`` (``repro.env.stdlib``).
Create is the array literal, subscript is ``A[i]`` and concatenation is
``append``.  Each is run here in AQL text through a ``Session``, against
the same Python reference and laws as the builders they replace.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ast
from repro.errors import BottomError
from repro.expressiveness.fragments import in_nrca
from repro.objects.array import Array
from repro.system.session import Session

from conftest import aql_core, nonempty_nat_arrays


@pytest.fixture(scope="module")
def s():
    return Session()


def run(session, source, **vals):
    """The value of the AQL expression ``source`` with ``vals`` bound."""
    for name, value in vals.items():
        session.env.set_val(name, value)
    return session.query_value(source)


class TestCreateSubscript:
    def test_create(self, s):
        assert run(s, "[[4, 5]];") == Array((2,), [4, 5])

    def test_subscript(self, s):
        assert run(s, "[[4, 5]][1];") == 5

    def test_subscript_out_of_bounds(self, s):
        with pytest.raises(BottomError):
            run(s, "[[4]][3];")


class TestUpdate:
    @given(nonempty_nat_arrays, st.integers(0, 9), st.integers(0, 50))
    def test_update_replaces_one_slot(self, s, arr, position, value):
        position %= len(arr)
        out = run(s, f"update!(A, {position}, {value});", A=arr)
        expected = list(arr.flat)
        expected[position] = value
        assert out == Array((len(arr),), expected)

    def test_update_is_functional(self, s):
        arr = Array.from_list([1, 2, 3])
        run(s, "update!(A, 0, 99);", A=arr)
        assert arr == Array.from_list([1, 2, 3])  # original untouched
        assert run(s, "A;") == Array.from_list([1, 2, 3])

    def test_update_preserves_length(self, s):
        arr = Array.from_list([1, 2])
        assert len(run(s, "update!(A, 1, 9);", A=arr)) == 2


class TestInsertRemove:
    @given(nonempty_nat_arrays, st.integers(0, 9))
    def test_insert_then_remove_roundtrip(self, s, arr, position):
        position %= len(arr)
        inserted = run(s, f"insert!(A, {position}, 777);", A=arr)
        assert len(inserted) == len(arr) + 1
        assert inserted[position] == 777
        removed = run(s, f"remove!(B, {position});", B=inserted)
        assert removed == arr

    def test_insert_at_end(self, s):
        arr = Array.from_list([1, 2])
        out = run(s, "insert!(A, 2, 3);", A=arr)
        assert out == Array.from_list([1, 2, 3])

    def test_insert_shifts_suffix(self, s):
        arr = Array.from_list([1, 3])
        out = run(s, "insert!(A, 1, 2);", A=arr)
        assert out == Array.from_list([1, 2, 3])

    def test_remove_first(self, s):
        arr = Array.from_list([1, 2, 3])
        out = run(s, "remove!(A, 0);", A=arr)
        assert out == Array.from_list([2, 3])


class TestResize:
    def test_truncate(self, s):
        arr = Array.from_list([1, 2, 3, 4])
        assert run(s, "resize!(A, 2);", A=arr) == Array.from_list([1, 2])

    def test_extend_raises_on_materialization(self, s):
        # reading an unset slot of a resized ODMG array is an error —
        # here the hole IS ⊥, and the evaluator tabulates eagerly, so
        # extension past the data already raises
        arr = Array.from_list([1])
        with pytest.raises(BottomError):
            run(s, "resize!(A, 3);", A=arr)

    def test_resize_to_zero(self, s):
        arr = Array.from_list([1, 2])
        assert run(s, "resize!(A, 0);", A=arr).dims == (0,)


class TestConcat:
    @given(nonempty_nat_arrays, nonempty_nat_arrays)
    def test_concat(self, s, xs, ys):
        out = run(s, "append!(A, B);", A=xs, B=ys)
        assert out.flat == xs.flat + ys.flat


class TestWithinCalculus:
    """The point of Section 7: these are *derived* NRCA queries."""

    def test_all_operations_are_core_expressions(self, s):
        for source in ("update!([[1]], 0, 2)", "insert!([[1]], 0, 2)",
                       "remove!([[1]], 0)", "resize!([[1]], 1)",
                       "append!([[1]], [[1]])"):
            expr = aql_core(s.env, source)
            assert isinstance(expr, ast.App)
            assert in_nrca(expr)

    def test_operations_optimize_soundly(self):
        arr = Array.from_list([5, 6, 7])
        source = "update!(insert!(A, 1, 9), 0, 0);"
        assert run(Session(), source, A=arr) == \
            run(Session(optimize=False), source, A=arr) == \
            Array.from_list([0, 9, 6, 7])
