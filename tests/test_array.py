"""Unit tests for the Array value class (arrays-as-functions, Section 2)."""

import pickle
import threading
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BottomError
from repro.objects import dense
from repro.objects.array import Array, _row_major_strides, iter_indices


class TestConstruction:
    def test_one_dimensional(self):
        a = Array((3,), [10, 20, 30])
        assert a.dims == (3,)
        assert a.rank == 1
        assert len(a) == 3
        assert a.size == 3

    def test_from_list(self):
        assert Array.from_list([1, 2]).dims == (2,)

    def test_empty(self):
        a = Array((0,), [])
        assert len(a) == 0
        assert list(a) == []

    def test_multidimensional(self):
        m = Array((2, 3), range(6))
        assert m.rank == 2
        assert m.size == 6
        assert len(m) == 2  # first dimension

    def test_zero_dimension_among_others(self):
        m = Array((3, 0), [])
        assert m.dims == (3, 0)
        assert m.size == 0

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError):
            Array((2, 2), [1, 2, 3])

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            Array((-1,), [])

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            Array((), [])

    def test_from_nested(self):
        m = Array.from_nested([[1, 2, 3], [4, 5, 6]], rank=2)
        assert m.dims == (2, 3)
        assert m[1, 2] == 6

    def test_from_nested_ragged_rejected(self):
        with pytest.raises(ValueError):
            Array.from_nested([[1, 2], [3]], rank=2)

    def test_from_nested_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Array.from_nested([1, 2, 3], rank=2)

    def test_from_nested_empty_list_at_any_rank(self):
        # regression: this raised "expected nesting depth 2, ran out at
        # 1" — once a level is empty, remaining dims default to 0
        assert Array.from_nested([], rank=2).dims == (0, 0)
        assert Array.from_nested([], rank=1).dims == (0,)
        assert Array.from_nested([], rank=4).dims == (0, 0, 0, 0)

    def test_from_nested_empty_inner_level(self):
        m = Array.from_nested([[], []], rank=3)
        assert m.dims == (2, 0, 0)
        assert m.flat == ()

    def test_from_nested_empty_still_rejects_non_sequences(self):
        with pytest.raises(ValueError):
            Array.from_nested(0, rank=1)

    def test_tabulate(self):
        m = Array.tabulate((2, 3), lambda i, j: i * 10 + j)
        assert m.flat == (0, 1, 2, 10, 11, 12)


class TestConstructor:
    """``Array.__init__``'s validation texts, its ``int(d)`` reading of
    dims and its strides, whatever form the dims and values come in."""

    @pytest.mark.parametrize("dims, values, message", [
        ((), [], "arrays must have at least one dimension"),
        ([], (), "arrays must have at least one dimension"),
        ((2, -1), [], "negative dimension in (2, -1)"),
        ((-3,), [], "negative dimension in (-3,)"),
        ((2, 2), [1, 2, 3], "dims (2, 2) require 4 values, got 3"),
        ((2, 2), (1, 2, 3, 4, 5), "dims (2, 2) require 4 values, got 5"),
        ((3,), (n for n in range(2)), "dims (3,) require 3 values, got 2"),
        ((0,), range(1), "dims (0,) require 0 values, got 1"),
    ], ids=["no-dims", "no-dims-list", "negative", "negative-1d", "list",
            "tuple", "generator", "range"])
    def test_value_error_texts(self, dims, values, message):
        with pytest.raises(ValueError) as caught:
            Array(dims, values)
        assert str(caught.value) == message

    def test_ndarray_count_mismatch_text(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        with pytest.raises(ValueError) as caught:
            Array((2, 2), np.arange(3))
        assert str(caught.value) == "dims (2, 2) require 4 values, got 3"

    @pytest.mark.parametrize("dims, expected", [
        ([2, 3], (2, 3)),
        ((2, 3), (2, 3)),
        ((d for d in (2, 3)), (2, 3)),
        ((True, 3), (1, 3)),
        ((True,), (1,)),
        ((False, 3), (0, 3)),
    ], ids=["list", "tuple", "generator", "true", "true-1d", "false"])
    def test_dims_read_as_ints(self, dims, expected):
        a = Array(dims, range(prod(expected)))
        assert a.dims == expected
        assert all(type(d) is int for d in a.dims)

    def test_numpy_int_dims(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        a = Array((np.int64(2), np.int32(3)), list(range(6)))
        assert a.dims == (2, 3)
        assert all(type(d) is int for d in a.dims)
        assert a[1, 2] == 5

    @pytest.mark.parametrize("dims", [
        (5,), (2, 3), (2, 3, 4), (2, 3, 4, 5), (0,), (3, 0), (0, 4, 2),
        (2, 0, 3, 1), (1, 1, 1, 1)])
    def test_strides_are_row_major(self, dims):
        a = Array(dims, list(range(prod(dims))))
        assert a._strides == _row_major_strides(dims)
        assert a._strides[-1] == 1

    def test_strides_survive_many_shapes(self):
        for n in range(1500):       # more shapes than any memo keeps
            assert Array((0, n, 2), [])._strides == (2 * n, 2, 1)
        assert Array((3, 4), range(12))._strides == (4, 1)

    @settings(derandomize=True, max_examples=80)
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                    max_size=4).flatmap(lambda dims: st.tuples(
                        st.just(tuple(dims)), st.lists(
                            st.integers(-5, 5), min_size=prod(dims),
                            max_size=prod(dims)))))
    def test_nested_round_trip(self, case):
        dims, values = case
        a = Array(dims, values)
        nested = a.to_nested()
        b = Array.from_nested(nested, len(dims))
        assert b.to_nested() == nested
        if 0 not in dims:               # an empty level ends the probe
            assert b == a
            assert b.dims == dims and b._strides == a._strides


class TestSubscript:
    def test_one_dim(self):
        a = Array.from_list([5, 6, 7])
        assert a[0] == 5
        assert a[(2,)] == 7

    def test_row_major_layout(self):
        m = Array((2, 3), [1, 2, 3, 4, 5, 6])
        assert m[0, 0] == 1
        assert m[0, 2] == 3
        assert m[1, 0] == 4
        assert m[1, 2] == 6

    def test_out_of_bounds_is_bottom(self):
        a = Array.from_list([1])
        with pytest.raises(BottomError):
            a[1]

    def test_negative_index_is_bottom(self):
        a = Array.from_list([1])
        with pytest.raises(BottomError):
            a[-1]

    def test_wrong_arity_is_bottom(self):
        m = Array((2, 2), [1, 2, 3, 4])
        with pytest.raises(BottomError):
            m[(0,)]

    def test_non_natural_index_is_bottom(self):
        a = Array.from_list([1, 2])
        with pytest.raises(BottomError):
            a[("x",)]
        with pytest.raises(BottomError):
            a[(True,)]


class TestViews:
    def test_graph_one_dim_uses_bare_keys(self):
        a = Array.from_list(["x", "y"])
        assert a.graph() == frozenset({(0, "x"), (1, "y")})

    def test_graph_k_dim_uses_tuple_keys(self):
        m = Array((1, 2), ["a", "b"])
        assert m.graph() == frozenset({((0, 0), "a"), ((0, 1), "b")})

    def test_to_nested(self):
        m = Array((2, 2), [1, 2, 3, 4])
        assert m.to_nested() == [[1, 2], [3, 4]]

    def test_map_preserves_dims(self):
        m = Array((2, 2), [1, 2, 3, 4]).map(lambda v: v * v)
        assert m.dims == (2, 2)
        assert m.flat == (1, 4, 9, 16)

    def test_reshape(self):
        a = Array.from_list([1, 2, 3, 4, 5, 6]).reshape((2, 3))
        assert a[1, 0] == 4

    def test_reshape_size_mismatch(self):
        with pytest.raises(ValueError):
            Array.from_list([1, 2, 3]).reshape((2, 2))

    def test_indices_row_major(self):
        m = Array((2, 2), "abcd")
        assert list(m.indices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestValueProtocol:
    def test_equality_structural(self):
        assert Array((2,), [1, 2]) == Array((2,), [1, 2])
        assert Array((2,), [1, 2]) != Array((2,), [2, 1])

    def test_dims_part_of_identity(self):
        assert Array((4,), [1, 2, 3, 4]) != Array((2, 2), [1, 2, 3, 4])

    def test_hashable_and_usable_in_sets(self):
        s = {Array((2,), [1, 2]), Array((2,), [1, 2]), Array((2,), [9, 9])}
        assert len(s) == 2

    def test_iteration_is_row_major(self):
        assert list(Array((2, 2), [1, 2, 3, 4])) == [1, 2, 3, 4]

    def test_repr_truncates(self):
        text = repr(Array.from_list(list(range(100))))
        assert "..." in text


class TestKindMixing:
    """Regression: kinds are distinct in the calculus (nat ≠ real ≠ bool).

    The seed compared arrays by raw Python ``==`` over flat tuples, where
    ``1 == 1.0 == True`` — so ``[[1]]``, ``[[1.0]]`` and ``[[true]]``
    collapsed to one value in sets and compared equal.  ``Array.__eq__``
    is now kind-first (the kind signature is checked before any element
    comparison) and ``__hash__`` folds the signature in.
    """

    NAT = Array((1, 1), [1])
    REAL = Array((1, 1), [1.0])
    BOOL = Array((1, 1), [True])

    def test_pairwise_unequal(self):
        assert self.NAT != self.REAL
        assert self.NAT != self.BOOL
        assert self.REAL != self.BOOL

    def test_hashes_distinct(self):
        assert len({hash(self.NAT), hash(self.REAL), hash(self.BOOL)}) == 3

    def test_distinct_in_frozenset(self):
        assert len(frozenset([self.NAT, self.REAL, self.BOOL])) == 3

    def test_same_kind_same_value_still_equal(self):
        assert Array((1, 1), [1]) == Array((1, 1), [1])
        assert hash(Array((1, 1), [1.0])) == hash(Array((1, 1), [1.0]))

    def test_mixed_kind_flats_compare_positionally(self):
        # same kind signature "nr" on both sides: falls through to the
        # elementwise walk, not the kind short-circuit
        assert Array((2,), [1, 2.0]) == Array((2,), [1, 2.0])
        assert Array((2,), [1, 2.0]) != Array((2,), [1.0, 2.0])

    def test_empty_arrays_equal_regardless_of_backing(self):
        assert Array((0,), []) == Array((0,), [])


class TestBottomBoundary:
    """Regression: host ``ValueError`` from Array validation must surface
    as the calculus's ⊥ at the ``apply_function`` boundary, not leak as a
    bare Python exception (the seed leaked
    ``ValueError: dims (2, 2) require 4 values, got 3``)."""

    @staticmethod
    def _engines():
        from repro.core.compile import CompiledEvaluator
        from repro.core.eval import Evaluator

        return [CompiledEvaluator(), Evaluator()]

    def test_apply_maps_reshape_mismatch_to_bottom(self):
        bad = Array.from_list([1, 2, 3])
        for engine in self._engines():
            with pytest.raises(BottomError) as err:
                engine.apply_function(lambda v: v.reshape((2, 2)), bad)
            assert "host value error" in str(err.value)

    def test_apply_maps_init_mismatch_to_bottom(self):
        for engine in self._engines():
            with pytest.raises(BottomError) as err:
                engine.apply_function(lambda v: Array((2, 2), v), [1, 2, 3])
            assert "host value error" in str(err.value)


class TestDenseProbeThreads:
    """The lazy ``_block`` probe must be idempotent under concurrent
    callers (host threads may share Array values)."""

    WORKERS = 8

    def _hammer(self, array):
        results = [None] * self.WORKERS
        barrier = threading.Barrier(self.WORKERS)

        def probe(slot):
            barrier.wait()
            results[slot] = array.dense_block()

        threads = [threading.Thread(target=probe, args=(slot,))
                   for slot in range(self.WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    @pytest.mark.skipif(not dense.available(),
                        reason="dense store unavailable")
    def test_concurrent_probe_publishes_equivalent_blocks(self):
        grid = Array((100, 100), list(range(10_000)))
        results = self._hammer(grid)
        # racing probes may build separate blocks, but every caller gets
        # *a* block, all equivalent, and one of them ends up published
        assert all(isinstance(b, dense.DenseBlock) for b in results)
        first = results[0]
        assert all(b.tag == first.tag for b in results)
        assert all(dense.blocks_equal(first, b) for b in results)
        assert isinstance(grid._block, dense.DenseBlock)
        assert grid.flat == tuple(range(10_000))

    def test_concurrent_probe_decline_is_stable(self):
        words = Array((4,), ["a", "b", "c", "d"])
        results = self._hammer(words)
        assert all(b is None for b in results)
        assert words._block is False  # cached decline
        assert words.flat == ("a", "b", "c", "d")


class TestPickle:
    """``Array.__reduce__``: a block-backed array ships its buffer and
    comes back block-backed; any other array ships its boxed tuple."""

    @pytest.mark.parametrize("array, dense_kind", [
        (Array((3, 4), list(range(12))), True),
        (Array((2, 2), [True, False, False, True]), True),
        (Array((3,), ["a", "b", ""]), False),
    ], ids=["int-block", "bool", "string"])
    def test_round_trip(self, array, dense_kind):
        backed = array.dense_block() is not None
        assert backed == (dense_kind and dense.available())
        copy = pickle.loads(pickle.dumps(array))
        assert copy == array
        assert copy._kinds() == array._kinds()
        assert hash(copy) == hash(array)
        assert (copy.block is not None) == backed


class TestIterIndices:
    def test_empty_when_any_dim_zero(self):
        assert list(iter_indices((3, 0, 2))) == []

    def test_full_enumeration(self):
        assert len(list(iter_indices((2, 3, 4)))) == 24

    @given(st.lists(st.integers(min_value=0, max_value=4),
                    min_size=1, max_size=3))
    def test_count_matches_product(self, dims):
        expected = 1
        for d in dims:
            expected *= d
        assert len(list(iter_indices(dims))) == expected

    @given(st.lists(st.integers(min_value=1, max_value=4),
                    min_size=1, max_size=3))
    def test_order_is_lexicographic(self, dims):
        out = list(iter_indices(dims))
        assert out == sorted(out)
