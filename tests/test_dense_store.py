"""Property tests for the dense Array backing store (docs/ARRAY_STORE.md).

The store is an implementation detail: a block-backed array and an
object-backed array over the same data must be observationally
identical — equality, hash, set membership, the ``<_t`` total order,
subscript values and subscript ⊥ — so these properties pin the
equivalence down with hypothesis.

NaN is excluded from the generated reals: ``docs/ARRAY_STORE.md``
documents the one deliberate divergence (``compare_blocks`` refuses
NaN-bearing buffers and falls back, but two *aliased* NaN objects in an
object tuple short-circuit to equal by identity), and the calculus
itself never constructs NaN.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.errors import BottomError
from repro.objects import dense
from repro.objects.array import Array
from repro.objects.ordering import compare_values
from repro.objects.values import value_equal

# each strategy stays inside one kind so the probe can adopt the data;
# int bounds stay within the int64 guard
_SCALARS = {
    "int": st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    "real": st.floats(allow_nan=False, allow_infinity=True, width=64),
    "bool": st.booleans(),
}


@st.composite
def homogeneous_arrays(draw):
    """``(dims, values)`` with every element one scalar kind."""
    kind = draw(st.sampled_from(sorted(_SCALARS)))
    dims = tuple(draw(st.lists(st.integers(min_value=0, max_value=4),
                               min_size=1, max_size=3)))
    size = 1
    for d in dims:
        size *= d
    values = draw(st.lists(_SCALARS[kind], min_size=size, max_size=size))
    return dims, values


def twins(dims, values):
    """The same data object-backed and (when adoptable) block-backed.

    ``probe_block`` is the only numpy touchpoint, keeping the numpy
    discipline (tests never import it directly); when the probe declines
    (no numpy, store off) both twins are object-backed and the
    properties hold trivially.
    """
    boxed = Array(dims, list(values))
    block = dense.probe_block(tuple(values), dims)
    if block is None:
        return boxed, Array(dims, list(values))
    return boxed, Array(dims, block.data)


class TestObservationalEquality:
    @settings(max_examples=60)
    @given(homogeneous_arrays())
    def test_eq_hash_and_set_membership(self, case):
        dims, values = case
        boxed, dense_twin = twins(dims, values)
        assert boxed == dense_twin
        assert dense_twin == boxed
        assert value_equal(boxed, dense_twin)
        assert hash(boxed) == hash(dense_twin)
        assert dense_twin in {boxed}
        assert len(frozenset([boxed, dense_twin])) == 1

    @settings(max_examples=60)
    @given(homogeneous_arrays(), homogeneous_arrays())
    def test_total_order_agrees_across_backings(self, case_a, case_b):
        boxed_a, dense_a = twins(*case_a)
        boxed_b, dense_b = twins(*case_b)
        assert compare_values(boxed_a, dense_a) == 0
        assert (compare_values(boxed_a, boxed_b)
                == compare_values(dense_a, dense_b)
                == compare_values(boxed_a, dense_b))

    @settings(max_examples=60)
    @given(homogeneous_arrays())
    def test_subscript_values_and_types_agree(self, case):
        dims, values = case
        boxed, dense_twin = twins(dims, values)
        for index in boxed.indices():
            assert boxed[index] == dense_twin[index]
            assert type(boxed[index]) is type(dense_twin[index])

    @settings(max_examples=60)
    @given(homogeneous_arrays())
    def test_subscript_bottom_identity(self, case):
        dims, values = case
        boxed, dense_twin = twins(dims, values)
        bad = (dims[0],) + tuple(0 for _ in dims[1:])  # first axis overflow
        for array in (boxed, dense_twin):
            with pytest.raises(BottomError):
                array[bad]
            with pytest.raises(BottomError):
                array[(0,) * (len(dims) + 1)]  # arity mismatch
            with pytest.raises(BottomError):
                array[(True,) + (0,) * (len(dims) - 1)]  # bool not natural

    @settings(max_examples=40)
    @given(homogeneous_arrays())
    def test_views_agree(self, case):
        dims, values = case
        boxed, dense_twin = twins(dims, values)
        assert boxed.flat == dense_twin.flat
        assert boxed.graph() == dense_twin.graph()
        assert boxed.to_nested() == dense_twin.to_nested()
        assert boxed.reshape((boxed.size,)) == dense_twin.reshape((boxed.size,))


class TestEdgeShapes:
    def test_zero_extent_dims(self):
        for dims in [(0,), (3, 0), (0, 4, 2)]:
            boxed, dense_twin = twins(dims, [])
            assert boxed == dense_twin
            assert hash(boxed) == hash(dense_twin)
            assert boxed.size == dense_twin.size == 0
            assert list(dense_twin) == []

    def test_mixed_kind_data_declines_the_probe(self):
        mixed = Array((3,), [1, 2.0, True])
        before = dense.COUNTERS.snapshot()
        assert mixed.dense_block() is None
        assert mixed._block is False
        if dense.available():
            assert dense.COUNTERS.probe_rejects == before["probe_rejects"] + 1
        # the decline is cached: a second call must not rescan
        probed_once = dense.COUNTERS.snapshot()
        assert mixed.dense_block() is None
        assert dense.COUNTERS.snapshot() == probed_once

    def test_out_of_guard_integers_decline(self):
        huge = Array((2,), [2 ** 63, 1])
        assert huge.dense_block() is None
        assert huge.flat == (2 ** 63, 1)

    @pytest.mark.skipif(not dense.store_enabled(),
                        reason="dense store unavailable or disabled")
    def test_probe_counters_account_for_adoption_and_boxing(self):
        before = dense.COUNTERS.snapshot()
        grid = Array((4,), [1, 2, 3, 4])
        assert grid.dense_block() is not None
        assert dense.COUNTERS.blocks_probed == before["blocks_probed"] + 1
        # the probe cached a block but the array was *born* boxed, so
        # .flat reuses the original tuple — no materialization
        probed = dense.COUNTERS.snapshot()
        assert grid.flat == (1, 2, 3, 4)
        assert dense.COUNTERS.materializations == probed["materializations"]
        # an array born dense boxes lazily, exactly once
        adopted = Array((4,), grid.dense_block().data)
        assert dense.COUNTERS.blocks_adopted == probed["blocks_adopted"] + 1
        assert adopted.flat == (1, 2, 3, 4)
        assert adopted.flat == (1, 2, 3, 4)
        assert (dense.COUNTERS.materializations
                == probed["materializations"] + 1)


class TestKernelHandoff:
    """The acceptance criterion: a chained tabulate→subscript pipeline
    passes the backing block between kernels with zero boxing."""

    @pytest.mark.skipif(not dense.store_enabled(),
                        reason="dense store unavailable or disabled")
    def test_chained_tabulation_never_materializes(self):
        from repro.core import kernels
        from repro.core.compile import CompiledEvaluator

        if not kernels.available() or not kernels.ENABLED:
            pytest.skip("vectorized backend off")
        n = 32
        grid_expr = ast.Tabulate(
            ("x", "y"), (ast.NatLit(n), ast.NatLit(n)),
            ast.Arith("*", ast.Var("x"), ast.Var("y")))
        chained_expr = ast.Tabulate(
            ("x", "y"), (ast.NatLit(n), ast.NatLit(n)),
            ast.Arith("+",
                      ast.Subscript(ast.Var("A"),
                                    (ast.Var("x"), ast.Var("y"))),
                      ast.NatLit(1)))
        runner = CompiledEvaluator()
        produced = runner.run(grid_expr)
        assert produced.block is not None  # tabulation emitted a block
        before = dense.COUNTERS.snapshot()
        chained = runner.run(chained_expr, {"A": produced})
        after = dense.COUNTERS.snapshot()
        assert after["materializations"] == before["materializations"]
        assert after["blocks_probed"] == before["blocks_probed"]
        assert chained.block is not None
        assert chained[3, 7] == 3 * 7 + 1
