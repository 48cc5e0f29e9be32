"""One width rule for nat data (``dense.int_dtype``).

An int block, and every int term a kernel computes, is ``int32`` when
its sound interval lies inside the int32 range and ``int64`` otherwise.
The rule must never show: at the int32 boundary every kernel op agrees
with the reference ``Evaluator`` under every dispatch config, every
published int block has exactly the width its interval gives, and two
arrays holding the same naturals at different widths are the same value
to every observation (``==``, hash, ``<_t``, pickling, CO text, NetCDF).
"""

import pickle

import pytest

from repro.core import ast
from repro.core import kernels
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DispatchConfig
from repro.io.netcdf import write_netcdf
from repro.objects import dense
from repro.objects.array import Array
from repro.objects.exchange import dumps, loads
from repro.objects.ordering import compare_values

from conftest import CONFIGS, agree

numpy_required = pytest.mark.skipif(
    kernels._np is None, reason="numpy not installed")

I32 = 2 ** 31 - 1

#: naturals (and the negative ints a bound val may hold) at the edges
#: of int32: a term reaching any of them decides its width
EDGES = [0, 1, 7, I32 - 1, I32, I32 + 1, -I32, -I32 - 1, -I32 - 2]

#: the vals the bodies read: int32-backed and int64-backed operands
#: (numpy present) or object tuples (numpy absent)
NARROW = [1, 2, 3, I32, -I32 - 1, 5, 46341, 9]
WIDE = [2 ** 31, 3, -(2 ** 31) - 1, I32, 2 ** 40, 1, 7, 2]
DIVISORS = [-1, 1, -1, 2, 3, I32, -I32 - 1, 2 ** 31]
BINDS = {
    "A": Array((8,), NARROW),
    "W": Array((8,), WIDE),
    "D": Array((8,), DIVISORS),
    "Z": Array((8,), [-I32 - 1] * 8),
}

OPS = ["+", "-", "*", "/", "%"]


def _sub(name):
    return ast.Subscript(ast.Var(name), (ast.Var("x"),))


#: one operand of each source: the grid, a literal at either side of
#: the int32 limit, and int32- and int64-backed vals
OPERANDS = {
    "grid": ast.Var("x"),
    "small": ast.NatLit(7),
    "i32max": ast.NatLit(I32),
    "past": ast.NatLit(2 ** 31),
    "narrow": _sub("A"),
    "wide": _sub("W"),
    "divisor": _sub("D"),
    "min": _sub("Z"),
}


def _tab(body, extent=8):
    return ast.Tabulate(("x",), (ast.NatLit(extent),), body)


def _assert_canonical(value):
    """Every int block ``value`` carries has its interval's width."""
    if isinstance(value, Array) and value.dense_block() is not None:
        block = value.block
        if block.tag == dense.TAG_INT:
            assert block.lo <= block.hi
            assert block.data.dtype == dense.int_dtype(block.lo, block.hi)


def _agree(expr, binds=BINDS):
    """``expr`` agrees with the reference under every dispatch config and
    publishes canonical blocks; its outcome (the same under each)."""
    for config in CONFIGS:
        outcome = agree(expr, config, binds=binds)
        _assert_canonical(outcome[1])
    return outcome


class TestKernelOpsAtTheBoundary:
    """Each op over every pair of operand sources agrees with the
    reference semantics, ⊥ included, and publishes canonical blocks."""

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("left", sorted(OPERANDS))
    @pytest.mark.parametrize("right", sorted(OPERANDS))
    def test_op(self, op, left, right):
        _agree(_tab(ast.Arith(op, OPERANDS[left], OPERANDS[right])))

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("edge", EDGES)
    def test_every_edge_on_either_side(self, op, edge):
        binds = dict(BINDS, E=Array((8,), [edge] * 8))
        for body in (ast.Arith(op, _sub("E"), _sub("D")),
                     ast.Arith(op, _sub("D"), _sub("E")),
                     ast.Arith(op, _sub("E"), ast.Var("x"))):
            _agree(_tab(body), binds)

    def test_min_int32_divided_by_minus_one(self):
        """``-(2**31) / -1`` is ``2**31``: past int32, so computed wide."""
        minus_one = ast.Subscript(ast.Var("D"), (ast.NatLit(0),))
        kind, value = _agree(_tab(ast.Arith("/", _sub("Z"), minus_one)))
        assert kind == "value" and set(value.flat) == {2 ** 31}
        assert _agree(_tab(ast.Arith("%", _sub("Z"), minus_one)))[1] == \
            Array((8,), [0] * 8)

    @pytest.mark.parametrize("body", [
        # a pre-clamp interval leaving int32 around an in-range result
        ast.Arith("-", _sub("Z"), ast.NatLit(1)),
        ast.Arith("-", ast.Var("x"), ast.NatLit(2 ** 31)),
        ast.Arith("-", ast.NatLit(0), ast.NatLit(I32)),
        ast.Arith("-", _sub("A"), _sub("W")),
    ])
    def test_monus_whose_pre_clamp_crosses_the_limit(self, body):
        _agree(_tab(body))

    def test_a_sum_growing_past_int32(self):
        """``Σ`` slices added one at a time: the running term widens
        when its interval leaves int32, and the total is exact."""
        body = ast.Sum("i", ast.Arith("*", ast.Var("i"), ast.NatLit(I32)),
                       ast.Gen(ast.NatLit(4)))
        _agree(_tab(ast.Arith("+", body, ast.Var("x"))))
        _agree(ast.Sum("i", ast.Arith("*", ast.Var("i"),
                                      ast.NatLit(2 ** 25)),
                       ast.Gen(ast.NatLit(300))))


@numpy_required
class TestWidthIsInvisible:
    """An int32-backed and an int64-backed array with the same cells."""

    @pytest.fixture()
    def pair(self):
        # a loose kernel interval keeps [0, 1, 2] wide
        loose = CompiledEvaluator(dispatch=DispatchConfig(min_cells=1)).run(
            _tab(ast.Arith("/", ast.Arith(
                "*", ast.Var("x"), ast.NatLit(3_000_000_000)),
                ast.NatLit(3_000_000_000)), extent=3), {})
        narrow = Array((3,), [0, 1, 2])
        assert loose.block.data.dtype == dense.int_dtype(
            -(2 ** 33), 2 ** 33)
        assert narrow.dense_block().data.dtype == dense.int_dtype(0, 2)
        assert loose.block.data.dtype != narrow.block.data.dtype
        return narrow, loose

    def test_equality_hash_and_order(self, pair):
        narrow, loose = pair
        assert narrow == loose and loose == narrow
        assert hash(narrow) == hash(loose)
        assert compare_values(narrow, loose) == 0
        assert compare_values(Array((3,), [0, 1, 3]), loose) > 0
        assert compare_values(loose, Array((3,), [0, 2, 0])) < 0

    def test_pickling(self, pair):
        for array in pair:
            back = pickle.loads(pickle.dumps(array))
            assert back == pair[0] and back.block is not None
            _assert_canonical(back)

    def test_co_text(self, pair):
        narrow, loose = pair
        assert dumps(narrow) == dumps(loose) == "[[3; 0, 1, 2]]"
        assert loads(dumps(loose)) == narrow

    def test_netcdf_write(self, pair, tmp_path):
        written = []
        for position, array in enumerate(pair):
            path = tmp_path / f"{position}.nc"
            write_netcdf(str(path), {"x": 3}, {"v": ("int", ("x",), array)})
            written.append(path.read_bytes())
        assert written[0] == written[1]


@numpy_required
class TestOneWidthRule:
    """Where blocks come from — adoption, a probe, a NetCDF decode —
    the width is the interval's, found in one function."""

    @pytest.mark.parametrize("lo, hi, width", [
        (0, 0, 4), (-(2 ** 31), I32, 4), (0, 2 ** 31, 8),
        (-(2 ** 31) - 1, 0, 8), (-dense.INT_GUARD, dense.INT_GUARD, 8)])
    def test_int_dtype(self, lo, hi, width):
        assert kernels._np.dtype(dense.int_dtype(lo, hi)).itemsize == width

    def test_adoption_narrows_once(self):
        np = kernels._np
        small = Array((4,), np.arange(4, dtype=np.int64))
        big = Array((2,), np.array([0, 2 ** 31], dtype=np.int64))
        assert small.block.data.dtype == np.int32
        assert big.block.data.dtype == np.int64
        # a given interval is trusted, not rescanned
        loose = Array((2,), np.array([0, 1], dtype=np.int32), (0, 2 ** 40))
        assert loose.block.data.dtype == np.int64
        assert (loose.block.lo, loose.block.hi) == (0, 2 ** 40)

    def test_probe(self):
        for cells in ([1, 2, I32], [-I32 - 1, 0], [2 ** 31, 0], []):
            _assert_canonical(Array((len(cells),), cells))

    @pytest.mark.parametrize("code", [">i1", ">i2", ">i4"])
    def test_decode_goes_straight_to_int32(self, code):
        np = kernels._np
        raw = np.array([-3, 0, 5], dtype=code).tobytes()
        decoded = dense.decode_bytes(raw, code)
        assert decoded.dtype == np.int32
        assert decoded.tolist() == [-3, 0, 5]
