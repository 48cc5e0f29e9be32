"""Scalar shards over skewed domains and the vectorized Σ partials
(``repro.core.parallel`` + ``repro.core.kernels.execute_elements``).

Contract under test (``docs/PARALLEL.md``): a tabulation domain splits
by flat row-major cells whatever its shape, and an unprobed int Σ with a
kernel-shaped body folds each shard's slice vectorized into an exact
partial sum — indistinguishable from the reference semantics, and in
its probe counters modulo the ``PARALLEL_ONLY`` keys from the serial
loop.  (Kernel-shaped *tabulations* never shard: see
``tests/test_parallel.py::TestSessionSurface::
test_kernel_shaped_tabulation_never_shards``.)
"""

import pytest

from conftest import agree, assert_identical, outcome
from test_parallel import (counters, parallel_config, serial_config,
                           shards_required)

from repro.core import ast
from repro.core import kernels
from repro.core import parallel
from repro.obs.metrics import EvalMetrics
from repro.objects.array import Array


@pytest.fixture(autouse=True)
def _parallel_on(monkeypatch):
    """Pin the kill switch on (mirrors ``test_parallel``)."""
    monkeypatch.setattr(parallel, "ENABLED", True)


def _kernels_required():
    if not kernels.available():
        pytest.skip("numpy kernel backend unavailable on this lane")


# ---------------------------------------------------------------------------
# fixture expressions
# ---------------------------------------------------------------------------

#: data-dependent branch over a skewed shape — outermost extent 2, but
#: 1200 cells still split 3 ways
SKEWED_BRANCHY = ast.Tabulate(
    ("x", "y"), (ast.NatLit(2), ast.NatLit(600)),
    ast.If(ast.Cmp("<=", ast.Var("x"), ast.Var("y")),
           ast.Arith("*", ast.Var("x"), ast.Var("y")),
           ast.Arith("+", ast.Var("x"), ast.Var("y"))),
)

#: unprobed int Σ with a kernel-shaped body → vectorized partial folds
BIG_SUM = ast.Sum(
    "e", ast.Arith("*", ast.Var("e"), ast.Var("e")),
    ast.Gen(ast.NatLit(300)),
)

#: order-sensitive float Σ — must never take the vectorized fold
FLOAT_SUM = ast.Sum(
    "e", ast.Arith("+", ast.Var("e"), ast.RealLit(0.0)), ast.Var("ar"),
)

FLOAT_ELEMENTS = Array.from_list([(k % 7) * 0.375 - 1.5
                                  for k in range(300)])


# ---------------------------------------------------------------------------
# vectorized Σ partials
# ---------------------------------------------------------------------------

class TestVectorizedSum:

    def test_unprobed_int_sum_agrees(self):
        """The vsum fold returns the exact serial total (same value,
        same int type)."""
        assert agree(BIG_SUM, parallel_config(3), binds={})[0] == "value"

    def test_probed_sum_keeps_scalar_counters(self):
        """Serial Σ is never vectorized, so a probed sharded Σ must
        run its body per element — counters prove it did."""
        serial_metrics, sharded_metrics = EvalMetrics(), EvalMetrics()
        reference = outcome(BIG_SUM, serial_config(),
                            probe=serial_metrics, binds={})
        sharded = outcome(BIG_SUM, parallel_config(3),
                          probe=sharded_metrics, binds={})
        assert_identical(sharded[1], reference[1])
        assert counters(sharded_metrics) == counters(serial_metrics)

    def test_float_sum_stays_bit_exact(self):
        """Float elements decline the vectorized fold; the boxed
        in-order fold reproduces serial rounding bit for bit."""
        sharded = agree(FLOAT_SUM, parallel_config(3),
                        binds={"ar": FLOAT_ELEMENTS})
        assert sharded[0] == "value"


# ---------------------------------------------------------------------------
# kernels.execute_elements units
# ---------------------------------------------------------------------------

class TestExecuteElements:

    def test_exact_partial_sum(self):
        _kernels_required()
        import numpy as np

        kernel = kernels.recognize_sum(BIG_SUM)
        assert kernel is not None
        elements = np.arange(100, 200, dtype=np.int64)
        partial = kernels.execute_elements(kernel, elements, (0, 299),
                                           300, [])
        assert partial == (sum(int(e) * int(e) for e in elements),)

    def test_overflow_guard_declines(self):
        """Global bounds big enough that the fold could overflow int64
        decline in every shard identically."""
        _kernels_required()
        import numpy as np

        kernel = kernels.recognize_sum(BIG_SUM)
        elements = np.arange(10, dtype=np.int64)
        huge = 2 ** 32
        assert kernels.execute_elements(kernel, elements, (0, huge),
                                        10 ** 6, []) is None

    def test_float_body_declines(self):
        _kernels_required()
        import numpy as np

        float_body = ast.Sum("e", ast.Arith("*", ast.Var("e"),
                                            ast.RealLit(0.5)),
                             ast.Gen(ast.NatLit(10)))
        kernel = kernels.recognize_sum(float_body)
        assert kernel is not None
        elements = np.arange(10, dtype=np.int64)
        assert kernels.execute_elements(kernel, elements, (0, 9),
                                        10, []) is None


class TestSplit:

    def test_flat_split_balances_skewed_dims(self):
        shards = parallel.split(2 * 500000, 4)
        assert shards == [(0, 250000), (250000, 500000),
                          (500000, 750000), (750000, 1000000)]

    def test_split_never_exceeds_extent(self):
        assert parallel.split(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_split_remainder_spreads_left(self):
        assert parallel.split(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_skewed_dims_yield_balanced_shards(self):
        """A (2, 600) domain splits by flat cells, not the outermost
        extent — three shards of 400 cells each."""
        shards_required()
        assert parallel.split(2 * 600, 3) == [(0, 400), (400, 800),
                                              (800, 1200)]
        metrics = EvalMetrics()
        sharded = outcome(SKEWED_BRANCHY, parallel_config(3),
                          probe=metrics, binds={})
        reference = outcome(SKEWED_BRANCHY, serial_config(), binds={})
        assert sharded[0] == "value"
        assert_identical(sharded[1], reference[1])
        assert metrics.shards_executed == 3
