"""The fused shard-kernel dispatch (``repro.core.parallel`` +
``repro.core.kernels.execute_range``/``execute_elements``).

Contract under test (``docs/PARALLEL.md``, ``docs/VECTOR_BACKEND.md``):
when a tabulation body is kernel-shaped and the domain clears
``kernel_min_cells``, the process shards run the numpy kernel per core
over flat row-major cell ranges — and the result is *indistinguishable*
from the reference semantics (identical values, scalar kinds, hashes)
and, in its probe counters modulo the ``PARALLEL_ONLY`` keys, from the
serial kernel.  Whenever the fused path cannot prove that, it declines:
a ⊥ cell reruns serially with the serial error identity and a missing
output slab falls back to the serial kernel.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import agree, assert_identical, outcome
from test_parallel import counters, serial_config

from repro.core import ast
from repro.core import kernels
from repro.core import parallel
from repro.core.fastpath import DEFAULT_KERNEL_MIN_CELLS, DispatchConfig
from repro.errors import SessionError
from repro.obs.metrics import EvalMetrics
from repro.objects.array import Array
from repro.system.repl import parallel_command
from repro.system.session import Session


@pytest.fixture(autouse=True)
def _parallel_on(monkeypatch):
    """Pin the kill switch on (mirrors ``test_parallel``)."""
    monkeypatch.setattr(parallel, "ENABLED", True)


def fused_config(workers=3):
    """Process sharding with both floors at 1, so small fixtures fuse."""
    return DispatchConfig(min_cells=1, workers=workers, backend="process",
                          kernel_min_cells=1)


def _kernels_required():
    if not kernels.available():
        pytest.skip("numpy kernel backend unavailable on this lane")


def _shm_required():
    if not parallel._shm_transport_on():
        pytest.skip("shared-memory transport unavailable on this lane")


# ---------------------------------------------------------------------------
# fixture expressions
# ---------------------------------------------------------------------------

#: kernel-shaped 2-D tabulation — the canonical fused fixture
KERNEL_TAB = ast.Tabulate(
    ("x", "y"), (ast.NatLit(24), ast.NatLit(24)),
    ast.Arith("+", ast.Arith("*", ast.Var("x"), ast.NatLit(20)),
              ast.Var("y")),
)

#: float-valued kernel body (promotes through a real literal)
FLOAT_TAB = ast.Tabulate(
    ("x", "y"), (ast.NatLit(20), ast.NatLit(24)),
    ast.Arith("*", ast.Arith("+", ast.Var("x"), ast.Var("y")),
              ast.RealLit(0.25)),
)

#: kernel-shaped body that is ⊥ at exactly x=0 (division by x % 100)
POISONED_KERNEL = ast.Tabulate(
    ("x",), (ast.NatLit(160),),
    ast.Arith("/", ast.NatLit(100),
              ast.Arith("%", ast.Var("x"), ast.NatLit(100))),
)

#: skewed shape — outermost extent 2, but 1200 cells still split 3 ways
SKEWED_KERNEL = ast.Tabulate(
    ("x", "y"), (ast.NatLit(2), ast.NatLit(600)),
    ast.Arith("+", ast.Arith("*", ast.Var("x"), ast.NatLit(600)),
              ast.Var("y")),
)

#: data-dependent branch over the same skewed shape — NOT kernel-shaped,
#: so it exercises the flat-cell *scalar* shards on a (2, N) domain
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

#: an operand big enough (64×64 int64 = 32768 bytes) to ride shared
#: memory; the body subscripts it, so workers must adopt the mapped
#: segment as their read-only view
GRID_OPERAND = Array((64, 64), [(i * 64 + j) % 97
                                for i in range(64) for j in range(64)])
GRID_TAB = ast.Tabulate(
    ("x", "y"), (ast.NatLit(64), ast.NatLit(64)),
    ast.Arith("+", ast.Arith("*", ast.Var("x"), ast.Var("y")),
              ast.Subscript(ast.Var("a"),
                            (ast.Var("x"), ast.Var("y")))),
)


# ---------------------------------------------------------------------------
# property: fused == reference semantics; counters == serial kernel
# ---------------------------------------------------------------------------

def _small_kernel_tabs():
    """Random kernel-shaped 2-D tabulations over x, y."""
    leaves = st.sampled_from([
        ast.Var("x"), ast.Var("y"), ast.NatLit(3), ast.NatLit(7),
        ast.RealLit(0.5),
    ])

    def build(children):
        ops = st.sampled_from(["+", "-", "*", "%"])
        return st.builds(
            lambda op, a, b: ast.Arith(
                op, a,
                # keep divisors/moduli non-zero: ⊥ identity has its own test
                ast.Arith("+", b, ast.NatLit(1)) if op == "%" else b),
            ops, children, children)

    bodies = st.recursive(leaves, build, max_leaves=6)
    extents = st.integers(min_value=2, max_value=9)
    return st.builds(
        lambda body, ex, ey: ast.Tabulate(
            ("x", "y"), (ast.NatLit(ex), ast.NatLit(ey)), body),
        bodies, extents, extents)


@pytest.mark.slow
class TestFusedSerialAgreement:

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_small_kernel_tabs())
    def test_random_kernel_tabs_agree(self, expr):
        _kernels_required()
        agree(expr, fused_config(), binds={})

    @pytest.mark.parametrize("expr,binds", [
        (KERNEL_TAB, {}),
        (FLOAT_TAB, {}),
        (SKEWED_KERNEL, {}),
        (GRID_TAB, {"a": GRID_OPERAND}),
    ])
    def test_fused_matches_reference(self, expr, binds):
        """Agreement with the numpy-free, shard-free naive loop."""
        _kernels_required()
        assert agree(expr, fused_config(), binds=binds)[0] == "value"

    def test_fused_counters_match_serial_kernel(self):
        """Shared counters agree with the serial-kernel run exactly;
        only the ``PARALLEL_ONLY`` keys may differ."""
        _kernels_required()
        _shm_required()
        serial_metrics, fused_metrics = EvalMetrics(), EvalMetrics()
        reference = outcome(KERNEL_TAB, serial_config(),
                            probe=serial_metrics, binds={})
        fused = outcome(KERNEL_TAB, fused_config(),
                        probe=fused_metrics, binds={})
        assert fused[0] == reference[0] == "value"
        assert_identical(fused[1], reference[1])
        assert counters(fused_metrics) == counters(serial_metrics)
        assert fused_metrics.shards_vectorized == 3
        assert fused_metrics.cells_vectorized_parallel == 24 * 24


# ---------------------------------------------------------------------------
# the new counters, end to end
# ---------------------------------------------------------------------------

class TestFusedCounters:

    def test_vectorized_shards_and_avoided_copies(self):
        """A fused dispatch over an shm-shipped operand reports: every
        shard vectorized, every cell kernel-computed (and *no* cell
        scalar-materialized), and one avoided copy per worker adoption
        of the mapped operand."""
        _kernels_required()
        _shm_required()
        metrics = EvalMetrics()
        fused = outcome(GRID_TAB, fused_config(), probe=metrics,
                        binds={"a": GRID_OPERAND})
        reference = outcome(GRID_TAB, serial_config(),
                            binds={"a": GRID_OPERAND})
        assert fused[0] == "value"
        assert_identical(fused[1], reference[1])
        assert metrics.shards_executed == 3
        assert metrics.shards_vectorized == 3
        assert metrics.cells_vectorized_parallel == 64 * 64
        assert metrics.cells_vectorized == 64 * 64
        assert metrics.cells_materialized == 0
        assert metrics.tabulations_vectorized == 1
        assert metrics.shm_copies_avoided == 3

    def test_scalar_shards_count_avoided_copies_too(self):
        """Read-only adoption is not kernel-specific: boxed scalar
        shards over a mapped operand also skip the defensive copy."""
        _shm_required()
        branchy = ast.Tabulate(
            ("x",), (ast.NatLit(120),),
            ast.If(ast.Cmp("<=", ast.Var("x"), ast.NatLit(60)),
                   ast.Subscript(ast.Var("a"),
                                 (ast.Arith("%", ast.Var("x"),
                                            ast.NatLit(64)),
                                  ast.NatLit(0))),
                   ast.Var("x")),
        )
        metrics = EvalMetrics()
        config = DispatchConfig(min_cells=1, workers=3, backend="process")
        fused = outcome(branchy, config, probe=metrics,
                        binds={"a": GRID_OPERAND})
        reference = outcome(branchy, serial_config(),
                            binds={"a": GRID_OPERAND})
        assert fused[0] == "value"
        assert_identical(fused[1], reference[1])
        assert metrics.shards_vectorized == 0
        assert metrics.shm_copies_avoided == 3

    def test_kernel_min_cells_gates_the_fused_path(self):
        """Below the fused floor the serial kernel serves the construct
        — same counters as a pure serial run, no shards at all."""
        _kernels_required()
        gated = DispatchConfig(min_cells=1, workers=3, backend="process",
                               kernel_min_cells=10**9)
        serial_metrics, gated_metrics = EvalMetrics(), EvalMetrics()
        reference = outcome(KERNEL_TAB, serial_config(),
                            probe=serial_metrics, binds={})
        result = outcome(KERNEL_TAB, gated,
                         probe=gated_metrics, binds={})
        assert_identical(result[1], reference[1])
        assert gated_metrics.to_dict() == serial_metrics.to_dict()
        assert gated_metrics.shards_vectorized == 0

    def test_no_shm_falls_back_to_serial_kernel(self, monkeypatch):
        """Without an output slab the fused dispatch declines *before*
        sharding, so the serial kernel runs with serial counters."""
        _kernels_required()
        monkeypatch.setattr(parallel, "SHM_ENABLED", False)
        serial_metrics, fused_metrics = EvalMetrics(), EvalMetrics()
        reference = outcome(KERNEL_TAB, serial_config(),
                            probe=serial_metrics, binds={})
        result = outcome(KERNEL_TAB, fused_config(),
                         probe=fused_metrics, binds={})
        assert_identical(result[1], reference[1])
        assert fused_metrics.to_dict() == serial_metrics.to_dict()


# ---------------------------------------------------------------------------
# strict ⊥ and skew
# ---------------------------------------------------------------------------

class TestFusedFallbacks:

    @pytest.mark.parametrize("probed", [False, True])
    def test_poisoned_kernel_keeps_serial_error_identity(self, probed):
        """x=0 divides by zero: the shard's kernel declines on an
        actual-value check, its scalar fallback raises, and the parent
        reruns serially — producing the serial reason and counters."""
        serial_metrics = EvalMetrics() if probed else None
        fused_metrics = EvalMetrics() if probed else None
        outcome(POISONED_KERNEL, serial_config(), probe=serial_metrics,
                binds={})
        fused = agree(POISONED_KERNEL, fused_config(), probe=fused_metrics,
                      binds={})
        assert fused[0] == "bottom"
        if probed:
            assert counters(fused_metrics) == counters(serial_metrics)
            assert fused_metrics.shards_vectorized == 0

    def test_skewed_dims_yield_balanced_shards(self):
        """A (2, 600) domain splits by flat cells, not the outermost
        extent — three shards of 400 cells each, for both the scalar
        and the fused paths."""
        assert parallel.split(2 * 600, 3) == [(0, 400), (400, 800),
                                              (800, 1200)]
        metrics = EvalMetrics()
        fused = outcome(SKEWED_BRANCHY, fused_config(),
                        probe=metrics, binds={})
        reference = outcome(SKEWED_BRANCHY, serial_config(),
                            binds={})
        assert fused[0] == "value"
        assert_identical(fused[1], reference[1])
        assert metrics.shards_executed == 3

    def test_skewed_kernel_vectorizes_all_shards(self):
        _kernels_required()
        _shm_required()
        metrics = EvalMetrics()
        fused = outcome(SKEWED_KERNEL, fused_config(),
                        probe=metrics, binds={})
        assert fused[0] == "value"
        assert metrics.shards_vectorized == 3
        assert metrics.cells_vectorized_parallel == 1200


# ---------------------------------------------------------------------------
# vectorized Σ partials
# ---------------------------------------------------------------------------

class TestVectorizedSum:

    def test_unprobed_int_sum_agrees(self):
        """The vsum fold returns the exact serial total (same value,
        same int type)."""
        fused = agree(BIG_SUM,
                      DispatchConfig(min_cells=1, workers=3,
                                     backend="process"), binds={})
        assert fused[0] == "value"

    def test_probed_sum_keeps_scalar_counters(self):
        """Serial Σ is never vectorized, so a probed sharded Σ must
        run its body per element — counters prove it did."""
        serial_metrics, sharded_metrics = EvalMetrics(), EvalMetrics()
        reference = outcome(BIG_SUM, serial_config(),
                            probe=serial_metrics, binds={})
        sharded = outcome(BIG_SUM,
                          DispatchConfig(min_cells=1, workers=3,
                                         backend="process"),
                          probe=sharded_metrics, binds={})
        assert_identical(sharded[1], reference[1])
        assert counters(sharded_metrics) == counters(serial_metrics)

    def test_float_sum_stays_bit_exact(self):
        """Float elements decline the vectorized fold; the boxed
        in-order fold reproduces serial rounding bit for bit."""
        sharded = agree(FLOAT_SUM,
                        DispatchConfig(min_cells=1, workers=3,
                                       backend="process"),
                        binds={"ar": FLOAT_ELEMENTS})
        assert sharded[0] == "value"


# ---------------------------------------------------------------------------
# kernels.execute_range / execute_elements units
# ---------------------------------------------------------------------------

class TestExecuteRange:

    def test_full_range_matches_execute(self):
        _kernels_required()
        kernel = kernels.recognize(KERNEL_TAB)
        assert kernel is not None
        full = kernels.execute(kernel, (24, 24), [])
        ranged = kernels.execute_range(kernel, (24, 24), [], 0, 24 * 24)
        assert ranged is not None
        assert list(ranged) == list(full.flat)

    def test_shard_concatenation_equals_full(self):
        _kernels_required()
        kernel = kernels.recognize(SKEWED_KERNEL)
        full = kernels.execute(kernel, (2, 600), [])
        pieces = []
        for lo, hi in parallel.split(1200, 3):
            piece = kernels.execute_range(kernel, (2, 600), [], lo, hi)
            assert piece is not None and piece.shape == (hi - lo,)
            pieces.extend(piece.tolist())
        assert pieces == list(full.flat)

    def test_range_with_subscript_operand(self):
        _kernels_required()
        kernel = kernels.recognize(GRID_TAB)
        full = kernels.execute(kernel, (64, 64), [GRID_OPERAND])
        piece = kernels.execute_range(kernel, (64, 64), [GRID_OPERAND],
                                      1000, 3000)
        assert piece is not None
        assert piece.tolist() == list(full.flat)[1000:3000]

    def test_range_declines_on_bottom_cell(self):
        """The poisoned body has a zero divisor inside the range that
        covers x=0 — the actual-value check declines."""
        _kernels_required()
        kernel = kernels.recognize(POISONED_KERNEL)
        assert kernels.execute_range(kernel, (160,), [], 0, 80) is None
        # away from x=0 the divisor grid is non-zero and the range runs
        assert kernels.execute_range(kernel, (160,), [], 1, 80) is not None

    def test_range_honours_kill_switch(self, monkeypatch):
        _kernels_required()
        kernel = kernels.recognize(KERNEL_TAB)
        monkeypatch.setattr(kernels, "ENABLED", False)
        assert kernels.execute_range(kernel, (24, 24), [], 0, 10) is None


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


# ---------------------------------------------------------------------------
# session / repl surface
# ---------------------------------------------------------------------------

class TestKernelMinCellsSurface:

    def test_session_kwarg(self):
        session = Session(kernel_min_cells=4096)
        assert session.env.parallel.kernel_min_cells == 4096

    def test_session_default_floor(self):
        session = Session()
        assert session.env.parallel.kernel_min_cells \
            == DEFAULT_KERNEL_MIN_CELLS

    @pytest.mark.parametrize("bad", [-1, True, "many", 1.5])
    def test_session_kwarg_rejects_bad_values(self, bad):
        with pytest.raises(SessionError):
            Session(kernel_min_cells=bad)

    def test_repl_status_shows_kernel_floor(self):
        session = Session()
        status = parallel_command(session, "")
        assert f"kernel_min_cells=" \
               f"{session.env.parallel.kernel_min_cells}" in status
