"""The numpy-vectorized tabulation backend (``repro.core.kernels``).

The contract under test (``docs/VECTOR_BACKEND.md``): whenever the
vectorized path runs, its result is *indistinguishable* from the scalar
loop's — identical ``Array.dims`` and ``flat``, identical Python scalar
types (never numpy scalars), identical hashes — and whenever it cannot
guarantee that (⊥-raising bodies, non-numeric elements, overflow risk,
numpy absent), evaluation falls back to the unchanged scalar loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import kernels
from repro.core.compile import CompiledEvaluator
from repro.errors import EvalError
from repro.obs.metrics import EvalMetrics
from repro.objects.array import Array

from conftest import agree

numpy_required = pytest.mark.skipif(
    kernels._np is None, reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _vectorization_on(monkeypatch):
    """Pin the kill switch on so a REPRO_NO_VECTORIZE=1 environment
    doesn't fail the tests that assert the fast path runs (tests that
    need it off flip it themselves)."""
    monkeypatch.setattr(kernels, "ENABLED", True)

#: a 10×10 domain: 100 cells, comfortably above kernels.MIN_CELLS
EXTENTS = (ast.NatLit(10), ast.NatLit(10))

INT_GRID = Array((10, 10), [(i * 13 + 7) % 23 for i in range(100)])
FLOAT_GRID = Array((10, 10), [float(i % 9) * 0.25 for i in range(100)])


def _tab(body, bounds=EXTENTS, vars=("x", "y")):
    return ast.Tabulate(vars, bounds, body)


# ---------------------------------------------------------------------------
# the hypothesis grammar: exactly the recognizer's kernel language
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from([
    ("var", "x"), ("var", "y"),
    ("nat", 0), ("nat", 1), ("nat", 3), ("nat", 17),
    ("real", 0.5), ("real", -2.25),
    ("sub", "A"), ("sub", "B"),
])

_BODIES = st.recursive(
    _LEAVES,
    lambda inner: st.tuples(
        st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner
    ),
    max_leaves=8,
)


def _build(tag) -> ast.Expr:
    if tag[0] == "var":
        return ast.Var(tag[1])
    if tag[0] == "nat":
        return ast.NatLit(tag[1])
    if tag[0] == "real":
        return ast.RealLit(tag[1])
    if tag[0] == "sub":
        return ast.Subscript(ast.Var(tag[1]), (ast.Var("x"), ast.Var("y")))
    op, left, right = tag
    return ast.Arith(op, _build(left), _build(right))


@numpy_required
class TestScalarVectorAgreement:
    """Property: both paths agree on every kernel-shaped body."""

    @settings(max_examples=120, deadline=None)
    @given(_BODIES)
    def test_random_kernels_agree(self, tag):
        # a ⊥ must carry the scalar loop's exact reason (fallback ran)
        agree(_tab(_build(tag)), binds={"A": INT_GRID, "B": FLOAT_GRID})

    def test_monus_clamps_like_the_scalar_loop(self):
        agree(_tab(ast.Arith("-", ast.Var("x"), ast.Var("y"))))

    def test_mixed_nat_real_promotes_to_float(self):
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.RealLit(0.5)))
        result = agree(expr)[1]
        assert all(type(cell) is float for cell in result.flat)

    def test_gather_from_bound_array(self):
        body = ast.Arith(
            "+",
            ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("y"))),
            ast.Arith("*", ast.Var("x"), ast.Var("y")),
        )
        agree(_tab(body), binds={"A": INT_GRID})


@numpy_required
class TestBottomFallsBackToScalar:
    """⊥-raising bodies must run the scalar loop and raise its error."""

    def test_division_by_zero(self):
        expr = _tab(ast.Arith("/", ast.Var("x"), ast.Var("y")))
        assert agree(expr) == ("bottom", "division by zero")

    def test_out_of_bounds_subscript(self):
        body = ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("x")))
        expr = ast.Tabulate(("x",), (ast.NatLit(100),), body)
        binds = {"A": Array((100, 50), list(range(5000)))}
        kind, reason = agree(expr, binds=binds)
        assert kind == "bottom"
        assert "out of bounds" in reason

    def test_real_modulo_is_bottom(self):
        expr = _tab(ast.Arith("%", ast.RealLit(1.5), ast.Var("x")))
        assert agree(expr)[0] == "bottom"


@numpy_required
class TestFallbackConditions:
    """Cases the executor must decline (and still compute correctly)."""

    def test_huge_ints_avoid_int64_overflow(self):
        big = 2 ** 40
        expr = _tab(ast.Arith(
            "*",
            ast.Arith("+", ast.Var("x"), ast.NatLit(big)),
            ast.Arith("+", ast.Var("y"), ast.NatLit(big)),
        ))
        result = agree(expr)[1]
        # exact Python bignum arithmetic, not wrapped int64
        assert result[(0, 0)] == big * big

    def test_mixed_element_array_falls_back(self):
        mixed = Array((10, 10), [0.5 if i % 2 else i for i in range(100)])
        body = ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("y")))
        agree(_tab(body), binds={"A": mixed})

    def test_unrecognizable_body_stays_scalar(self):
        body = ast.If(ast.BoolLit(True), ast.Var("x"), ast.Var("y"))
        assert kernels.recognize(_tab(body)) is None
        metrics = EvalMetrics()
        result = CompiledEvaluator(probe=metrics).run(_tab(body))
        assert result == Array((10, 10), [i // 10 for i in range(100)])
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == 100

    def test_small_domains_stay_scalar(self):
        expr = ast.Tabulate(("x",), (ast.NatLit(kernels.MIN_CELLS - 1),),
                            ast.Var("x"))
        metrics = EvalMetrics()
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == kernels.MIN_CELLS - 1


class TestNumpyAbsent:
    """With numpy gone (or the switch off) everything evaluates scalar."""

    def test_simulated_absence(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        assert not kernels.available()
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        result = agree(expr)[1]
        assert result == Array((10, 10),
                               [(i // 10) * (i % 10) for i in range(100)])

    def test_disabled_by_environment_switch(self, monkeypatch):
        monkeypatch.setattr(kernels, "ENABLED", False)
        metrics = EvalMetrics()
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == 100


@numpy_required
class TestObservability:
    def test_probe_counts_vectorized_cells(self):
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        metrics = EvalMetrics()
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 100
        assert metrics.tabulations_vectorized == 1
        assert metrics.cells_materialized == 0  # disjoint counters
        snapshot = metrics.to_dict()
        assert snapshot["cells_vectorized"] == 100
        assert snapshot["tabulations_vectorized"] == 1
        assert "cells vectorized" in metrics.render()

    def test_profile_reports_vectorized_cells(self, session):
        outputs = session.run(":profile [[i * j | \\i < 20, \\j < 20]];")
        report = outputs[-1].explain
        assert report is not None
        assert report.metrics.cells_vectorized == 400
        assert outputs[-1].value == Array(
            (20, 20), [i * j for i in range(20) for j in range(20)]
        )


@numpy_required
class TestKernelInternals:
    def test_recognize_collects_inputs_once(self):
        body = ast.Arith(
            "+",
            ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("y"))),
            ast.Var("n"),
        )
        kernel = kernels.recognize(_tab(body))
        assert kernel is not None
        names = [leaf.name for leaf in kernel.inputs
                 if isinstance(leaf, ast.Var)]
        assert set(names) == {"A", "n"}

    def test_index_var_subscript_rejected(self):
        # x[y] subscripts a nat — the scalar path raises, so decline
        body = ast.Subscript(ast.Var("x"), (ast.Var("y"),))
        assert kernels.recognize(_tab(body)) is None

    def test_dense_block_is_cached_on_the_array(self):
        grid = Array((10, 10), list(range(100)))
        block, lo, hi = kernels._dense_block(grid)
        assert (lo, hi) == (0, 99)
        assert kernels._dense_block(grid)[0] is block

    def test_non_numeric_array_marks_cache_negative(self):
        words = Array((2,), ["a", "b"])
        with pytest.raises(kernels._Fallback):
            kernels._dense_block(words)
        assert words._block is False  # probed once, declined, cached
        with pytest.raises(kernels._Fallback):
            kernels._dense_block(words)

    def test_execute_declines_without_numpy(self, monkeypatch):
        kernel = kernels.recognize(_tab(ast.Var("x")))
        monkeypatch.setattr(kernels, "_np", None)
        assert kernels.execute(kernel, (10, 10), []) is None

    def test_bool_elements_are_not_numeric(self):
        flags = Array((2,), [True, False])
        with pytest.raises(kernels._Fallback):
            kernels._dense_block(flags)
