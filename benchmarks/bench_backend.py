"""P3 (extension) — the code generator on the paper's own workloads.

The paper's architecture ends in a *code generator* (Section 3:
primitives are "known to the code generator so a more efficient query
plan can be generated").  The engine translates core expressions into
Python closures once; this benchmark times repeated evaluation of that
generated code, and the numpy kernel path against the scalar loop it
replaces (the same engine with a floor no tabulation reaches).
"""

import sys

import pytest

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DispatchConfig
from repro.objects.array import Array

from conftest import aql_core, median_time

V = ast.Var

N_ELEMS = 1000


@pytest.fixture(scope="module")
def workloads(std_env):
    arr = Array.from_list([(i * 37) % 250 for i in range(N_ELEMS)])
    mat = Array((40, 40), [i % 97 for i in range(1600)])

    def optimized(source):
        return aql_core(std_env, source, optimize=True)

    return {
        "hist-index": (optimized("hist2!A"), {"A": arr}),
        "reverse-map": (optimized(r"maparr!(fn \x => x + 1, reverse!A)"),
                        {"A": arr}),
        "transpose": (optimized("transpose!M"), {"M": mat}),
        "sum-squares": (
            ast.Sum("x", ast.Arith("*", V("x"), V("x")),
                    ast.Gen(ast.NatLit(N_ELEMS))),
            {},
        ),
    }


@pytest.mark.benchmark(group="P3-backend")
@pytest.mark.parametrize("name", ["hist-index", "reverse-map",
                                  "transpose", "sum-squares"])
def test_engine(benchmark, workloads, name):
    expr, env = workloads[name]
    runner = CompiledEvaluator()
    runner.run(expr, env)  # compile once, outside the timed region
    benchmark(lambda: runner.run(expr, env))


# ---------------------------------------------------------------------------
# the numpy-vectorized tabulation backend (repro.core.kernels)
# ---------------------------------------------------------------------------

def _dense_grid(n: int) -> ast.Expr:
    """``[[ x*y | x < n, y < n ]]`` — the canonical dense numeric kernel."""
    return ast.Tabulate(
        ("x", "y"), (ast.NatLit(n), ast.NatLit(n)),
        ast.Arith("*", ast.Var("x"), ast.Var("y")),
    )


@pytest.mark.benchmark(group="vector-backend-shape")
def test_shape_vectorized_tabulation(benchmark, bench_record):
    """Vectorized ≥5× faster than scalar on a 1000×1000 x*y grid.

    The two paths must also agree value-for-value (same dims, same
    flat tuple of exact Python ints), and the observability counters
    must attribute every cell to the vectorized side.
    """
    from repro.core import kernels
    from repro.obs.metrics import EvalMetrics

    if not kernels.available():
        pytest.skip("numpy not available: no vectorized path to measure")

    n = 1000
    expr = _dense_grid(n)
    runner = CompiledEvaluator()
    scalar_runner = CompiledEvaluator(
        dispatch=DispatchConfig(min_cells=sys.maxsize))
    vectorized = runner.run(expr)  # also compiles, outside the timed region
    scalar = scalar_runner.run(expr)
    t_scalar = median_time(lambda: scalar_runner.run(expr), repeats=3)
    t_vectorized = median_time(lambda: runner.run(expr), repeats=3)

    assert vectorized.dims == scalar.dims
    assert vectorized.flat == scalar.flat
    assert all(type(cell) is int for cell in vectorized.flat)

    metrics = EvalMetrics()
    CompiledEvaluator(probe=metrics).run(expr)
    assert metrics.cells_vectorized == n * n
    assert metrics.cells_materialized == 0

    speedup = t_scalar / t_vectorized
    bench_record(
        file="vector_backend",
        seconds=t_vectorized,
        cells=n * n,
        seconds_scalar=t_scalar,
        seconds_vectorized=t_vectorized,
        speedup=round(speedup, 2),
        cells_vectorized=metrics.cells_vectorized,
    )
    assert speedup >= 5.0, (
        f"vectorized {t_vectorized:.4f}s vs scalar "
        f"{t_scalar:.4f}s — only {speedup:.1f}x"
    )
    benchmark(lambda: runner.run(expr))
