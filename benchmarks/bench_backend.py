"""P3 (extension) — the code generator on the paper's own workloads.

The paper's architecture ends in a *code generator* (Section 3:
primitives are "known to the code generator so a more efficient query
plan can be generated").  The engine translates core expressions into
Python closures once; this benchmark times repeated evaluation of that
generated code, and the two fast paths it dispatches to (numpy kernels,
dense block handoff) against their own kill switches.
"""

import pytest

from repro.core import ast
from repro.core import builders as B
from repro.core.compile import CompiledEvaluator
from repro.objects.array import Array

from conftest import median_time

V = ast.Var

N_ELEMS = 1000


@pytest.fixture(scope="module")
def workloads():
    from repro.optimizer.engine import default_optimizer

    opt = default_optimizer()
    arr = Array.from_list([(i * 37) % 250 for i in range(N_ELEMS)])
    mat = Array((40, 40), [i % 97 for i in range(1600)])
    return {
        "hist-index": (opt.optimize(B.hist_fast(V("A"))), {"A": arr}),
        "reverse-map": (
            opt.optimize(B.map_array(
                lambda x: ast.Arith("+", x, ast.NatLit(1)),
                B.reverse(V("A")))),
            {"A": arr},
        ),
        "transpose": (opt.optimize(B.transpose(V("M"))), {"M": mat}),
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
    vectorized = runner.run(expr)  # also compiles, outside the timed region
    try:
        kernels.ENABLED = False
        scalar = runner.run(expr)
        t_scalar = median_time(lambda: runner.run(expr), repeats=3)
    finally:
        kernels.ENABLED = True
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


# ---------------------------------------------------------------------------
# the dense Array backing store (repro.objects.dense)
# ---------------------------------------------------------------------------

@pytest.mark.benchmark(group="dense-store-shape")
def test_shape_dense_store_pipeline(benchmark, bench_record):
    """Block handoff ≥2× on a chained 1000×1000 tabulate→subscript.

    With the store on, the first tabulation publishes its result buffer
    as the array's backing block and the gather kernel consumes it
    zero-copy — no ``tolist`` boxing anywhere on the path (asserted via
    the dense counters).  With ``STORE_ENABLED`` off (the seed's
    behavior), the intermediate array is boxed element-by-element and
    the second kernel re-scans and re-copies it on every run.
    """
    from repro.core import kernels
    from repro.objects import dense

    if not kernels.available() or not dense.store_enabled():
        pytest.skip("numpy absent or dense store disabled")

    n = 1000
    grid_expr = _dense_grid(n)
    chained_expr = ast.Tabulate(
        ("x", "y"), (ast.NatLit(n), ast.NatLit(n)),
        ast.Arith("+",
                  ast.Subscript(ast.Var("A"),
                                (ast.Var("x"), ast.Var("y"))),
                  ast.NatLit(1)))
    runner = CompiledEvaluator()

    def pipeline():
        produced = runner.run(grid_expr)
        return runner.run(chained_expr, {"A": produced})

    dense_out = pipeline()
    before = dense.COUNTERS.snapshot()
    pipeline()
    delta = {key: value - before[key]
             for key, value in dense.COUNTERS.snapshot().items()}
    # the acceptance criterion: nothing on the dense path boxes elements
    # or rescans an object tuple
    assert delta["materializations"] == 0, delta
    assert delta["blocks_probed"] == 0, delta

    t_dense = median_time(pipeline, repeats=3)
    try:
        dense.STORE_ENABLED = False
        boxed_out = pipeline()
        t_boxed = median_time(pipeline, repeats=3)
    finally:
        dense.STORE_ENABLED = True

    assert dense_out.dims == boxed_out.dims
    assert dense_out.flat == boxed_out.flat
    assert all(type(cell) is int for cell in dense_out.flat)

    speedup = t_boxed / t_dense
    bench_record(
        file="dense_store",
        seconds=t_dense,
        cells=n * n,
        seconds_boxed=t_boxed,
        seconds_dense=t_dense,
        speedup=round(speedup, 2),
        dense_path_materializations=delta["materializations"],
        dense_path_probes=delta["blocks_probed"],
    )
    assert speedup >= 2.0, (
        f"dense {t_dense:.4f}s vs boxed {t_boxed:.4f}s — "
        f"only {speedup:.1f}x"
    )
    benchmark(pipeline)
