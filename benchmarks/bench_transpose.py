"""C4 — the derived transpose rule (Section 5).

``transpose([[e | i<m, j<n]])`` normalizes to ``[[e | j<n, i<m]]`` using
only β, π, β^p, δ^p and bounds elimination; evaluation then tabulates
*once* instead of materializing the source matrix and re-reading it.
``transpose(transpose(M))`` normalizes to ``M`` — constant time.
"""

import pytest

from repro.core import ast
from repro.core.builders import transpose
from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer

from conftest import median_time

V = ast.Var
N = ast.NatLit

ROWS, COLS = 60, 60


def _tabulation():
    body = ast.Arith("+", ast.Arith("*", V("i"), N(COLS)), V("j"))
    return ast.Tabulate(("i", "j"), (N(ROWS), N(COLS)), body)


@pytest.mark.benchmark(group="C4-transpose")
def test_transpose_of_tabulation_unoptimized(benchmark):
    expr = transpose(_tabulation())
    result = benchmark(lambda: evaluate(expr))
    assert result.dims == (COLS, ROWS)


@pytest.mark.benchmark(group="C4-transpose")
def test_transpose_of_tabulation_optimized(benchmark):
    expr = default_optimizer().optimize(transpose(_tabulation()))
    result = benchmark(lambda: evaluate(expr))
    assert result.dims == (COLS, ROWS)


@pytest.mark.benchmark(group="C4-transpose")
def test_double_transpose_optimized(benchmark):
    expr = default_optimizer().optimize(transpose(transpose(V("M"))))
    matrix = Array((ROWS, COLS), range(ROWS * COLS))
    result = benchmark(lambda: evaluate(expr, {"M": matrix}))
    assert result is matrix  # η^p reduced the whole pipeline to M itself


@pytest.mark.benchmark(group="C4-transpose-shape")
def test_shape_materialization_avoided(benchmark):
    raw = transpose(_tabulation())
    optimized = default_optimizer().optimize(raw)
    assert evaluate(raw) == evaluate(optimized)
    t_raw = median_time(lambda: evaluate(raw))
    t_opt = median_time(lambda: evaluate(optimized))
    assert t_raw > 1.4 * t_opt, (
        "the normalized transpose must avoid the intermediate matrix: "
        f"{t_raw:.4f}s vs {t_opt:.4f}s"
    )
    benchmark(lambda: evaluate(optimized))
