"""C4 — the derived transpose rule (Section 5).

``transpose([[e | i<m, j<n]])`` normalizes to ``[[e | j<n, i<m]]`` using
only β, π, β^p, δ^p and bounds elimination; evaluation then tabulates
*once* instead of materializing the source matrix and re-reading it.
``transpose(transpose(M))`` normalizes to ``M`` — constant time.
"""

import pytest

from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer

from conftest import aql_core, median_time

ROWS, COLS = 60, 60

# The stdlib applications transpose!(...) do not normalize yet (the
# optimizer leaves β on a tabulation argument alone), so the claim is
# timed on the hand-expanded text: the macro body with the argument
# written in place of M, binders renamed apart from it.

_TAB = r"([[ i*%d + j | \i < %d, \j < %d ]])" % (COLS, ROWS, COLS)

#: transpose!([[ i*COLS + j | \i < ROWS, \j < COLS ]])
TRANSPOSE_OF_TAB = r"""
    let val (\p, \q) = dim_2!%s
    in [[ %s[a, b] | \b < q, \a < p ]] end""" % (_TAB, _TAB)

_T = r"(let val (\m, \n) = dim_2!M in [[ M[i, j] | \j < n, \i < m ]] end)"

#: transpose!(transpose!M)
TRANSPOSE_TWICE = r"""
    let val (\p, \q) = dim_2!%s
    in [[ %s[a, b] | \b < q, \a < p ]] end""" % (_T, _T)


@pytest.mark.benchmark(group="C4-transpose")
def test_transpose_of_tabulation_unoptimized(benchmark, std_env):
    expr = aql_core(std_env, TRANSPOSE_OF_TAB)
    result = benchmark(lambda: evaluate(expr))
    assert result.dims == (COLS, ROWS)


@pytest.mark.benchmark(group="C4-transpose")
def test_transpose_of_tabulation_optimized(benchmark, std_env):
    expr = default_optimizer().optimize(aql_core(std_env, TRANSPOSE_OF_TAB))
    result = benchmark(lambda: evaluate(expr))
    assert result.dims == (COLS, ROWS)


@pytest.mark.benchmark(group="C4-transpose")
def test_double_transpose_optimized(benchmark, std_env):
    expr = default_optimizer().optimize(aql_core(std_env, TRANSPOSE_TWICE))
    matrix = Array((ROWS, COLS), range(ROWS * COLS))
    result = benchmark(lambda: evaluate(expr, {"M": matrix}))
    assert result is matrix  # η^p reduced the whole pipeline to M itself


@pytest.mark.benchmark(group="C4-transpose-shape")
def test_shape_materialization_avoided(benchmark, std_env):
    raw = aql_core(std_env, TRANSPOSE_OF_TAB)
    optimized = default_optimizer().optimize(raw)
    assert evaluate(raw) == evaluate(optimized)
    t_raw = median_time(lambda: evaluate(raw))
    t_opt = median_time(lambda: evaluate(optimized))
    assert t_raw > 1.4 * t_opt, (
        "the normalized transpose must avoid the intermediate matrix: "
        f"{t_raw:.4f}s vs {t_opt:.4f}s"
    )
    benchmark(lambda: evaluate(optimized))
