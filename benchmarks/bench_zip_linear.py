"""C1 — "we expect zip to take linear time in an array query language,
but in one without arrays it would ordinarily take quadratic time (the
time to do a cross product)" (Section 1).

The array ``zip`` is the Section 2 derivation (one tabulation over the
common index range).  The array-free simulation represents each array by
its graph ``{(i, v)}`` and zips by joining on the index — a cross
product with an equality filter, exactly the encoding a set language is
forced into.
"""

import pytest

from repro.core import ast
from repro.core import evaluate
from repro.expressiveness.array_elim import encode_value
from repro.objects.array import Array

from conftest import aql_core, median_time

V = ast.Var


def _array_zip_query(env):
    """``zip!(A, B)`` as a session runs it: normalized to the one
    tabulation ``[[ (A[i], B[i]) | i < min(len A, len B) ]]``."""
    return aql_core(env, "zip!(A, B)", optimize=True)


def _set_zip_query():
    """``{((x, y), i) | (i, x) ∈ GA, (j, y) ∈ GB, i = j}`` — the join."""
    p = ast.Var("p")
    q = ast.Var("q")
    pair = ast.TupleE((
        ast.TupleE((ast.Proj(2, 2, p), ast.Proj(2, 2, q))),
        ast.Proj(1, 2, p),
    ))
    inner = ast.Ext(
        "q",
        ast.If(ast.Cmp("=", ast.Proj(1, 2, p), ast.Proj(1, 2, q)),
               ast.Singleton(pair), ast.EmptySet()),
        V("GB"),
    )
    return ast.Ext("p", inner, V("GA"))


def _inputs(n):
    a = Array.from_list(list(range(n)))
    b = Array.from_list(list(range(n, 2 * n)))
    return a, b


@pytest.mark.benchmark(group="C1-zip-array")
@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_zip_with_arrays(benchmark, std_env, n):
    a, b = _inputs(n)
    expr = _array_zip_query(std_env)
    result = benchmark(lambda: evaluate(expr, {"A": a, "B": b}))
    assert result.dims == (n,)


@pytest.mark.benchmark(group="C1-zip-sets")
@pytest.mark.parametrize("n", [64, 128, 256])
def test_zip_without_arrays(benchmark, n):
    a, b = _inputs(n)
    env = {"GA": encode_value(a), "GB": encode_value(b)}
    expr = _set_zip_query()
    result = benchmark(lambda: evaluate(expr, env))
    assert len(result) == n


@pytest.mark.benchmark(group="C1-zip-shape")
def test_shape_array_zip_wins_and_gap_grows(benchmark, std_env):
    """The paper's claim: linear vs quadratic — the gap must widen with n."""
    array_expr = _array_zip_query(std_env)
    set_expr = _set_zip_query()
    ratios = []
    for n in (64, 256):
        a, b = _inputs(n)
        graphs = {"GA": encode_value(a), "GB": encode_value(b)}
        arrays = {"A": a, "B": b}
        t_array = median_time(lambda: evaluate(array_expr, arrays))
        t_set = median_time(lambda: evaluate(set_expr, graphs))
        ratios.append(t_set / t_array)
    assert ratios[0] > 2.0, f"set zip should lose already at n=64: {ratios}"
    assert ratios[1] > 2.0 * ratios[0], \
        f"the gap must grow superlinearly with n: {ratios}"
    # report the headline number through the benchmark table as well
    a, b = _inputs(256)
    benchmark(lambda: evaluate(array_expr, {"A": a, "B": b}))
