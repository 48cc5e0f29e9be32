"""C7 — "Because index causes an implicit group-by, it can be used to
write more efficient code" (Section 2).

Grouping n (key, value) pairs with keys below m:

* via ``index``: one pass, O(m + n log n);
* via per-key filtering (the array-free style): a tabulation over m bins
  that scans the full set per bin, O(n·m).
"""

import pytest

from repro.core import ast, evaluate

from conftest import median_time

V = ast.Var
N = ast.NatLit


def _pairs(n, m):
    return frozenset((i * 2654435761 % m, i) for i in range(n))


def _index_groupby():
    return ast.IndexSet(V("S"), 1)


def _filter_groupby(m):
    """``[[ {v | (k, v) ∈ S, k = i} | i < m ]]`` — scan per bin."""
    p = ast.Var("p")
    body = ast.Ext(
        "p",
        ast.If(ast.Cmp("=", ast.Proj(1, 2, p), V("i")),
               ast.Singleton(ast.Proj(2, 2, p)), ast.EmptySet()),
        V("S"),
    )
    return ast.Tabulate(("i",), (N(m),), body)


@pytest.mark.benchmark(group="C7-groupby-index")
@pytest.mark.parametrize("n,m", [(128, 64), (512, 256), (2048, 1024)])
def test_groupby_via_index(benchmark, n, m):
    env = {"S": _pairs(n, m)}
    expr = _index_groupby()
    result = benchmark(lambda: evaluate(expr, env))
    assert sum(len(group) for group in result.flat) == n


@pytest.mark.benchmark(group="C7-groupby-filter")
@pytest.mark.parametrize("n,m", [(128, 64), (512, 256)])
def test_groupby_via_filtering(benchmark, n, m):
    env = {"S": _pairs(n, m)}
    expr = _filter_groupby(m)
    result = benchmark(lambda: evaluate(expr, env))
    assert sum(len(group) for group in result.flat) == n


@pytest.mark.benchmark(group="C7-groupby-shape")
def test_shape_index_wins_and_gap_grows(benchmark):
    ratios = []
    for n, m in ((128, 64), (512, 256)):
        env = {"S": _pairs(n, m)}
        indexed = _index_groupby()
        filtered = _filter_groupby(m)
        got_fast = evaluate(indexed, env)
        got_slow = evaluate(filtered, env)
        # same groups (the index result may be shorter: max key + 1)
        assert list(got_slow.flat[: len(got_fast.flat)]) == \
            list(got_fast.flat)
        t_fast = median_time(lambda: evaluate(indexed, env))
        t_slow = median_time(lambda: evaluate(filtered, env))
        ratios.append(t_slow / t_fast)
    assert ratios[0] > 2.0, f"index must win at the small size: {ratios}"
    assert ratios[1] > 2.0 * ratios[0], \
        f"O(nm) vs O(m + n log n): the gap must grow: {ratios}"
    env = {"S": _pairs(512, 256)}
    benchmark(lambda: evaluate(_index_groupby(), env))
