"""C7 — "Because index causes an implicit group-by, it can be used to
write more efficient code" (Section 2).

Grouping n (key, value) pairs with keys below m:

* via ``index``: one pass, O(m + n log n);
* via per-key filtering (the array-free style): a tabulation over m bins
  that scans the full set per bin, O(n·m).
"""

import pytest

from repro.core import ast, evaluate, setops
from repro.objects.array import index_set_stats

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


#: (n pairs, m key buckets): dense duplicate-heavy, near-distinct,
#: skewed (every pair in a handful of giant groups), and
#: holes-dominated (2k pairs scattered over a ~200k-cell extent — the
#: dict path allocates a frozenset per empty cell, the sorted path
#: shares one)
SORTED_SHAPES = [(2048, 1024), (20000, 4096), (20000, 8), (2000, 200000)]


@pytest.mark.benchmark(group="C7-groupby-sorted")
@pytest.mark.parametrize("n,m", SORTED_SHAPES,
                         ids=[f"{n}x{m}" for n, m in SORTED_SHAPES])
def test_sorted_vs_dict_grouping(benchmark, bench_record, n, m):
    """The sort-based path (docs/SETOPS.md) vs the naive dict path,
    identical results asserted down to frozenset hashes, timings
    recorded honestly in BENCH_index_groupby.json."""
    pairs = _pairs(n, m)
    fast_array, fast_groups, fast_max = setops.index_set_sorted(pairs, 1)
    naive_array, naive_groups, naive_max = index_set_stats(pairs, 1)
    assert (fast_groups, fast_max) == (naive_groups, naive_max)
    assert tuple(fast_array.dims) == tuple(naive_array.dims)
    for fast_cell, naive_cell in zip(fast_array.flat, naive_array.flat):
        assert fast_cell == naive_cell
        assert hash(fast_cell) == hash(naive_cell)

    t_sorted = median_time(lambda: setops.index_set_sorted(pairs, 1))
    t_dict = median_time(lambda: index_set_stats(pairs, 1))
    bench_record(
        seconds=t_sorted,
        dict_seconds=t_dict,
        ratio=round(t_dict / t_sorted, 2) if t_sorted > 0 else None,
        pairs=n,
        key_buckets=m,
        groups=fast_groups,
        max_group=fast_max,
    )
    benchmark(lambda: setops.index_set_sorted(pairs, 1))


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
