"""C2 — the histogram pair of Section 2.

"The first version takes at least O(n·m), where n is the length of e and
m is the maximum value in e. ... the second version takes O(m + n log n)"
— ``index`` performs the group-by once instead of re-scanning the array
for every bin.
"""

import pytest

from repro.objects.array import Array

from conftest import aql_core, median_time


def _data(n, m):
    """n values spread over 0..m-1, deterministic."""
    return Array.from_list([(i * 2654435761) % m for i in range(n)])


@pytest.mark.benchmark(group="C2-hist-naive")
@pytest.mark.parametrize("n,m", [(64, 64), (128, 128), (256, 256)])
def test_hist_naive(benchmark, std_env, n, m):
    arr = _data(n, m)
    expr = aql_core(std_env, "hist!A")
    result = benchmark(lambda: std_env.evaluator().run(expr, {"A": arr}))
    assert sum(result.flat) == n


@pytest.mark.benchmark(group="C2-hist-index")
@pytest.mark.parametrize("n,m", [(64, 64), (128, 128), (256, 256),
                                 (1024, 1024)])
def test_hist_index(benchmark, std_env, n, m):
    arr = _data(n, m)
    expr = aql_core(std_env, "hist2!A")
    result = benchmark(lambda: std_env.evaluator().run(expr, {"A": arr}))
    assert sum(result.flat) == n


@pytest.mark.benchmark(group="C2-hist-shape")
def test_shape_index_histogram_wins_and_gap_grows(benchmark, std_env):
    slow_expr = aql_core(std_env, "hist!A")
    fast_expr = aql_core(std_env, "hist2!A")

    def evaluate(expr, binds):
        return std_env.evaluator().run(expr, binds)

    ratios = []
    for n in (64, 256):
        arr = _data(n, n)
        assert evaluate(slow_expr, {"A": arr}) == \
            evaluate(fast_expr, {"A": arr})
        t_slow = median_time(lambda: evaluate(slow_expr, {"A": arr}))
        t_fast = median_time(lambda: evaluate(fast_expr, {"A": arr}))
        ratios.append(t_slow / t_fast)
    assert ratios[0] > 1.5, f"hist' must already win at n=m=64: {ratios}"
    assert ratios[1] > 1.5 * ratios[0], \
        f"O(nm) vs O(m + n log n): the gap must grow: {ratios}"
    arr = _data(256, 256)
    benchmark(lambda: evaluate(fast_expr, {"A": arr}))
