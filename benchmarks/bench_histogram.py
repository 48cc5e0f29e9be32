"""C2 — the histogram pair of Section 2.

"The first version takes at least O(n·m), where n is the length of e and
m is the maximum value in e. ... the second version takes O(m + n log n)"
— ``index`` performs the group-by once instead of re-scanning the array
for every bin.
"""

import pytest

from repro.core import ast
from repro.core.builders import hist, hist_fast
from repro.core import evaluate
from repro.objects.array import Array

from conftest import median_time

V = ast.Var


def _data(n, m):
    """n values spread over 0..m-1, deterministic."""
    return Array.from_list([(i * 2654435761) % m for i in range(n)])


@pytest.mark.benchmark(group="C2-hist-naive")
@pytest.mark.parametrize("n,m", [(64, 64), (128, 128), (256, 256)])
def test_hist_naive(benchmark, n, m):
    arr = _data(n, m)
    expr = hist(V("A"))
    result = benchmark(lambda: evaluate(expr, {"A": arr}))
    assert sum(result.flat) == n


@pytest.mark.benchmark(group="C2-hist-index")
@pytest.mark.parametrize("n,m", [(64, 64), (128, 128), (256, 256),
                                 (1024, 1024)])
def test_hist_index(benchmark, n, m):
    arr = _data(n, m)
    expr = hist_fast(V("A"))
    result = benchmark(lambda: evaluate(expr, {"A": arr}))
    assert sum(result.flat) == n


@pytest.mark.benchmark(group="C2-hist-shape")
def test_shape_index_histogram_wins_and_gap_grows(benchmark):
    slow_expr = hist(V("A"))
    fast_expr = hist_fast(V("A"))
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
