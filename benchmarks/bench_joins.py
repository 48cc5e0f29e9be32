"""Hash equi-join execution vs the naive nested loops (docs/SETOPS.md).

The optimizer's NRC rules leave a relational join in filter-promotion
normal form — ``ext{λx. ext{λy. if κ(x) = κ'(y) then {e} else {}}(T)}(S)``
— which the naive loops execute as |S|·|T| condition evaluations.
The set-engine fast path (:mod:`repro.core.setops`) builds a hash index
on the smaller side and evaluates the match body only for key-equal
pairs: O(|S| + |T| + matches).

This benchmark measures that claim at 2000×2000
(4,000,000 candidate pairs, ~2,000 matches).  The naive run is timed
once (it is the whole point that it is slow); the asserted ≥5× factor
is gated on the full-size input so the small smoke size never flakes.
Timings, probe counters (pairs matched/skipped), and the measured
speedups land in ``benchmarks/BENCH_joins.json``.
"""

import pytest

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DispatchConfig
from repro.obs.metrics import EvalMetrics

from conftest import median_time

V = ast.Var

#: the ≥5× speedup is asserted at this many candidate pairs and above;
#: smaller runs are recorded as measured (dispatch overhead dominates)
ASSERT_FLOOR = 4_000_000

SIZES = [(200, 200), (2000, 2000)]


def _relations(n, m):
    """Two n/m-row relations keyed into ``max(n, m)`` buckets."""
    keys = max(n, m)
    s = frozenset((i * 2654435761 % keys, i) for i in range(n))
    t = frozenset((j * 40503 % keys, 10_000_000 + j) for j in range(m))
    return s, t


def _join_query():
    """``⋃{⋃{if π₁x = π₁y then {(π₂x, π₂y)} else {} | y ∈ T} | x ∈ S}``."""
    x, y = V("x"), V("y")
    cond = ast.Cmp("=", ast.Proj(1, 2, x), ast.Proj(1, 2, y))
    body = ast.Singleton(ast.TupleE((ast.Proj(2, 2, x),
                                     ast.Proj(2, 2, y))))
    inner = ast.Ext("y", ast.If(cond, body, ast.EmptySet()), V("T"))
    return ast.Ext("x", inner, V("S"))


def _run(env, config, probe=None):
    return CompiledEvaluator(probe=probe, parallel=config) \
        .run(_join_query(), env)


@pytest.mark.benchmark(group="setops-hash-join")
@pytest.mark.parametrize("n,m", SIZES,
                         ids=[f"{n}x{m}" for n, m in SIZES])
def test_hash_join_vs_naive(benchmark, bench_record, n, m):
    s, t = _relations(n, m)
    env = {"S": s, "T": t}
    fast_config = DispatchConfig(min_cells=64, workers=0)
    naive_config = DispatchConfig(min_cells=64, workers=0, setops=False)

    # correctness first: the fast path must be indistinguishable, and
    # the probe must prove the hash path actually ran
    metrics = EvalMetrics()
    fast_result = _run(env, fast_config, probe=metrics)
    naive_result = _run(env, naive_config)
    assert fast_result == naive_result
    assert metrics.joins_hashed == 1
    assert metrics.join_pairs_matched + metrics.join_pairs_skipped == n * m

    t_fast = median_time(lambda: _run(env, fast_config), repeats=3)
    # the naive quadratic loop is timed once: at full size it costs
    # seconds per run, and the comparison needs one honest sample
    t_naive = median_time(lambda: _run(env, naive_config), repeats=1)
    speedup = t_naive / t_fast if t_fast > 0 else float("inf")

    bench_record(
        seconds=t_fast,
        rows=[n, m],
        candidate_pairs=n * m,
        pairs_matched=metrics.join_pairs_matched,
        pairs_skipped=metrics.join_pairs_skipped,
        result_rows=len(fast_result),
        naive_seconds=t_naive,
        speedup=round(speedup, 2),
    )
    if n * m >= ASSERT_FLOOR:
        assert speedup >= 5.0, (
            f"hash join must beat the {n}x{m} nested loops by >=5x, "
            f"got {speedup:.2f}x ({t_naive:.3f}s vs {t_fast:.3f}s)")
    benchmark(lambda: _run(env, fast_config))
