"""P6 — the plan cache on the repeated-query serving path.

The serving scenario the cache targets: one session answering the same
(macro-heavy) query over and over.  Cold path re-runs resolve →
typecheck → optimize → codegen each time; the hit path fetches the
optimized core and its generated closure from the plan cache and goes
straight to evaluation.  The benchmark
records both latencies (and the hit-path EXPLAIN report, which must
show *no* ``optimize`` span) into ``BENCH_plan_cache.json``.

No fixed speedup threshold is asserted — only the shape claims: hits
actually occur, and the hit path is faster than the cold path.
"""

from conftest import median_time

from repro.system.session import Session

#: macro-heavy so compilation (macro splicing + optimization) dominates
#: a cold run while evaluation stays small — the serving-path shape
QUERY = "trace!(matmul!(matmul!(M, transpose!(M)), identity_mat!3));"
SETUP = r"val \M = [[i * 3 + j + 1 | \i < 3, \j < 3]];"
EXPECTED = 285
REPEATS = 5


def _session(capacity: int) -> Session:
    session = Session(plan_cache_capacity=capacity)
    session.run(SETUP)
    return session


def test_repeated_query_hit_vs_cold(bench_record):
    """Hit-path latency beats the cold pipeline; hits show in counters."""
    cold = _session(capacity=0)
    cached = _session(capacity=128)
    assert cold.query_value(QUERY) == EXPECTED
    assert cached.query_value(QUERY) == EXPECTED   # warm the cache

    cold_seconds = median_time(lambda: cold.query_value(QUERY),
                               repeats=REPEATS)
    hit_seconds = median_time(lambda: cached.query_value(QUERY),
                              repeats=REPEATS)

    stats = cached.plan_cache.stats
    assert stats.hits >= REPEATS, "repeated queries must hit the cache"
    assert hit_seconds < cold_seconds, \
        "the hit path must beat the cold pipeline"

    # a hit also skips codegen: the entry retained a closure at its
    # first hit and serves that very evaluator from then on
    retained = [entry.evaluator
                for entry in cached.plan_cache._entries.values()
                if entry.evaluator is not None]
    assert retained, "the hit entry must hold its generated closure"
    assert cached.query_value(QUERY) == EXPECTED
    assert [entry.evaluator
            for entry in cached.plan_cache._entries.values()
            if entry.evaluator is not None] == retained

    # an instrumented hit: the report must show the cache probe and
    # evaluation but no optimize work at all
    report = cached.explain(QUERY)
    assert report.value == EXPECTED
    assert report.span("plan_cache").meta["hit"] is True
    assert report.span("optimize") is None
    assert report.span("evaluate") is not None

    bench_record(
        seconds=hit_seconds,
        explain=report,
        cold_seconds=cold_seconds,
        hit_seconds=hit_seconds,
        speedup=cold_seconds / hit_seconds,
        cache=cached.plan_cache.snapshot(),
    )
