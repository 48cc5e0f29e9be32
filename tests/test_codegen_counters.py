"""Specialising the generated code must not move a single counter.

The statements are the benchmark suite's ``scalar_eval`` and
``netcdf_io`` rounds (``benchmarks/suite/workloads.py``) over small
inputs; ``GOLDEN`` holds what ``Session.explain`` reported for each on
the commit *before* the code generator specialised anything (default
configuration, numpy present).  Probed code keeps the general loop
shapes precisely so these stay put.

``SHARDED`` does the same for the dispatch policy: the suite's three
``dense_sharded`` statements over small inputs, under a 2-worker process
pool with the floor lowered.  The int Σ is pinned to what the commit
before ``DispatchConfig`` became the single static policy reported; the
two kernel-shaped tabulations report the serial kernel (the same
``cells_vectorized``, no shards) since kernels stopped running inside
shards — and ``test_dispatch_predicates_at_their_boundaries`` pins the
policy itself.
"""

import math
import os

import pytest

from repro.core import ast, kernels, parallel
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import (DEFAULT_MIN_CELLS, SPARSITY_FACTOR,
                                 DispatchConfig)
from repro.objects import dense
from repro.objects.array import Array
from repro.system.session import Session
from repro.types.types import TArray, TArrow, TNat, TProduct, TReal

DAYS = 3
KEYS = ("node_evals", "cells_materialized", "cells_vectorized",
        "joins_hashed", "join_pairs_matched", "join_pairs_skipped",
        "index_groupbys", "index_cells", "index_groups", "index_pairs",
        "index_sorted", "collections_touched", "collection_elements",
        "bottom_raises")

QUERIES = {
    "q1": r"""{d | \d <- gen!3,
         \WS' == evenpos!(proj_col!(WS, 0)),
         \TRW == zip_3!(T, RH, WS'),
         \A == subseq!(TRW, d*24, d*24+23),
         heatindex!(A) > threshold};""",
    "q2": r"""{d | [(\h, _, _) : \t] <- T3, \d == h/24 + 1,
         h % 24 > june_sunset!(NYlat, NYlon, d), t > 70.0};""",
    "join": r"{(a, b, c) | (\a, \b) <- R, (\a2, \c) <- S, a = a2};",
    "groupby": r"maparr!(count, index!P);",
    "hist2": r"hist2!H;",
    "positions": r"positions!(H, 3);",
    "cell-aggregate":
        r"[[ summap(fn \d => C[1+d, y, x])!(gen!2) / 2.0 | \y < 2, \x < 3 ]];",
    "int-sum": r"summap(fn \i => i % 7)!(gen!40);",
    "year-mean": r"summap(fn \d => Y[d*24+12, 1, 1])!(gen!3) / 3.0;",
    "slab-filter": r"{h / 24 | \h <- gen!48, T3[h, 0, 0] > threshold};",
    "slab-column": r"[[ T3[h, 0, 0] | \h < 48 ]];",
}

GOLDEN = {
    "q1": (2822, 288, 648, 0, 0, 0, 0, 0, 0, 0, 0, 21, 21, 0),
    "q2": (1365, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 299, 186, 0),
    "join": (363, 0, 0, 1, 30, 870, 0, 0, 0, 0, 0, 33, 120, 0),
    "groupby": (160, 10, 0, 0, 0, 0, 1, 10, 4, 60, 0, 21, 180, 0),
    "hist2": (408, 5, 0, 0, 0, 0, 1, 5, 4, 50, 0, 62, 250, 0),
    "positions": (354, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 102, 50, 0),
    "cell-aggregate": (117, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 12, 0),
    "int-sum": (123, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 40, 0),
    "year-mean": (32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0),
    "slab-filter": (483, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 98, 82, 0),
    "slab-column": (242, 48, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
}

SHARDED_KEYS = ("shards_executed", "shards_vectorized", "cells_vectorized",
                "joins_hashed", "index_sorted", "index_groupbys")

#: label -> (statement, counters in SHARDED_KEYS order, phases skipped)
SHARDED = {
    "grid": (r"[[ x*y+x | \x < 40, \y < 40 ]];", (0, 0, 1600, 0, 0, 0), {}),
    "gather": (r"[[ G[x, y] + 1 | \x < 40, \y < 40 ]];",
               (0, 0, 1600, 0, 0, 0), {}),
    "int-sum": (r"summap(fn \i => i % 7)!(gen!2000);",
                (2, 0, 0, 0, 0, 0), {}),
}


def _session(workdir) -> Session:
    hours = DAYS * 24
    session = Session()
    triples = TArray(TProduct((TReal(), TReal(), TReal())), 1)
    session.register_co(
        "heatindex",
        lambda day: max(t + 0.1 * (rh - 50.0) - 0.3 * min(ws, 25.0)
                        for t, rh, ws in day.flat),
        TArrow(triples, TReal()))
    session.register_co(
        "june_sunset", lambda args: 18 + args[2] % 2,
        TArrow(TProduct((TReal(), TReal(), TNat())), TNat()))
    temperature = [70.0 + 9.0 * math.cos(2 * math.pi * (h % 24 - 15) / 24.0)
                   + (6.0 if h // 24 == 1 else 0.0) for h in range(hours)]
    binds = {
        "T": Array((hours,), temperature),
        "RH": Array((hours,), [60.0 + h % 7 for h in range(hours)]),
        "WS": Array((hours * 2, 4), [float(c % 9) for c in range(hours * 8)]),
        "threshold": 79.5, "NYlat": 40.78, "NYlon": 73.97,
        "R": frozenset((k, k * 7 % 10) for k in range(30)),
        "S": frozenset(((k * 11) % 30, k % 5) for k in range(30)),
        "P": frozenset((k * k % 16, k) for k in range(60)),
        "H": Array((50,), [k * k % 7 for k in range(50)]),
        "C": Array((4, 2, 3), [float(c) for c in range(24)]),
        "year": Array((hours, 2, 2),
                      [temperature[c // 4] + c % 4 for c in range(hours * 4)]),
    }
    for name, value in binds.items():
        session.env.set_val(name, value)
    path = workdir / "temp.nc"
    session.run(f'writeval year using NETCDFW at ("{path}", "temp");')
    session.run(f'readval \\Y using NETCDF at ("{path}", "temp");')
    session.run(f'readval \\T3 using NETCDF3 at ("{path}", "temp", '
                f'(24, 1, 1), (71, 1, 1));')
    return session


def measure(workdir):
    """``{label: counters in KEYS order}`` for every query."""
    session = _session(workdir)
    found = {}
    for label, text in QUERIES.items():
        metrics = session.explain(text).to_dict()["metrics"]
        found[label] = tuple(metrics[key] for key in KEYS)
    return found


def test_explain_counters_equal_the_unspecialised_engine(tmp_path):
    if not kernels.available() or any(name.startswith("REPRO_")
                                      for name in os.environ):
        pytest.skip("the counters are pinned for the default configuration")
    found = measure(tmp_path)
    for label in QUERIES:
        assert dict(zip(KEYS, found[label])) == \
            dict(zip(KEYS, GOLDEN[label])), label


def test_sharded_counters_equal_the_pre_policy_engine():
    if not kernels.available() or not parallel.ENABLED \
            or any(name.startswith("REPRO_") for name in os.environ):
        pytest.skip("the counters are pinned for the default configuration")
    session = Session(parallel_workers=2, min_cells=16)
    session.env.set_val("G", Array((40, 40), [c * 7 % 11
                                              for c in range(1600)]))
    for label, (text, counters, skipped) in SHARDED.items():
        report = session.explain(text).to_dict()
        assert {key: report["metrics"][key] for key in SHARDED_KEYS} == \
            dict(zip(SHARDED_KEYS, counters)), label
        assert {name: stats["skipped"]
                for name, stats in report["phases"].items()
                if stats["skipped"]} == skipped, label


def test_dispatch_predicates_at_their_boundaries():
    """The whole policy, as a table: each predicate flips exactly at its
    threshold, and the defaults are the values every benchmark ran on."""
    assert (DEFAULT_MIN_CELLS, SPARSITY_FACTOR) == (64, 4)
    config = DispatchConfig()
    floor = config.min_cells
    table = [
        (config.wants_kernel(floor - 1), False),
        (config.wants_kernel(floor), True),
        (config.wants_shards(floor - 1), False),
        (config.wants_shards(floor), True),
        (config.wants_hash_join(floor - 1, 8), False),
        (config.wants_hash_join(floor, 2), True),
        (config.wants_hash_join(floor * floor, 1), False),   # |inner| = 1
        (config.wants_sorted_grouping(floor - 1, 1 << 20), False),
        (config.wants_sorted_grouping(floor, SPARSITY_FACTOR * floor), True),
        (config.wants_sorted_grouping(floor, SPARSITY_FACTOR * floor - 1),
         False),
    ]
    assert [got for got, _ in table] == [want for _, want in table]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_block_backed_subscript_loop_counts_every_read(rank):
    """One ``dense_hits`` per cell read off a block, whichever reader
    (``at1``/``at2``/``at3``/the general subscript) served it.  (Run on
    the engine directly: a session's plan cache hashes a bound array,
    which boxes it.)"""
    dims = (2, 3, 2, 2)[:rank]
    size = math.prod(dims)
    block = dense.probe_block(tuple(range(size)), dims)
    array = Array(dims, block.data if block is not None else range(size))
    if array.block is None:
        pytest.skip("dense store unavailable")
    names = [f"i{axis}" for axis in range(rank)]
    expr = ast.Subscript(ast.Var("D"), tuple(map(ast.Var, names)))
    for name, extent in reversed(list(zip(names, dims))):
        expr = ast.Sum(name, expr, ast.Gen(ast.NatLit(extent)))
    before = dense.COUNTERS.dense_hits
    value = CompiledEvaluator().run(expr, {"D": array})
    assert value == sum(range(size))
    assert dense.COUNTERS.dense_hits - before == size
