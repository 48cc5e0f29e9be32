"""Specialising the generated code must not move a single counter.

The statements are the benchmark suite's ``scalar_eval`` and
``netcdf_io`` rounds (``benchmarks/suite/workloads.py``) over small
inputs; ``GOLDEN`` holds what ``Session.explain`` reported for each on
the commit *before* the code generator specialised anything (default
configuration, numpy present).  Probed code keeps the general loop
shapes precisely so these stay put.

``SHARDED`` does the same for the dispatch policy: the suite's three
``dense_sharded`` statements over small inputs with the floor lowered,
once under the session keywords that used to ask for a 2-worker process
pool and once without them.  Every statement runs in-process either
way, so both sessions report the same values and counters: the two
tabulations and the int ``Σ`` each run as one kernel, the ``Σ``
counting its ``n`` terms as vectorized cells — and
``test_dispatch_predicates_at_their_boundaries`` pins the policy
itself.  Every ``Σ`` in ``GOLDEN`` is below the default floor, so the
``Σ`` kernel leaves it where it was.
"""

import importlib.util
import math

import pytest

from conftest import outcome, reference_outcome
from repro.core import ast, kernels
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DEFAULT_MIN_CELLS, DispatchConfig
from repro.errors import SessionError
from repro.objects import dense
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.obs.metrics import EvalMetrics
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
    # since the motion phase floats q1's two `:==` bindings out of its
    # days loop; the unspecialised engine on the unfloated plan reported
    # (2822, 288, 648, 0, 0, 0, 0, 0, 0, 0, 0, 21, 21, 0), and since a λ
    # is not hoisted, evenpos is a binding, not a hoisted closure's call:
    # (1318, 144, 216, 0, 0, 0, 0, 0, 0, 0, 0, 13, 17, 0)
    "q1": (1315, 144, 216, 0, 0, 0, 0, 0, 0, 0, 0, 12, 15, 0),
    "q2": (1365, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 299, 186, 0),
    "join": (363, 0, 0, 1, 30, 870, 0, 0, 0, 0, 0, 33, 120, 0),
    # since each cell's count runs in the grouping pass, neither reads
    # a cell nor builds a group's set (the index_* counters stay); the
    # group-then-count plans reported
    # (160, 10, 0, 0, 0, 0, 1, 10, 4, 60, 0, 21, 180, 0) and
    # (408, 5, 0, 0, 0, 0, 1, 5, 4, 50, 0, 62, 250, 0)
    "groupby": (3, 0, 0, 0, 0, 0, 1, 10, 4, 60, 0, 1, 60, 0),
    "hist2": (306, 0, 0, 0, 0, 0, 1, 5, 4, 50, 0, 52, 150, 0),
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
                (0, 0, 2000, 0, 0, 0), {}),
}


V, N = ast.Var, ast.NatLit

LOOP_KEYS = ("node_evals", "collections_touched", "collection_elements",
             "max_collection_size", "bottom_raises")

#: a bag with repeated elements and a set, for :data:`LOOPS`
LOOP_BINDS = {"B": Bag([3, 1, 3, 2, 1, 3]), "S": frozenset({5, 3, 9})}


def _pair(*items):
    return ast.TupleE(tuple(items))


def _on_two(var, then):
    """``if var = 2 then ⊥ else then``."""
    return ast.If(ast.Cmp("=", V(var), N(2)), ast.Bottom("two"), then)


#: Section 6's ⊎, ⋃_r and ⊎_r as hand-built cores: nested sources, empty
#: sources, a bag with repeated elements, a filter and a ⊥ mid-loop
LOOPS = {
    "bag-ext": ast.BagExt("x", ast.SingletonBag(
        ast.Arith("+", V("x"), N(1))), V("B")),
    "bag-ext-nested": ast.BagExt(
        "x", ast.BagExt("y", ast.SingletonBag(_pair(V("x"), V("y"))),
                        V("B")),
        ast.BagExt("z", ast.SingletonBag(ast.Arith("%", V("z"), N(2))),
                   V("B"))),
    "bag-ext-empty": ast.BagExt("x", ast.SingletonBag(V("x")),
                                ast.EmptyBag()),
    "bag-ext-gen": ast.BagExt("x", ast.SingletonBag(
        ast.Arith("/", V("x"), N(2))), ast.Gen(N(5))),
    "bag-ext-bottom": ast.BagExt("x", _on_two(
        "x", ast.SingletonBag(V("x"))), V("B")),
    "ext-rank": ast.ExtRank("x", "i", ast.Singleton(_pair(V("x"), V("i"))),
                            V("S")),
    "ext-rank-filtered": ast.ExtRank("x", "i", ast.If(
        ast.Cmp(">", V("i"), N(1)), ast.Singleton(V("x")), ast.EmptySet()),
        V("S")),
    "ext-rank-nested": ast.ExtRank(
        "x", "i", ast.Ext("y", ast.Singleton(_pair(V("y"), V("i"))),
                          V("x")),
        ast.ExtRank("y", "j", ast.Singleton(ast.Gen(V("j"))), V("S"))),
    "ext-rank-empty": ast.ExtRank("x", "i", ast.Singleton(V("i")),
                                  ast.EmptySet()),
    "ext-rank-gen": ast.ExtRank("x", "i", ast.Singleton(
        ast.Arith("*", V("x"), V("i"))), ast.Gen(N(4))),
    "ext-rank-bottom": ast.ExtRank("x", "i", _on_two(
        "i", ast.Singleton(V("x"))), V("S")),
    "bag-ext-rank": ast.BagExtRank("x", "i", ast.SingletonBag(
        _pair(V("x"), V("i"))), V("B")),
    "bag-ext-rank-nested": ast.BagExtRank(
        "x", "i", ast.SingletonBag(V("i")),
        ast.BagExtRank("y", "j", ast.SingletonBag(
            ast.Arith("%", V("j"), N(3))), V("B"))),
    "bag-ext-rank-empty": ast.BagExtRank("x", "i", ast.SingletonBag(V("x")),
                                         ast.EmptyBag()),
    "bag-ext-rank-bottom": ast.BagExtRank("x", "i", _on_two(
        "i", ast.SingletonBag(V("x"))), V("B")),
}

#: what the probe of ``CompiledEvaluator`` reported for each of
#: :data:`LOOPS` when a runtime helper called a ``def`` of the body per
#: element: the ``LOOP_KEYS`` and then ``nodes_by_class`` as ``kind:count``
LOOP_COUNTERS = {
    "bag-ext": (26, 8, 18, 6, 0,
        "Arith:6 BagExt:1 NatLit:6 SingletonBag:6 Var:7"),
    "bag-ext-nested": (183, 57, 162, 36, 0,
        "Arith:6 BagExt:8 NatLit:6 SingletonBag:42 TupleE:36 Var:85"),
    "bag-ext-empty": (2, 2, 0, 0, 0,
        "BagExt:1 EmptyBag:1"),
    "bag-ext-gen": (23, 7, 15, 5, 0,
        "Arith:5 BagExt:1 Gen:1 NatLit:6 SingletonBag:5 Var:5"),
    "bag-ext-bottom": (37, 11, 16, 6, 1,
        "BagExt:1 Bottom:1 Cmp:6 If:6 NatLit:6 SingletonBag:5 Var:12"),
    "ext-rank": (14, 5, 9, 3, 0,
        "ExtRank:1 Singleton:3 TupleE:3 Var:7"),
    "ext-rank-filtered": (19, 8, 9, 3, 0,
        "Cmp:3 EmptySet:1 ExtRank:1 If:3 NatLit:3 Singleton:2 Var:6"),
    "ext-rank-nested": (42, 21, 39, 6, 0,
        "Ext:3 ExtRank:2 Gen:3 Singleton:9 TupleE:6 Var:19"),
    "ext-rank-empty": (2, 2, 0, 0, 0,
        "EmptySet:1 ExtRank:1"),
    "ext-rank-gen": (19, 6, 12, 4, 0,
        "Arith:4 ExtRank:1 Gen:1 NatLit:1 Singleton:4 Var:8"),
    "ext-rank-bottom": (13, 3, 5, 3, 1,
        "Bottom:1 Cmp:2 ExtRank:1 If:2 NatLit:2 Singleton:1 Var:4"),
    "bag-ext-rank": (26, 8, 18, 6, 0,
        "BagExtRank:1 SingletonBag:6 TupleE:6 Var:13"),
    "bag-ext-rank-nested": (39, 15, 30, 6, 0,
        "Arith:6 BagExtRank:2 NatLit:6 SingletonBag:12 Var:13"),
    "bag-ext-rank-empty": (2, 2, 0, 0, 0,
        "BagExtRank:1 EmptyBag:1"),
    "bag-ext-rank-bottom": (13, 3, 8, 6, 1,
        "BagExtRank:1 Bottom:1 Cmp:2 If:2 NatLit:2 SingletonBag:1 Var:4"),
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
    if not kernels.available():
        pytest.skip("the counters are pinned with numpy present")
    found = measure(tmp_path)
    for label in QUERIES:
        assert dict(zip(KEYS, found[label])) == \
            dict(zip(KEYS, GOLDEN[label])), label


@pytest.mark.parametrize("label", list(LOOPS))
def test_bag_and_ranked_loop_counters(label):
    """The bag and ranked loops count what they counted as runtime
    helpers, and return the reference evaluator's value or ⊥."""
    probe = EvalMetrics()
    got = outcome(LOOPS[label], None, probe, LOOP_BINDS)
    assert got == reference_outcome(LOOPS[label], LOOP_BINDS)
    found = probe.to_dict()
    nodes = " ".join(f"{kind}:{n}" for kind, n in
                     sorted(found["nodes_by_class"].items()))
    assert (*(found[key] for key in LOOP_KEYS), nodes) == \
        LOOP_COUNTERS[label]


def test_sharded_counters_equal_the_pre_policy_engine():
    """The retired ``parallel_workers``/``parallel_backend`` keywords
    are accepted and change nothing: no executor module is left for
    them to select."""
    assert importlib.util.find_spec("repro.core.parallel") is None
    with pytest.raises(SessionError):
        Session(parallel_backend="thread")
    grid = Array((40, 40), [c * 7 % 11 for c in range(1600)])
    retired = Session(parallel_workers=2, parallel_backend="process",
                      min_cells=16)
    plain = Session(min_cells=16)
    for session in (retired, plain):
        session.env.set_val("G", grid)
    pinned = kernels.available()
    for label, (text, counters, skipped) in SHARDED.items():
        report, expected = retired.explain(text), plain.explain(text)
        assert report.value == expected.value, label
        assert report.metrics.to_dict() == expected.metrics.to_dict(), label
        if not pinned:  # the counters are pinned with numpy present
            continue
        found = report.to_dict()
        assert {key: found["metrics"][key] for key in SHARDED_KEYS} == \
            dict(zip(SHARDED_KEYS, counters)), label
        assert {name: stats["skipped"]
                for name, stats in found["phases"].items()
                if stats["skipped"]} == skipped, label


def test_dispatch_predicates_at_their_boundaries():
    """The whole policy, as a table: each predicate flips exactly at its
    threshold, and the default is the value every benchmark ran on."""
    assert DEFAULT_MIN_CELLS == 64
    config = DispatchConfig()
    floor = config.min_cells
    table = [
        (config.wants_kernel(floor - 1), False),
        (config.wants_kernel(floor), True),
        (config.wants_hash_join(floor - 1, 8), False),
        (config.wants_hash_join(floor, 2), True),
        (config.wants_hash_join(floor * floor, 1), False),   # |inner| = 1
    ]
    assert [got for got, _ in table] == [want for _, want in table]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_block_backed_subscript_loop_counts_every_read(rank):
    """One ``dense_hits`` per cell read off a block, whichever reader
    (``at1``/``at2``/``at3``/the general subscript) served it.  (Run on
    the engine directly, with ``D`` bound by name: a session boxes a val
    that a kernel's fallback loop reads cell by cell, at the loop's
    head.)"""
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


def _matmul_metrics(extent):
    session = Session()
    cells = extent * extent
    session.env.set_val("M", Array((extent, extent),
                                   [c % 13 for c in range(cells)]))
    session.env.set_val("N", Array((extent, extent),
                                   [c % 11 for c in range(cells)]))
    return session.explain("matmul!(M, N);").to_dict()["metrics"]


def test_matmul_counts_its_grid_not_its_terms():
    """§2's ``multiply`` is one kernel over the result grid: its ``Σ``
    is an axis of that kernel, so the work the probe sees does not grow
    with the inner extent."""
    if not kernels.available():
        pytest.skip("the counters are pinned with numpy present")
    small, large = _matmul_metrics(30), _matmul_metrics(120)
    assert large["cells_vectorized"] == 120 * 120
    assert large["cells_materialized"] == 0
    assert large["node_evals"] == small["node_evals"]


@pytest.mark.parametrize("n", [DEFAULT_MIN_CELLS - 1, DEFAULT_MIN_CELLS, 5000])
def test_top_level_sum_counts_its_terms(n):
    """A ``Σ`` over ``gen!n`` at or above the floor vectorizes its ``n``
    terms; below it, the loop runs and nothing is vectorized."""
    if not kernels.available():
        pytest.skip("the counters are pinned with numpy present")
    report = Session().explain(rf"summap(fn \i => i % 7)!(gen!{n});")
    assert report.value == sum(i % 7 for i in range(n))
    assert report.to_dict()["metrics"]["cells_vectorized"] == (
        n if n >= DEFAULT_MIN_CELLS else 0)


def test_profiling_a_hit_runs_the_kept_plan(tmp_path):
    """EXPLAIN of a plan-cache hit probes the plan the cache keeps (typed
    from the optimized core), not the guarded text of a miss: the same
    counters, and none of the guards its types prove, such as the
    ``_HashKey`` wrapping of the nat-keyed ``join``."""
    session = _session(tmp_path)
    for label, text in QUERIES.items():
        miss, hit = session.explain(text), session.explain(text)
        assert hit.cache["hits"] > miss.cache["hits"], label
        assert hit.to_dict()["metrics"] == miss.to_dict()["metrics"], label
        if label == "join":
            assert "_HashKey(" in miss.code
            assert "_HashKey(" not in hit.code
