"""C1, C2, C5, C7, C8 — the paper's complexity claims, as operation counts.

Each claim is about how many operations run, not about wall time, so
each is read off ``Session.explain(text).to_dict()["metrics"]`` at
three sizes and checked two ways:

* a growth exponent: the log-log slope of a counter between each pair
  of consecutive sizes lies within ±0.15 of 0, 1 or 2;
* an exact count wherever one mechanism decides it: a hash join's
  candidate pairs, the cells a rule ablation materializes, the number
  of times an invariant Σ runs.

Every session runs under a ``min_cells`` floor no operand reaches, so
every count comes from the scalar plan and is the same with numpy
present or hidden.  Only the hash-join case keeps the default floor:
the join is the mechanism it counts.  The C3/C4 equivalences are the
symbolic checks of ``test_normal_forms.py``.
"""

import math

import pytest

from repro.expressiveness.array_elim import encode_value
from repro.objects.array import Array
from repro.system.session import Session

SIZES = (32, 64, 128)

#: a floor no operand reaches: no kernel and no hash join runs
SCALAR = 10 ** 9

#: how far a measured slope may stray from the claimed exponent
TOLERANCE = 0.15


def explain(query, floor=SCALAR, without=(), **vals):
    """``(value, metrics)`` of one instrumented run of ``query`` in a
    fresh session with ``vals`` bound and every rule named in
    ``without`` removed from each phase that holds it."""
    session = Session(min_cells=floor)
    for rule in without:
        for phase in session.env.optimizer.phases:
            if rule in phase.rules.names():
                phase.rules.remove(rule)
    for name, value in vals.items():
        session.env.set_val(name, value)
    report = session.explain(query + ";")
    return report.value, report.to_dict()["metrics"]


def sweep(query, inputs=lambda n: {}, **kwargs):
    """:func:`explain` at each of :data:`SIZES`, keyed by ``n``;
    ``query`` may hold ``%(n)d`` and ``inputs(n)`` gives the vals."""
    return {n: explain(query % {"n": n}, **inputs(n), **kwargs)
            for n in SIZES}


def counts(runs, key="node_evals"):
    """One counter of a :func:`sweep`, in size order."""
    return [runs[n][1][key] for n in SIZES]


def evaluations(runs, node_class):
    """How often nodes of ``node_class`` ran in a :func:`sweep`."""
    return [runs[n][1]["nodes_by_class"].get(node_class, 0) for n in SIZES]


def values(runs):
    """The results of a :func:`sweep`, in size order."""
    return [runs[n][0] for n in SIZES]


def assert_slope(series, exponent):
    """Each doubling of ``n`` multiplies ``series`` by ≈ 2**exponent."""
    for (n1, c1), (n2, c2) in zip(zip(SIZES, series),
                                  zip(SIZES[1:], series[1:])):
        slope = math.log(c2 / c1) / math.log(n2 / n1)
        assert abs(slope - exponent) <= TOLERANCE, (series, slope)


def arrays(n):
    """Two n-element arrays of distinct nats."""
    return {"A": Array.from_list(list(range(n))),
            "B": Array.from_list(list(range(n, 2 * n)))}


def graphs(n):
    """Each array of :func:`arrays` as its graph ``{(i, A[i])}``: the
    encoding a language without arrays is forced into."""
    return {"G" + name: encode_value(value)
            for name, value in arrays(n).items()}


SET_ZIP = r"{((x, y), i) | (\i, \x) <- GA, (\j, \y) <- GB, i = j}"


class TestC1Zip:
    """§1: zip is linear with arrays and takes "the time to do a cross
    product" through sets.  Since the hash equi-join, the set encoding's
    work is linear too; the cross product shows in its candidate pairs,
    all but n of which the join skips."""

    @pytest.fixture(scope="class")
    def array_zip(self):
        return sweep("zip!(A, B)", arrays)

    def test_array_zip_is_linear(self, array_zip):
        assert_slope(counts(array_zip), 1)
        assert counts(array_zip, "cells_materialized") == list(SIZES)

    @pytest.fixture(scope="class")
    def set_zip(self):
        return sweep(SET_ZIP, graphs, floor=None)

    def test_set_zip_joins_by_hash(self, set_zip):
        assert counts(set_zip, "joins_hashed") == [1, 1, 1]
        assert counts(set_zip, "join_pairs_matched") == list(SIZES)
        pairs = [m["join_pairs_matched"] + m["join_pairs_skipped"]
                 for _, m in set_zip.values()]
        assert pairs == [n * n for n in SIZES]
        assert_slope(counts(set_zip), 1)

    def test_set_zip_without_the_join_is_a_cross_product(self):
        runs = sweep(SET_ZIP, graphs)
        assert counts(runs, "joins_hashed") == [0, 0, 0]
        assert evaluations(runs, "Cmp") == [n * n for n in SIZES]
        assert_slope(counts(runs), 2)

    def test_both_encodings_zip_alike(self, array_zip, set_zip):
        for zipped, pairs in zip(values(array_zip), values(set_zip)):
            assert pairs == frozenset(
                (cell, i) for i, cell in enumerate(zipped.flat))


def histogram_data(n):
    """n values spread over 0..n-1, deterministic."""
    return {"A": Array.from_list([(i * 2654435761) % n for i in range(n)])}


class TestC2Histogram:
    """§2: ``hist`` is O(n·m); ``hist'`` (``hist2``) groups with ``index``
    once, O(m + n log n).  Here m = n."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {name: sweep(name + "!A", histogram_data)
                for name in ("hist", "hist2")}

    def test_hist_rescans_per_bin(self, runs):
        assert_slope(counts(runs["hist"]), 2)

    def test_hist2_is_linear(self, runs):
        assert_slope(counts(runs["hist2"]), 1)
        assert counts(runs["hist2"], "index_groupbys") == [1, 1, 1]
        assert counts(runs["hist2"], "index_pairs") == list(SIZES)

    def test_both_count_every_value(self, runs):
        assert values(runs["hist"]) == values(runs["hist2"])
        assert [sum(h.flat) for h in values(runs["hist2"])] == list(SIZES)


#: (rule, a workload built around it): each avoids one tabulation of n
#: cells, which the rule's absence makes the plan build
ARRAY_RULES = [
    ("beta-p", r"([[ i * i | \i < %(n)d ]])[7]"),
    ("eta-p", r"maparr!(fn \x => x, A)"),
    ("delta-p", r"len!(maparr!(fn \x => x + 1, A))"),
]


class TestC5ArrayRules:
    """§5: β^p, η^p and δ^p each "save both time and space by avoiding
    tabulation of the intermediary array"."""

    @pytest.fixture(scope="class", params=ARRAY_RULES,
                    ids=[rule for rule, _ in ARRAY_RULES])
    def runs(self, request):
        rule, query = request.param
        return (sweep(query, arrays),
                sweep(query, arrays, without=(rule,)))

    def test_the_rule_avoids_tabulation(self, runs):
        with_rule, _ = runs
        assert counts(with_rule, "cells_materialized") == [0, 0, 0]
        assert_slope(counts(with_rule), 0)

    def test_without_the_rule_the_array_is_built(self, runs):
        with_rule, without_rule = runs
        assert counts(without_rule, "cells_materialized") == list(SIZES)
        assert_slope(counts(without_rule), 1)
        assert values(with_rule) == values(without_rule)


def keyed_pairs(n):
    """n (key, value) pairs over m = n/2 keys."""
    return {"S": frozenset((i * 2654435761 % (n // 2), i)
                           for i in range(n))}


class TestC7IndexGroupBy:
    """§2: "index causes an implicit group-by": one pass over the n
    pairs, where filtering the set once per key costs n·m."""

    @pytest.fixture(scope="class")
    def runs(self):
        return (sweep("index!S", keyed_pairs),
                sweep(r"[[ {v | (\k, \v) <- S, k = i} | \i < %(n)d / 2 ]]",
                      keyed_pairs))

    def test_index_is_one_pass(self, runs):
        indexed, _ = runs
        assert counts(indexed, "index_groupbys") == [1, 1, 1]
        assert counts(indexed, "index_pairs") == list(SIZES)
        assert counts(indexed, "collection_elements") == list(SIZES)

    def test_per_key_filtering_is_n_times_m(self, runs):
        _, filtered = runs
        assert evaluations(filtered, "Cmp") == [n * (n // 2) for n in SIZES]
        assert_slope(counts(filtered), 2)

    def test_same_groups(self, runs):
        indexed, filtered = runs
        assert values(indexed) == values(filtered)


class TestC8CodeMotion:
    """§5's "later phases include ... code motion": the loop-invariant Σ
    of ``[[ Σ S * i | i < n ]]`` runs once when hoisted, once per
    iteration when not."""

    @pytest.fixture(scope="class")
    def runs(self):
        query = r"[[ summap(fn \y => y)!(S) * i | \i < %(n)d ]]"
        return tuple(sweep(query, lambda n: {"S": frozenset(range(n))},
                           without=without)
                     for without in ((), ("hoist-loop-invariant",)))

    def test_hoisted_sum_runs_once(self, runs):
        hoisted, _ = runs
        assert evaluations(hoisted, "Sum") == [1, 1, 1]
        assert_slope(counts(hoisted), 1)

    def test_unhoisted_sum_runs_per_iteration(self, runs):
        hoisted, unhoisted = runs
        assert evaluations(unhoisted, "Sum") == list(SIZES)
        assert_slope(counts(unhoisted), 2)
        assert values(hoisted) == values(unhoisted)
