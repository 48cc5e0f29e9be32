"""The set-engine fast paths (``repro.core.setops``).

The contract under test (``docs/SETOPS.md``): whenever a fast path
runs — hash equi-join or sort-based ``index_k`` grouping — its result
is *indistinguishable* from the reference semantics': identical
frozensets (equality and hashes), identical ⊥ identity — and its probe
counters from the naive loop's, except the setops-only keys.  Whenever the fast path cannot guarantee
that, it declines and the naive loop runs unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import setops
from repro.core.fastpath import DispatchConfig
from repro.core.setops import index_set_dispatch
from repro.errors import SessionError
from repro.objects.array import index_set_stats
from repro.obs.metrics import EvalMetrics
from repro.system.repl import setops_command
from repro.system.session import Session

from conftest import agree
from conftest import outcome as engine_outcome

#: the counter keys only a set-engine fast path reports; everything
#: else must match a naive run exactly
SETOPS_ONLY = ("index_sorted", "joins_hashed", "join_pairs_matched",
               "join_pairs_skipped")


@pytest.fixture(autouse=True)
def _setops_on(monkeypatch):
    """Pin the kill switch on so a REPRO_NO_SETOPS=1 environment does
    not fail the tests that assert the fast path runs (the tests that
    need it off flip it themselves)."""
    monkeypatch.setattr(setops, "ENABLED", True)


def cfg(min_cells=1, setops_on=True):
    return DispatchConfig(min_cells=min_cells, workers=0, setops=setops_on)


def outcome(expr, config, probe=None):
    """The production engine's outcome on a closed expression."""
    return engine_outcome(expr, config, probe=probe, binds={})


def counters(metrics):
    return {key: value for key, value in metrics.to_dict().items()
            if key not in SETOPS_ONLY}


# ---------------------------------------------------------------------------
# fixture queries
# ---------------------------------------------------------------------------

V = ast.Var
N = ast.NatLit


def fst(expr):
    return ast.Proj(1, 2, expr)


def snd(expr):
    return ast.Proj(2, 2, expr)


def join_query(s_expr, t_expr, cond=None, orelse=None, body=None,
               outer="x", inner="y"):
    """``ext{λx. ext{λy. if cond then {(snd x, snd y)} else {}}(T)}(S)``."""
    if cond is None:
        cond = ast.Cmp("=", fst(V(outer)), fst(V(inner)))
    if body is None:
        body = ast.Singleton(ast.TupleE((snd(V(outer)), snd(V(inner)))))
    if orelse is None:
        orelse = ast.EmptySet()
    return ast.Ext(outer, ast.Ext(inner, ast.If(cond, body, orelse),
                                  t_expr), s_expr)


def relation(pairs):
    return ast.Const(frozenset(pairs))


S_REL = frozenset((i % 7, i) for i in range(30))
T_REL = frozenset((i % 5, 100 + i) for i in range(20))


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

class TestRecognition:

    def test_recognizes_canonical_shape(self):
        shape = setops.recognize_join(
            join_query(relation(S_REL), relation(T_REL)))
        assert shape is not None
        assert shape.outer_var == "x"
        assert shape.inner_var == "y"
        assert shape.outer_key == fst(V("x"))
        assert shape.inner_key == fst(V("y"))

    def test_recognizes_swapped_condition(self):
        cond = ast.Cmp("=", fst(V("y")), fst(V("x")))
        shape = setops.recognize_join(
            join_query(relation(S_REL), relation(T_REL), cond=cond))
        assert shape is not None
        # the sides are re-oriented: outer key mentions only x
        assert shape.outer_key == fst(V("x"))
        assert shape.inner_key == fst(V("y"))

    def test_declines_same_binder(self):
        expr = join_query(relation(S_REL), relation(T_REL),
                          outer="x", inner="x",
                          cond=ast.Cmp("=", fst(V("x")), fst(V("x"))),
                          body=ast.Singleton(snd(V("x"))))
        assert setops.recognize_join(expr) is None

    def test_declines_outer_var_free_in_inner_source(self):
        # T = {x}: must be evaluated per outer element, not once
        expr = ast.Ext(
            "x",
            ast.Ext("y", ast.If(ast.Cmp("=", fst(V("x")), fst(V("y"))),
                                ast.Singleton(snd(V("y"))),
                                ast.EmptySet()),
                    ast.Singleton(V("x"))),
            relation(S_REL))
        assert setops.recognize_join(expr) is None

    def test_declines_non_empty_else(self):
        expr = join_query(relation(S_REL), relation(T_REL),
                          orelse=ast.Singleton(
                              ast.TupleE((N(0), N(0)))))
        assert setops.recognize_join(expr) is None

    def test_declines_mixed_side_condition(self):
        cond = ast.Cmp("=", ast.Arith("+", fst(V("x")), fst(V("y"))),
                       N(3))
        assert setops.recognize_join(
            join_query(relation(S_REL), relation(T_REL),
                       cond=cond)) is None

    def test_declines_non_equality(self):
        cond = ast.Cmp("<", fst(V("x")), fst(V("y")))
        assert setops.recognize_join(
            join_query(relation(S_REL), relation(T_REL),
                       cond=cond)) is None


# ---------------------------------------------------------------------------
# join execution: fast == naive, bit for bit
# ---------------------------------------------------------------------------

class TestJoinAgreement:

    def test_fixture_join_matches_naive(self):
        expr = join_query(relation(S_REL), relation(T_REL))
        assert agree(expr, cfg(), binds={})[0] == "value"

    def test_probe_reports_join(self):
        metrics = EvalMetrics()
        expr = join_query(relation(S_REL), relation(T_REL))
        result = outcome(expr, cfg(), probe=metrics)
        assert result[0] == "value"
        assert metrics.joins_hashed == 1
        assert (metrics.join_pairs_matched + metrics.join_pairs_skipped
                == len(S_REL) * len(T_REL))
        # every matched pair shares its key; recompute independently
        expected = sum(1 for a in S_REL for b in T_REL if a[0] == b[0])
        assert metrics.join_pairs_matched == expected

    def test_probed_counters_match_naive(self):
        """Fast-path counters == naive counters + the setops-only keys."""
        expr = join_query(relation(S_REL), relation(T_REL))
        fast_metrics, naive_metrics = EvalMetrics(), EvalMetrics()
        fast = outcome(expr, cfg(), probe=fast_metrics)
        naive = outcome(expr, cfg(setops_on=False),
                        probe=naive_metrics)
        assert fast == naive
        assert fast_metrics.joins_hashed == 1
        # node/cell economy differs by design (skipped pairs evaluate
        # nothing), but the ⊥ and collection watermarks must agree
        assert (fast_metrics.bottom_raises
                == naive_metrics.bottom_raises)
        assert (fast_metrics.max_collection_size
                == naive_metrics.max_collection_size)

    def test_kill_switch_disables(self, monkeypatch):
        monkeypatch.setattr(setops, "ENABLED", False)
        metrics = EvalMetrics()
        expr = join_query(relation(S_REL), relation(T_REL))
        result = outcome(expr, cfg(), probe=metrics)
        assert result[0] == "value"
        assert metrics.joins_hashed == 0

    def test_session_switch_disables(self):
        metrics = EvalMetrics()
        expr = join_query(relation(S_REL), relation(T_REL))
        result = outcome(expr, cfg(setops_on=False),
                         probe=metrics)
        assert result[0] == "value"
        assert metrics.joins_hashed == 0

    def test_min_cells_floor(self):
        metrics = EvalMetrics()
        expr = join_query(relation(S_REL), relation(T_REL))
        result = outcome(expr,
                         cfg(min_cells=10 ** 9), probe=metrics)
        assert result[0] == "value"
        assert metrics.joins_hashed == 0

    def test_bottom_in_body_is_canonical(self):
        # 100/snd y raises division by zero on the pair whose payload
        # is 0; the fast path must discard its work and let the naive
        # loops raise the identical reason
        t = frozenset([(0, 0), (0, 4), (1, 5)])
        s = frozenset([(0, 1), (1, 2), (2, 3)])
        body = ast.Singleton(ast.Arith("/", N(100), snd(V("y"))))
        expr = join_query(relation(s), relation(t), body=body)
        assert agree(expr, cfg(), binds={})[0] == "bottom"

    def test_bottom_discards_forked_probe(self):
        t = frozenset([(0, 0), (0, 4), (1, 5)])
        s = frozenset([(0, 1), (1, 2), (2, 3)])
        body = ast.Singleton(ast.Arith("/", N(100), snd(V("y"))))
        expr = join_query(relation(s), relation(t), body=body)
        fast_metrics, naive_metrics = EvalMetrics(), EvalMetrics()
        fast = outcome(expr, cfg(), probe=fast_metrics)
        naive = outcome(expr, cfg(setops_on=False),
                        probe=naive_metrics)
        assert fast == naive
        # the failed fast path contributes nothing: counters are the
        # naive loop's exactly, including zero join counters
        assert counters(fast_metrics) == counters(naive_metrics)
        assert fast_metrics.joins_hashed == 0

    def test_mixed_kind_keys_stay_distinct(self):
        # 1, 1.0 and true collide under Python hashing but are distinct
        # calculus values; HashKey must keep them apart
        s = frozenset([(1, 10), (True, 20), (2, 30)])
        t = frozenset([(1.0, 100), (1, 200), (True, 300)])
        expr = join_query(relation(s), relation(t))
        fast = agree(expr, cfg(), binds={})
        assert fast[1] == frozenset({(10, 200), (20, 300)})

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.frozensets(st.tuples(st.integers(0, 4),
                                   st.integers(0, 50)),
                         max_size=12),
           st.frozensets(st.tuples(st.integers(0, 4),
                                   st.integers(0, 50)),
                         max_size=12))
    def test_random_relations_agree(self, s, t):
        agree(join_query(relation(s), relation(t)), cfg(), binds={})


# ---------------------------------------------------------------------------
# sort-based index_k grouping: sorted == dict, down to hashes
# ---------------------------------------------------------------------------

def assert_arrays_identical(fast, naive):
    assert tuple(fast[0].dims) == tuple(naive[0].dims)
    for fast_cell, naive_cell in zip(fast[0].flat, naive[0].flat):
        assert type(fast_cell) is type(naive_cell)
        assert fast_cell == naive_cell
        assert hash(fast_cell) == hash(naive_cell)
    assert fast[1:] == naive[1:]  # (groups, max_group)


values_strategy = st.one_of(st.integers(-50, 50), st.booleans(),
                            st.floats(allow_nan=False,
                                      allow_infinity=False, width=32))


class TestSortedGrouping:

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.frozensets(st.tuples(st.integers(0, 30), values_strategy),
                         max_size=40))
    def test_rank1_matches_dict(self, pairs):
        assert_arrays_identical(setops.index_set_sorted(pairs, 1),
                                index_set_stats(pairs, 1))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.frozensets(
        st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                  values_strategy),
        max_size=40))
    def test_rank2_matches_dict(self, pairs):
        assert_arrays_identical(setops.index_set_sorted(pairs, 2),
                                index_set_stats(pairs, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40))
    def test_all_one_key(self, n):
        pairs = frozenset((0, value) for value in range(n))
        fast = setops.index_set_sorted(pairs, 1)
        assert_arrays_identical(fast, index_set_stats(pairs, 1))
        assert fast[1] == 1 and fast[2] == n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40))
    def test_all_distinct_keys(self, n):
        pairs = frozenset((key, key) for key in range(n))
        fast = setops.index_set_sorted(pairs, 1)
        assert_arrays_identical(fast, index_set_stats(pairs, 1))
        assert fast[1] == n and fast[2] == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(10, 2000))
    def test_holes_dominated(self, gap):
        pairs = frozenset([(0, 1), (gap, 2)])
        fast = setops.index_set_sorted(pairs, 1)
        assert_arrays_identical(fast, index_set_stats(pairs, 1))
        # holes share one interned empty frozenset
        holes = {id(cell) for cell in fast[0].flat if not cell}
        assert len(holes) == 1

    def test_empty_input(self):
        assert_arrays_identical(setops.index_set_sorted(frozenset(), 1),
                                index_set_stats(frozenset(), 1))

    def test_malformed_pair_error_identical(self):
        bad = frozenset([(0, 1), ("no", 2)])
        with pytest.raises(Exception) as fast_err:
            setops.index_set_sorted(bad, 1)
        with pytest.raises(Exception) as naive_err:
            index_set_stats(bad, 1)
        assert type(fast_err.value) is type(naive_err.value)
        assert str(fast_err.value) == str(naive_err.value)

    #: sparse: 9 pairs over a 401-cell extent (>= SPARSITY_FACTOR * 9),
    #: so the sparsity gate is satisfied and only the other gates vary
    SPARSE_PAIRS = frozenset((i * 50, i) for i in range(9))

    def test_dispatch_takes_sorted_when_sparse(self):
        array, groups, max_group, sorted_used = index_set_dispatch(
            self.SPARSE_PAIRS, 1, cfg(min_cells=1))
        assert sorted_used
        assert groups == 9 and max_group == 1
        assert tuple(array.dims) == (401,)

    def test_dispatch_dict_when_dense(self):
        # 9 pairs over 3 cells: the dict pass is faster there, so the
        # sparsity gate keeps the sorted path out — result unchanged
        pairs = frozenset((i % 3, i) for i in range(9))
        array, groups, max_group, sorted_used = index_set_dispatch(
            pairs, 1, cfg(min_cells=1))
        assert not sorted_used
        assert groups == 3 and max_group == 3

    def test_dispatch_naive_below_floor(self):
        _, _, _, sorted_used = index_set_dispatch(
            self.SPARSE_PAIRS, 1, cfg(min_cells=1000))
        assert not sorted_used

    def test_dispatch_respects_kill_switch(self, monkeypatch):
        monkeypatch.setattr(setops, "ENABLED", False)
        _, _, _, sorted_used = index_set_dispatch(self.SPARSE_PAIRS, 1, cfg())
        assert not sorted_used

    def test_max_group_size_is_exact(self):
        """Regression: the old ``pairs - groups + 1`` derived bound
        overstated the watermark whenever more than one group held
        duplicates (here it would claim 3; the truth is 2)."""
        pairs = frozenset([(0, 10), (0, 11), (1, 20), (1, 21)])
        expr = ast.IndexSet(relation(pairs), 1)
        for config in (cfg(), cfg(setops_on=False)):
            metrics = EvalMetrics()
            result = outcome(expr, config, probe=metrics)
            assert result[0] == "value"
            assert metrics.max_group_size == 2
            assert metrics.index_groups == 2

    def test_sorted_path_agrees_with_reference(self):
        # sparse enough that the run takes the sorted path
        pairs = frozenset((i * 2654435761 % 500, i) for i in range(40))
        expr = ast.IndexSet(relation(pairs), 1)
        metrics = EvalMetrics()
        fast = agree(expr, cfg(), binds={}, probe=metrics)
        assert fast[0] == "value"
        assert metrics.index_sorted == 1
        reference = index_set_stats(pairs, 1)[0]
        for fast_cell, naive_cell in zip(fast[1].flat, reference.flat):
            assert hash(fast_cell) == hash(naive_cell)


# ---------------------------------------------------------------------------
# session + REPL surface
# ---------------------------------------------------------------------------

class TestSurface:

    def test_session_setops_off(self):
        session = Session(setops=False)
        assert session.env.parallel.setops is False

    def test_session_setops_default_on(self):
        session = Session()
        assert session.env.parallel.setops is True

    def test_session_setops_validated(self):
        with pytest.raises(SessionError):
            Session(setops="yes")

    def test_repl_command_toggles(self):
        session = Session()
        off = setops_command(session, "off")
        assert "session=off" in off
        assert session.env.parallel.setops is False
        on = setops_command(session, "on")
        assert "session=on" in on
        assert session.env.parallel.setops is True

    def test_repl_command_usage(self):
        session = Session()
        assert "usage" in setops_command(session, "sideways")

    def test_repl_command_shows_state(self):
        session = Session(setops=False)
        shown = setops_command(session, "")
        assert "session=off" in shown
