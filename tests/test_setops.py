"""The set-engine fast path (``repro.core.setops``) and ``index_k``.

The contract under test (``docs/SETOPS.md``): whenever the hash
equi-join runs, its result is *indistinguishable* from the reference
semantics' — identical frozensets (equality and hashes), identical ⊥
identity — and its probe counters from the naive loop's, except the
join-only keys.  Whenever the fast path cannot guarantee that, it
declines and the naive loop runs unchanged.  ``index_k`` has one
grouping routine, checked here against the paper's definition.
"""

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import setops
from repro.core.compile import CompiledEvaluator
from repro.core.eval import Evaluator
from repro.core.fastpath import DispatchConfig
from repro.errors import EvalError
from repro.objects.array import index_set_stats
from repro.obs.metrics import EvalMetrics, EvalProbe

from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.system.session import Session

from conftest import (CONFIGS, SCALAR, agree, aql_core, assert_identical,
                      reference_outcome)
from conftest import outcome as engine_outcome


def cfg(min_cells=1):
    return DispatchConfig(min_cells=min_cells)


def outcome(expr, config, probe=None, binds=None):
    """The production engine's outcome on an expression, closed unless
    ``binds`` names its free variables."""
    return engine_outcome(expr, config, probe=probe, binds=binds or {})


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

#: joins raising ⊥ (``100 / 0``) in the match body, in the inner key
#: κ'(y) and in the outer key κ(x)
_ZERO_T = frozenset([(0, 0), (0, 4), (1, 5)])
_ZERO_S = frozenset([(0, 1), (1, 2), (2, 3)])
BOTTOM_JOINS = (
    join_query(relation(_ZERO_S), relation(_ZERO_T), body=ast.Singleton(
        ast.Arith("/", N(100), snd(V("y"))))),
    join_query(relation(_ZERO_S), relation(_ZERO_T), cond=ast.Cmp(
        "=", fst(V("x")), ast.Arith("/", N(100), snd(V("y"))))),
    join_query(relation(_ZERO_T), relation(_ZERO_S), cond=ast.Cmp(
        "=", ast.Arith("/", N(100), snd(V("x"))), fst(V("y")))),
)


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
        for config in CONFIGS:
            assert agree(expr, config, binds={})[0] == "value"

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
        naive = outcome(expr, SCALAR, probe=naive_metrics)
        assert fast == naive
        assert fast_metrics.joins_hashed == 1
        # node/cell economy differs by design (skipped pairs evaluate
        # nothing), but the ⊥ and collection watermarks must agree
        assert (fast_metrics.bottom_raises
                == naive_metrics.bottom_raises)
        assert (fast_metrics.max_collection_size
                == naive_metrics.max_collection_size)

    def test_min_cells_floor(self):
        metrics = EvalMetrics()
        expr = join_query(relation(S_REL), relation(T_REL))
        result = outcome(expr,
                         cfg(min_cells=10 ** 9), probe=metrics)
        assert result[0] == "value"
        assert metrics.joins_hashed == 0

    def test_bottom_in_body_is_canonical(self):
        # 100/snd raises division by zero on the pair whose payload is
        # 0, in the match body, the inner key κ'(y) or the outer key
        # κ(x); the fast path must discard its work and let the naive
        # loops raise the identical reason
        for expr in BOTTOM_JOINS:
            for config in CONFIGS:
                assert agree(expr, config, binds={})[0] == "bottom"

    def test_bottom_discards_forked_probe(self):
        for expr in BOTTOM_JOINS:
            fast_metrics, naive_metrics = EvalMetrics(), EvalMetrics()
            fast = outcome(expr, cfg(), probe=fast_metrics)
            naive = outcome(expr, SCALAR, probe=naive_metrics)
            assert fast == naive
            # the failed fast path contributes nothing: counters are the
            # naive loop's exactly, including zero join counters
            assert fast_metrics.to_dict() == naive_metrics.to_dict()
            assert fast_metrics.joins_hashed == 0

    def test_physical_path_does_not_depend_on_the_probe(self):
        """A probe that overrides one hook still gets the hash join."""
        class JoinsOnly(EvalProbe):
            __slots__ = ("joins",)

            def __init__(self):
                self.joins = []

            def on_join(self, pairs_matched, pairs_skipped):
                self.joins.append((pairs_matched, pairs_skipped))

        expr = join_query(relation(S_REL), relation(T_REL))
        probe = JoinsOnly()
        assert outcome(expr, cfg(), probe=probe) == outcome(expr, SCALAR)
        matched = sum(1 for a in S_REL for b in T_REL if a[0] == b[0])
        assert probe.joins == [(matched,
                                len(S_REL) * len(T_REL) - matched)]

    def test_match_body_sharing_a_node_with_a_key(self):
        """One node object may sit in a key and in ``e`` (the optimizer
        shares subterms): ``e``'s def stands in at ``e``'s place only."""
        key = fst(V("x"))
        expr = join_query(relation(S_REL), relation(T_REL),
                          cond=ast.Cmp("=", key, fst(V("y"))),
                          body=ast.Singleton(key))
        for config in CONFIGS:
            assert agree(expr, config, binds={})[0] == "value"

    def test_mixed_kind_keys_stay_distinct(self):
        # 1, 1.0 and true collide under Python hashing but are distinct
        # calculus values; HashKey must keep them apart
        s = frozenset([(1, 10), (True, 20), (2, 30)])
        t = frozenset([(1.0, 100), (1, 200), (True, 300)])
        expr = join_query(relation(s), relation(t))
        for config in CONFIGS:
            got = agree(expr, config, binds={})
            assert got[1] == frozenset({(10, 200), (20, 300)})

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.frozensets(st.tuples(st.integers(0, 4),
                                   st.integers(0, 50)),
                         max_size=12),
           st.frozensets(st.tuples(st.integers(0, 4),
                                   st.integers(0, 50)),
                         max_size=12))
    def test_random_relations_agree(self, s, t):
        for config in CONFIGS:
            agree(join_query(relation(s), relation(t)), config, binds={})


# ---------------------------------------------------------------------------
# joins nested in a join's match body: one def per level
# ---------------------------------------------------------------------------

NESTED_BINDS = {"R": frozenset((i, 2 * i) for i in range(6)),
                "S": frozenset((i, 3 * i) for i in range(6))}


def nested_join(depth):
    """The join of R and S wrapped around itself ``depth`` times, the
    innermost body adding every level's ``b``."""
    body = " + ".join(f"b{k}" for k in range(1, depth + 1)) + " + 0"
    for k in range(1, depth + 1):
        body = (f"{{ {body} | (\\a{k}, \\b{k}) <- R, (\\c{k}, \\d{k}) <- S, "
                f"a{k} = c{k} }}")
    return body


class TestNestedJoins:

    def _session(self):
        session = Session()
        for name, value in NESTED_BINDS.items():
            session.env.set_val(name, value)
        return session

    @pytest.mark.slow  # the reference takes seconds at depth 6
    def test_values_match_the_reference(self):
        """Value, canonical element order and hash, at every depth."""
        env = self._session().env
        for depth in range(1, 7):
            core = aql_core(env, nested_join(depth), optimize=True)
            assert sum(1 for node in ast.subterms(core) if type(node)
                       is ast.Ext and setops.recognize_join(node)) \
                >= (depth + 1) // 2
            want = reference_outcome(core, NESTED_BINDS)
            assert want[0] == "value"
            for config in CONFIGS:
                got = outcome(core, config, binds=NESTED_BINDS)
                assert got[0] == "value"
                assert_identical(got[1], want[1])

    def test_kept_plan_grows_linearly(self):
        """The match body is emitted once, in a def both the hash block
        and the nested loop call, so a level adds a fixed number of
        lines instead of doubling the plan."""
        session, lines = self._session(), []
        for depth in range(1, 7):
            core = desugar_expression(parse_expression(nested_join(depth)))
            session.prepare(core)
            kept = session.prepare(core)
            assert kept.cached
            lines.append(len(kept.evaluator.source.splitlines()))
        steps = [after - before for before, after in zip(lines, lines[1:])]
        assert len(set(steps[1:])) == 1, lines
        assert lines[-1] <= 200, lines

    def test_bottom_in_a_nested_match_body_is_canonical(self):
        """⊥ from the inner join's body, for one matching pair, unwinds
        through the outer join's def: the reference's reason, and the
        nested loops' counts with no join counted."""
        inner = join_query(relation(_ZERO_S), relation(_ZERO_T),
                           body=ast.Singleton(ast.Arith(
                               "/", N(100), snd(V("v")))),
                           outer="u", inner="v")
        expr = join_query(relation(S_REL), relation(T_REL),
                          body=ast.Singleton(inner))
        fast_metrics, naive_metrics = EvalMetrics(), EvalMetrics()
        assert agree(expr, cfg(), fast_metrics, binds={})[0] == "bottom"
        assert outcome(expr, SCALAR, probe=naive_metrics)[0] == "bottom"
        assert fast_metrics.to_dict() == naive_metrics.to_dict()
        assert fast_metrics.joins_hashed == 0

# ---------------------------------------------------------------------------
# index_k: the one grouping routine against the paper's definition
# ---------------------------------------------------------------------------

values_strategy = st.one_of(st.integers(-50, 50), st.booleans(),
                            st.floats(allow_nan=False,
                                      allow_infinity=False, width=32))


@st.composite
def index_inputs(draw):
    """``(pairs, rank)``: rank 1–3 keys over a dense range (0..3, many
    duplicates) or a sparse one (holes dominate), values repeating."""
    rank = draw(st.integers(1, 3))
    top = draw(st.sampled_from((3, (400, 40, 12)[rank - 1])))
    axis = st.integers(0, top)
    key = axis if rank == 1 else st.tuples(*[axis] * rank)
    value = st.one_of(st.integers(0, 3), values_strategy)
    return draw(st.frozensets(st.tuples(key, value), max_size=40)), rank


def definition(pairs, rank):
    """§2, written out: dims are the largest key + 1 per axis, and the
    cell at ``i`` is ``{v | (k, v) ∈ S, k = i}`` (so holes are ``{}``)."""
    keys = [key if rank > 1 else (key,) for key, _ in pairs]
    dims = tuple(max(key[axis] for key in keys) + 1 for axis in range(rank))
    cells = []
    for index in product(*map(range, dims)):
        i = index if rank > 1 else index[0]
        cells.append(frozenset(v for (k, v) in pairs if k == i))
    return dims, cells


class TestGrouping:

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(index_inputs())
    def test_matches_the_definition(self, case):
        pairs, rank = case
        if not pairs:
            return  # the zero-pair case has its own test below
        array, groups, max_group = index_set_stats(pairs, rank)
        dims, cells = definition(pairs, rank)
        assert array.dims == dims
        for got, want in zip(array.flat, cells, strict=True):
            assert type(got) is frozenset
            assert got == want
            assert hash(got) == hash(want)
        assert groups == sum(1 for cell in cells if cell)
        assert max_group == max(len(cell) for cell in cells)
        # every hole is the one shared empty frozenset
        assert len({id(cell) for cell in array.flat if not cell}) <= 1
        # the engine groups through the same routine and counts it
        metrics = EvalMetrics()
        agree(ast.IndexSet(relation(pairs), rank), binds={}, probe=metrics)
        assert (metrics.index_groups, metrics.max_group_size) == \
            (groups, max_group)

    def test_empty_input(self):
        for rank in (1, 2, 3):
            array, groups, max_group = index_set_stats(frozenset(), rank)
            assert array.dims == (0,) * rank
            assert (groups, max_group) == (0, 0)

    def test_malformed_pair_error_identical(self):
        bad = frozenset([(0, 1), ("no", 2)])
        expr = ast.IndexSet(relation(bad), 1)
        raised = []
        for run in (lambda: index_set_stats(bad, 1),
                    lambda: CompiledEvaluator().run(expr),
                    lambda: Evaluator().run(expr)):
            with pytest.raises(EvalError) as error:
                run()
            raised.append((type(error.value), str(error.value)))
        assert raised == [raised[0]] * 3

    def test_max_group_size_is_exact(self):
        """Regression: the old ``pairs - groups + 1`` derived bound
        overstated the watermark whenever more than one group held
        duplicates (here it would claim 3; the truth is 2)."""
        pairs = frozenset([(0, 10), (0, 11), (1, 20), (1, 21)])
        expr = ast.IndexSet(relation(pairs), 1)
        for config in CONFIGS:
            metrics = EvalMetrics()
            result = outcome(expr, config, probe=metrics)
            assert result[0] == "value"
            assert metrics.max_group_size == 2
            assert metrics.index_groups == 2
