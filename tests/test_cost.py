"""Tests for the heuristic cost model."""

import gc
import time
import weakref

from repro.core import ast
from repro.core.builders import map_array, transpose, zip2
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.optimizer.cost import (ASSUMED_CARDINALITY, CardinalityEstimator,
                                  estimate_cost)
from repro.optimizer.engine import default_optimizer
from repro.system.session import Session

N = ast.NatLit
V = ast.Var


class TestEstimates:
    def test_leaf_cost_positive(self):
        assert estimate_cost(V("x")) >= 1

    def test_loop_multiplies_body(self):
        flat = ast.Singleton(V("x"))
        loop = ast.Ext("x", flat, V("S"))
        assert estimate_cost(loop) > estimate_cost(flat) * 2

    def test_constant_bounds_used(self):
        small = ast.Tabulate(("i",), (N(2),), V("i"))
        large = ast.Tabulate(("i",), (N(1000),), V("i"))
        assert estimate_cost(large) > estimate_cost(small)

    def test_nested_loops_compound(self):
        inner = ast.Tabulate(("j",), (V("n"),), V("j"))
        outer = ast.Tabulate(("i",), (V("n"),), inner)
        assert estimate_cost(outer) > 10 * estimate_cost(inner)

    def test_assumed_cardinality_parameter(self):
        loop = ast.Ext("x", ast.Singleton(V("x")), V("S"))
        assert estimate_cost(loop, assumed=100) > \
            estimate_cost(loop, assumed=2)


class TestCardinalityEstimator:
    """The static size analysis behind the calibrated cost model."""

    def test_literal_and_const_values(self):
        cards = CardinalityEstimator()
        assert cards.value_of(N(7)) == 7
        assert cards.value_of(ast.Const(12)) == 12
        assert cards.value_of(ast.Const(True)) is None
        assert cards.value_of(V("n")) is None

    def test_no_arithmetic_folding(self):
        # deliberate: the estimator mirrors what rules_arith can prove,
        # so an extent hidden behind (n*7)/7 stays unknown
        cards = CardinalityEstimator()
        hidden = ast.Arith("/", ast.Arith("*", ast.Const(6), N(7)), N(7))
        assert cards.value_of(hidden) is None

    def test_dims_of_const_array_and_tabulate(self):
        cards = CardinalityEstimator()
        stored = ast.Const(Array((3, 4), range(12)))
        assert cards.dims_of(stored) == (3, 4)
        tab = ast.Tabulate(("i", "j"), (N(5), N(6)), V("i"))
        assert cards.dims_of(tab) == (5, 6)
        unknown = ast.Tabulate(("i",), (V("n"),), V("i"))
        assert cards.dims_of(unknown) is None

    def test_dim_of_known_array(self):
        cards = CardinalityEstimator()
        tab = ast.Tabulate(("i",), (N(9),), V("i"))
        assert cards.value_of(ast.Dim(tab, 1)) == 9

    def test_set_and_bag_cardinalities(self):
        cards = CardinalityEstimator()
        assert cards.cardinality(ast.Const(frozenset({1, 2, 3}))) == 3
        assert cards.cardinality(ast.Const(Bag([1, 1, 2]))) == 3
        assert cards.cardinality(ast.EmptySet()) == 0
        assert cards.cardinality(ast.Singleton(V("x"))) == 1
        assert cards.cardinality(
            ast.Union(ast.Singleton(N(1)), ast.Const(frozenset({2, 3})))
        ) == 3
        assert cards.cardinality(ast.Gen(N(8))) == 8
        assert cards.cardinality(V("S")) is None


class TestKnownExtents:
    """Known constant extents replace ASSUMED_CARDINALITY (satellite b)."""

    def test_gen_uses_known_extent(self):
        assert estimate_cost(ast.Gen(N(1000))) \
            > 10 * estimate_cost(ast.Gen(V("n")))
        assert estimate_cost(ast.Gen(N(2))) < estimate_cost(ast.Gen(V("n")))

    def test_index_set_uses_known_size(self):
        big = ast.IndexSet(ast.Const(frozenset(range(500))), 1)
        small = ast.IndexSet(ast.Const(frozenset(range(2))), 1)
        unknown = ast.IndexSet(V("S"), 1)
        assert estimate_cost(big) > 10 * estimate_cost(unknown)
        assert estimate_cost(small) < estimate_cost(unknown)

    def test_loop_over_known_source(self):
        body = ast.Singleton(ast.Arith("*", V("x"), V("x")))
        known = ast.Ext("x", body, ast.Const(frozenset(range(100))))
        unknown = ast.Ext("x", body, V("S"))
        # the unknown source is charged ASSUMED_CARDINALITY iterations
        assert estimate_cost(known) > (100 // ASSUMED_CARDINALITY) // 2 \
            * estimate_cost(unknown)

    def test_tabulate_over_dim_of_known_array(self):
        stored = ast.Const(Array((256,), range(256)))
        known = ast.Tabulate(("i",), (ast.Dim(stored, 1),), V("i"))
        generic = ast.Tabulate(("i",), (ast.Dim(V("A"), 1),), V("i"))
        assert estimate_cost(known) > 10 * estimate_cost(generic)


class TestValEstimates:
    """A resolved query names a val as a free ``Var``: the estimate reads
    its value from the val table, as it read a spliced ``Const``."""

    CASES = [
        (Array((256,), range(256)),
         lambda leaf: ast.Tabulate(("i",), (ast.Dim(leaf, 1),), V("i"))),
        (frozenset(range(100)),
         lambda leaf: ast.Ext("x", ast.Singleton(V("x")), leaf)),
        (300, ast.Gen),
    ]

    def test_a_val_estimates_like_its_constant(self):
        for value, build in self.CASES:
            named = estimate_cost(build(V("v")), vals={"v": value})
            assert named == estimate_cost(build(ast.Const(value)))
            assert named != estimate_cost(build(V("v")))

    def test_a_binder_hides_a_val(self):
        vals = {"n": 10 ** 6}
        for shadowed in (ast.Ext("n", ast.Gen(V("n")), V("S")),
                         ast.Lam("n", ast.Gen(V("n"))),
                         ast.Tabulate(("n",), (N(3),), ast.Gen(V("n")))):
            assert estimate_cost(shadowed, vals=vals) == \
                estimate_cost(shadowed)
        free = ast.Ext("x", ast.Gen(V("n")), V("S"))
        assert estimate_cost(free, vals=vals) > estimate_cost(free)
        cards = CardinalityEstimator({"P": frozenset(range(1000))})
        assert cards.cardinality(ast.Ext("x", V("P"), ast.Gen(N(3)))) == 3000
        assert cards.cardinality(ast.Ext("P", V("P"), ast.Gen(N(3)))) is None


class TestSharedDagMemo:
    """Shared-DAG subexpressions are costed once, not once per path
    (satellite a: the pre-memo walk was exponential on these trees)."""

    def test_deep_duplication_completes_fast(self):
        expr = V("x")
        for _ in range(64):
            expr = ast.Arith("+", expr, expr)
        started = time.perf_counter()
        units = estimate_cost(expr)
        elapsed = time.perf_counter() - started
        # 2**64 leaf paths: only memoization by node id makes this finite
        assert units > 2 ** 64
        assert elapsed < 1.0

    def test_shared_loops_memoized(self):
        loop = ast.Ext("x", ast.Singleton(V("x")), V("S"))
        expr = loop
        for _ in range(48):
            expr = ast.Union(expr, expr)
        started = time.perf_counter()
        assert estimate_cost(expr) > 0
        assert time.perf_counter() - started < 1.0


class TestOptimizationReducesCost:
    def test_beta_p_cheaper(self):
        opt = default_optimizer()
        e = ast.Subscript(
            ast.Tabulate(("i",), (N(1000),), ast.Arith("*", V("i"), N(2))),
            (N(5),),
        )
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)

    def test_eta_p_cheaper(self):
        opt = default_optimizer()
        e = map_array(lambda x: x, V("A"))
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)

    def test_transpose_rule_cheaper(self):
        opt = default_optimizer()
        e = transpose(ast.Tabulate(("i", "j"), (V("m"), V("n")), V("i")))
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)

    def test_map_fusion_cheaper(self):
        opt = default_optimizer()
        e = map_array(lambda x: ast.Arith("+", x, N(1)),
                      map_array(lambda x: ast.Arith("*", x, N(2)), V("A")))
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)


class _Tracked(Array):
    """An ``Array`` a test can hold weakly (``Array`` has no
    ``__weakref__`` slot)."""

    __slots__ = ("__weakref__",)


def _cells_held(root):
    """Total length of every container reachable from ``root`` through
    instance attributes, slots and builtin containers."""
    total, seen, stack = 0, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            total += len(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            total += len(obj)
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, slot, None)
                             for slot in getattr(cls, "__slots__", ()))
    return total


class TestEstimatorPinsNothing:
    """ROADMAP 0a: estimating a plan over a ``val`` must not keep the
    plan — and with it the ``Const`` holding the val's *old* array —
    alive after the val is rebound."""

    def test_rebound_vals_are_collected(self):
        session = Session()
        bound = []

        def reader(args):
            array = _Tracked((64,), [float(cell) for cell in range(64)])
            bound.append(weakref.ref(array))
            return array

        session.env.drivers.register_reader("TRACKED", reader)
        held = []
        for _ in range(50):
            session.run('readval \\Y using TRACKED at "anywhere";'
                        ' summap(fn \\i => Y[i])!(gen!64);')
            held.append(_cells_held(session.env.cost))
        gc.collect()
        assert bound[0]() is None
        assert sum(1 for ref in bound if ref() is not None) <= 2
        assert held[-1] == held[4]
