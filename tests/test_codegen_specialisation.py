"""The code generator's specialised closures against the reference.

``repro.core.compile`` decides operator, arity, rank and loop shape at
codegen time and guards each fast path on exact host types; everything
else must reach the one general routine (``apply_arith``,
``value_equal``, ``compare_values``, ``Array.__getitem__``, the general
``collect_index_pairs`` loop), which owns every error.  ``agree``
compares value, Python type, float repr, hash and ⊥ reason with the
reference ``Evaluator``, so a guard that answers where it should not —
``True + True``, a ``numpy.float64`` operand, ``nan <= 1.0`` — fails
here loudly.
"""

import itertools
import math

import pytest

from conftest import agree, outcome, reference_outcome

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.errors import EvalError
from repro.objects import dense, values
from repro.objects.array import Array, collect_index_pairs
from repro.objects.ordering import COMPARISONS
from repro.objects.values import value_equal

NAN = float("nan")
A, B = ast.Var("a"), ast.Var("b")


def binary(node, op, a, b, prims=None):
    """``a op b`` on the production engine, checked against the reference."""
    return agree(node(op, A, B), binds={"a": a, "b": b}, prims=prims)


# ---------------------------------------------------------------------------
# (b) Arith and Cmp by operator
# ---------------------------------------------------------------------------

ARITH_OPERANDS = {
    "nat-nat": (17, 5), "nat-small-big": (3, 9), "nat-huge": (2 ** 70, 3),
    "real-real": (7.5, 2.0), "nat-real": (7, 2.0), "real-nat": (7.5, 2),
    "nat-zero": (4, 0), "real-zero": (4.0, 0.0), "real-neg-zero": (4.0, -0.0),
    "nat-real-zero": (4, 0.0), "neg-zero-left": (-0.0, 3.0),
    "neg-zero-both": (-0.0, -0.0), "inf": (math.inf, 2.0),
}
ILL_TYPED = {
    "bool-bool": (True, True), "bool-nat": (True, 2), "nat-bool": (2, True),
    "str-str": ("a", "b"), "tuple-tuple": ((1, 2), (3, 4)),
}


@pytest.mark.parametrize("op", ast.ARITH_OPS)
@pytest.mark.parametrize("case", sorted(ARITH_OPERANDS))
def test_arith_agrees(op, case):
    binary(ast.Arith, op, *ARITH_OPERANDS[case])


@pytest.mark.parametrize("op", ast.ARITH_OPS)
@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_arith_on_other_kinds_is_apply_ariths_error(op, case):
    """``True + True`` is 2 to the host; only ``apply_arith`` may answer."""
    a, b = ILL_TYPED[case]
    with pytest.raises(EvalError) as caught:
        outcome(ast.Arith(op, A, B), binds={"a": a, "b": b})
    assert str(caught.value) == f"arithmetic {op} on {a!r} and {b!r}"


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_arith_nan_propagates(op):
    for a, b in [(NAN, 1.0), (1.0, NAN), (math.inf, math.inf)]:
        got = outcome(ast.Arith(op, A, B), binds={"a": a, "b": b})
        want = reference_outcome(ast.Arith(op, A, B), binds={"a": a, "b": b})
        assert type(got[1]) is float and repr(got) == repr(want)


def test_arith_zero_divisors_keep_their_reasons():
    assert binary(ast.Arith, "/", 4, 0) == ("bottom", "division by zero")
    assert binary(ast.Arith, "%", 4, 0) == ("bottom", "modulo by zero")
    assert binary(ast.Arith, "/", 4.0, 0.0) == ("bottom", "division by zero")
    assert binary(ast.Arith, "/", 4.0, -0.0) == ("bottom", "division by zero")
    assert binary(ast.Arith, "%", 4.0, 3.0) == \
        ("bottom", "operator % is not defined on reals")
    assert binary(ast.Arith, "-", 3, 9) == ("value", 0)  # monus


@pytest.mark.parametrize("op", ast.ARITH_OPS)
@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_arith_numpy_scalar_takes_the_general_route(op, side):
    """``numpy.float64`` subclasses ``float``: an ``isinstance`` guard
    would hand back a numpy scalar where the calculus has a ``float``."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    prims = {"np64": lambda argument, evaluator: np.float64(argument)}
    boxed = ast.App(ast.Prim("np64"), ast.RealLit(7.5))
    left = boxed if side in ("left", "both") else ast.RealLit(7.5)
    right = boxed if side in ("right", "both") else ast.RealLit(7.5)
    kind, value = agree(ast.Arith(op, left, right), binds={}, prims=prims)
    assert kind == "bottom" or type(value) is float


CMP_OPERANDS = {
    "nat": (3, 5), "nat-equal": (4, 4), "real": (2.5, 1.5),
    "real-equal": (2.5, 2.5), "nan-left": (NAN, 1.0), "nan-right": (1.0, NAN),
    "nan-both": (NAN, NAN), "zeros": (-0.0, 0.0), "nat-real": (1, 1.0),
    "real-nat": (2.5, 2), "nan-nat": (NAN, 1), "strings": ("ab", "b"),
    "strings-equal": ("ab", "ab"), "bools": (False, True),
    "bools-equal": (True, True), "bool-nat": (True, 1), "nat-bool": (0, False),
    "tuples": ((1, 2.0), (1, 2.5)), "tuples-kinds": ((1, 2), (1, 2.0)),
    "sets": (frozenset({1, 2}), frozenset({1, 3})),
    "sets-kinds": (frozenset({1}), frozenset({1.0})),
    "arrays": (Array.from_list([1, 2]), Array.from_list([1, 2])),
}


@pytest.mark.parametrize("op", ast.CMP_OPS)
@pytest.mark.parametrize("case", sorted(CMP_OPERANDS))
def test_cmp_agrees(op, case):
    kind, value = binary(ast.Cmp, op, *CMP_OPERANDS[case])
    assert kind == "value" and type(value) is bool


def test_nan_is_unordered_so_le_and_ge_hold():
    """``compare_values`` answers 0 for NaN against anything; the host's
    ``nan <= 1.0`` is false.  The trap the ``<=``/``>=`` guards avoid."""
    for a, b in [(NAN, 1.0), (1.0, NAN), (NAN, NAN)]:
        assert binary(ast.Cmp, "<=", a, b) == ("value", True)
        assert binary(ast.Cmp, ">=", a, b) == ("value", True)
        assert binary(ast.Cmp, "<", a, b) == ("value", False)
        assert binary(ast.Cmp, ">", a, b) == ("value", False)
        assert binary(ast.Cmp, "=", a, b) == ("value", False)
        assert binary(ast.Cmp, "<>", a, b) == ("value", True)


@pytest.mark.parametrize("op", ast.CMP_OPS)
def test_cmp_numpy_scalar_takes_the_general_route(op):
    """(Against the general routine itself: on numpy scalars the
    reference's ``<>`` hands back a ``numpy.bool``.)"""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    general = COMPARISONS[op][1]
    for a, b in [(np.float64(1.5), 1.5), (1.5, np.float64(NAN)),
                 (np.float64(NAN), np.float64(2.0))]:
        kind, value = outcome(ast.Cmp(op, A, B), binds={"a": a, "b": b})
        want = general(a, b)
        assert kind == "value" and type(value) is type(want)
        assert bool(value) is bool(want)


# ---------------------------------------------------------------------------
# (a) Subscript by rank, (c) TupleE by arity
# ---------------------------------------------------------------------------

DIMS = {1: (5,), 2: (3, 4), 3: (2, 3, 4), 4: (2, 2, 3, 2)}


def backed(rank, backing):
    """A rank-``rank`` array of distinct nats on the asked-for store."""
    dims = DIMS[rank]
    cells = list(range(100, 100 + math.prod(dims)))
    if backing == "flat":
        return Array(dims, cells)
    block = dense.probe_block(tuple(cells), dims)
    array = Array(dims, block.data if block is not None else cells)
    if array.block is None:
        pytest.skip("dense store unavailable")
    return array


def subscript(array, *index):
    names = [f"i{position}" for position in range(len(index))]
    expr = ast.Subscript(ast.Var("arr"), tuple(map(ast.Var, names)))
    return agree(expr, binds={"arr": array, **dict(zip(names, index))})


@pytest.mark.parametrize("backing", ["flat", "block"])
@pytest.mark.parametrize("rank", sorted(DIMS))
class TestSubscriptByRank:
    def test_every_cell(self, rank, backing):
        array = backed(rank, backing)
        before = dense.COUNTERS.dense_hits
        for offset, index in enumerate(itertools.product(
                *map(range, DIMS[rank]))):
            assert subscript(array, *index) == ("value", 100 + offset)
        if backing == "block":
            # production and reference each read every cell off the block
            assert dense.COUNTERS.dense_hits - before == 2 * array.size

    def test_extent_and_beyond_is_bottom(self, rank, backing):
        array = backed(rank, backing)
        last = [extent - 1 for extent in DIMS[rank]]
        assert subscript(array, *last)[0] == "value"
        for axis in range(rank):
            for bad in (DIMS[rank][axis], DIMS[rank][axis] + 7, 10 ** 30):
                index = list(last)
                index[axis] = bad
                kind, reason = subscript(array, *index)
                assert kind == "bottom" and "out of bounds" in reason

    def test_non_natural_indices_are_bottom(self, rank, backing):
        array = backed(rank, backing)
        for bad in (True, 1.0, "1", (0,), None):
            for axis in range(rank):
                index = [0] * rank
                index[axis] = bad
                kind, reason = subscript(array, *index)
                assert kind == "bottom" and "non-natural index" in reason

    def test_wrong_arity_is_bottom(self, rank, backing):
        array = backed(rank, backing)
        for arity in range(1, 6):
            if arity != rank:
                kind, reason = subscript(array, *([0] * arity))
                assert kind == "bottom" and reason == \
                    f"subscript arity {arity} into rank-{rank} array"

    def test_tuple_valued_single_index_is_not_a_rank_k_subscript(
            self, rank, backing):
        """``A[t]`` with ``t = (0, ..., 0)`` is one index that happens to
        be a tuple — an arity ⊥ (a kind ⊥ at rank 1) — although
        ``Array.__getitem__`` itself would accept the tuple."""
        array = backed(rank, backing)
        assert array[(0,) * rank] == 100
        kind, reason = subscript(array, (0,) * rank)
        assert kind == "bottom"
        assert reason == ("non-natural index (0,)" if rank == 1 else
                          f"subscript arity 1 into rank-{rank} array")


def test_subscript_into_non_array_is_an_eval_error():
    for arity in (1, 2, 3, 4):
        expr = ast.Subscript(ast.NatLit(3), (ast.NatLit(0),) * arity)
        with pytest.raises(EvalError, match="subscript into non-array 3"):
            outcome(expr, binds={})


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_tuple_by_arity(arity):
    """(Arity 1 is not a tuple: ``TupleE`` rejects it.)"""
    items = [1, 2.5, "s", frozenset({True}), (0, 0)][:arity]
    names = [f"t{position}" for position in range(arity)]
    kind, value = agree(ast.TupleE(tuple(map(ast.Var, names))),
                        binds=dict(zip(names, items)))
    assert kind == "value" and value == tuple(items)
    # strictness: a ⊥ in any position is the tuple's ⊥
    for position in range(arity):
        parts = [ast.NatLit(1)] * arity
        parts[position] = ast.Bottom()
        assert agree(ast.TupleE(tuple(parts)), binds={}) == \
            ("bottom", "explicit bottom")


# ---------------------------------------------------------------------------
# (d) loop shapes and frames
# ---------------------------------------------------------------------------

X, Y, F = ast.Var("x"), ast.Var("y"), ast.Var("f")


def adder():
    """``fn y => x * 10 + y``: a closure over the loop variable."""
    return ast.Lam("y", ast.Arith("+", ast.Arith("*", X, ast.NatLit(10)), Y))


def let(name, value, body):
    return ast.App(ast.Lam(name, body), value)


class TestFramesArePrivate:
    def test_tabulated_closures_keep_their_own_index(self):
        """``[[ fn y => x*10 + y | x < 3 ]]`` applied after the loop."""
        table = ast.Tabulate(("x",), (ast.NatLit(3),), adder())
        applied = ast.TupleE(tuple(
            ast.App(ast.Subscript(ast.Var("t"), (ast.NatLit(i),)),
                    ast.NatLit(7)) for i in range(3)))
        assert agree(let("t", table, applied), binds={}) == \
            ("value", (7, 17, 27))

    def test_rank_2_tabulated_closures(self):
        body = ast.Lam("y", ast.TupleE((X, ast.Var("z"), Y)))
        table = ast.Tabulate(("x", "z"), (ast.NatLit(2), ast.NatLit(2)), body)
        applied = ast.TupleE(tuple(
            ast.App(ast.Subscript(ast.Var("t"),
                                  (ast.NatLit(i), ast.NatLit(j))),
                    ast.NatLit(9)) for i in range(2) for j in range(2)))
        assert agree(let("t", table, applied), binds={}) == \
            ("value", ((0, 0, 9), (0, 1, 9), (1, 0, 9), (1, 1, 9)))

    @pytest.mark.parametrize("fused", [True, False], ids=["adding", "union"])
    def test_ext_closures_keep_their_own_element(self, fused):
        """``{f!7 | f <- {fn y => x*10 + y | x <- gen 3}}``, with the
        inner body in the fused ``{e}`` shape and in the general one."""
        body = ast.Singleton(adder())
        if not fused:
            body = ast.Union(body, ast.EmptySet())
        closures = ast.Ext("x", body, ast.Gen(ast.NatLit(3)))
        applied = ast.Ext("f", ast.Singleton(ast.App(F, ast.NatLit(7))),
                          closures)
        assert agree(applied, binds={}) == ("value", frozenset({7, 17, 27}))

    def test_sum_closure_survives_a_nested_sum(self):
        """``Σ_x (fn f => Σ_z f!z)!(fn y => x*10 + y)``."""
        inner = ast.Lam("f", ast.Sum("z", ast.App(F, ast.Var("z")),
                                     ast.Gen(ast.NatLit(3))))
        expr = ast.Sum("x", ast.App(inner, adder()), ast.Gen(ast.NatLit(4)))
        assert agree(expr, binds={}) == \
            ("value", sum(x * 10 + z for x in range(4) for z in range(3)))

    @pytest.mark.parametrize("loop", ["sum", "ext", "tabulate"])
    def test_recursive_reentry_of_the_same_code(self, loop):
        """``h = fn self => fn n => LOOP_{i < n} (self!self!i + i + 1)``:
        the loop's one code object is re-entered while an outer
        invocation is mid-iteration and reads ``i`` *after* the inner
        call returns — a frame allocated at compile time would have been
        overwritten by then."""
        again = ast.App(ast.App(ast.Var("self"), ast.Var("self")),
                        ast.Var("i"))
        step = ast.Arith("+", ast.Arith("+", again, ast.Var("i")),
                         ast.NatLit(1))
        n = ast.Var("n")
        if loop == "sum":
            body = ast.Sum("i", step, ast.Gen(n))
        elif loop == "ext":
            members = ast.Ext("i", ast.Singleton(step), ast.Gen(n))
            body = ast.Sum("m", ast.Var("m"), members)
        else:
            cells = ast.Tabulate(("i",), (n,), step)
            body = ast.Sum("k", ast.Subscript(ast.Var("c"), (ast.Var("k"),)),
                           ast.Gen(n))
            body = let("c", cells, body)
        h = ast.Lam("self", ast.Lam("n", body))
        expr = let("h", h, ast.App(ast.App(ast.Var("h"), ast.Var("h")),
                                   ast.NatLit(5)))

        def expected(n):
            per_i = [expected(i) + i + 1 for i in range(n)]
            return sum(set(per_i)) if loop == "ext" else sum(per_i)

        assert agree(expr, binds={}) == ("value", expected(5))

    @pytest.mark.parametrize("loop", ["sum", "ext", "tabulate"])
    def test_bottom_mid_loop_leaves_nothing_behind(self, loop):
        """One prepared plan: ⊥, the same ⊥ again, then a good input."""
        cell = ast.Subscript(ast.Var("arr"), (ast.Var("i"),))
        n = ast.Var("n")
        expr = {"sum": ast.Sum("i", cell, ast.Gen(n)),
                "ext": ast.Ext("i", ast.Singleton(cell), ast.Gen(n)),
                "tabulate": ast.Tabulate(("i",), (n,), cell)}[loop]
        array = Array.from_list([5, 6, 7, 8])
        evaluator = CompiledEvaluator()
        code = evaluator.prepare(expr, ("arr", "n"))
        for _ in range(2):
            with pytest.raises(Exception) as caught:
                evaluator.run(expr, {"arr": array, "n": 6})
            assert caught.value.reason == \
                "index (4,) out of bounds for dims (4,)"
        good = evaluator.run(expr, {"arr": array, "n": 3})
        assert evaluator.prepare(expr, ("arr", "n")) is code
        assert good == {"sum": 18, "ext": frozenset({5, 6, 7}),
                        "tabulate": Array.from_list([5, 6, 7])}[loop]
        assert agree(expr, binds={"arr": array, "n": 3}) == ("value", good)


def test_empty_domain_with_a_huge_axis_is_not_walked():
    """``itertools.product`` unrolls every axis before yielding."""
    for extents in [(10 ** 12, 0), (0, 10 ** 12), (3, 10 ** 12, 0)]:
        names = tuple(f"v{axis}" for axis in range(len(extents)))
        expr = ast.Tabulate(names, tuple(map(ast.NatLit, extents)),
                            ast.Var("v0"))
        assert agree(expr, binds={}) == ("value", Array(extents, []))


def test_gen_source_loops_agree_on_bad_bounds():
    """``gen!n`` iterated as a range still owns ``gen``'s ⊥."""
    for bound in (True, 2.0, "3"):
        for expr in (ast.Sum("i", ast.Var("i"), ast.Gen(ast.Var("n"))),
                     ast.Ext("i", ast.Singleton(ast.Var("i")),
                             ast.Gen(ast.Var("n")))):
            kind, reason = agree(expr, binds={"n": bound})
            assert kind == "bottom"
            assert reason == f"gen of non-natural {bound!r}"


def test_fused_ext_filter_agrees():
    """``if c then {e} else {}`` bodies: ⊥ in ``c`` or ``e`` at the same
    element, any truthy/falsy condition, duplicates collapsing."""
    i = ast.Var("i")
    halves = ast.Arith("/", i, ast.NatLit(2))
    keep = ast.Cmp(">", ast.Arith("%", i, ast.NatLit(3)), ast.NatLit(0))
    source = ast.Gen(ast.NatLit(9))
    assert agree(ast.Ext("i", ast.If(keep, ast.Singleton(halves),
                                     ast.EmptySet()), source),
                 binds={}) == ("value", frozenset({0, 1, 2, 3, 4}))
    poisoned = ast.Arith("/", ast.NatLit(6), ast.Arith("-", ast.NatLit(4), i))
    for body in (ast.If(keep, ast.Singleton(poisoned), ast.EmptySet()),
                 ast.If(ast.Cmp(">", poisoned, ast.NatLit(0)),
                        ast.Singleton(i), ast.EmptySet())):
        assert agree(ast.Ext("i", body, source), binds={}) == \
            ("bottom", "division by zero")


# ---------------------------------------------------------------------------
# (e) collect_index_pairs, rank 1
# ---------------------------------------------------------------------------

class TestIndexPairsRank1:
    GOOD = [(3, "a"), (0, "b"), (3, "c")]

    def test_bare_natural_keys(self):
        items, maxima = collect_index_pairs(self.GOOD, 1)
        assert items == [((3,), "a"), ((0,), "b"), ((3,), "c")]
        assert maxima == [3]
        assert collect_index_pairs([], 1) == ([], [0])

    @pytest.mark.parametrize("bad, message", [
        ((1, 2, 3), "index expects (key, value) pairs, got (1, 2, 3)"),
        ([1, 2], "index expects (key, value) pairs, got [1, 2]"),
        (7, "index expects (key, value) pairs, got 7"),
        ((True, "v"), "bad index key True for rank 1"),
        ((-1, "v"), "bad index key -1 for rank 1"),
        (((1,), "v"), "bad index key (1,) for rank 1"),
        ((1.0, "v"), "bad index key 1.0 for rank 1"),
    ], ids=["triple", "list", "scalar", "bool", "negative", "tuple", "real"])
    def test_malformed_pair_raises_the_general_error_at_that_pair(
            self, bad, message):
        later = ("later", "also bad")
        with pytest.raises(EvalError) as caught:
            collect_index_pairs(self.GOOD + [bad, later], 1)
        assert str(caught.value) == message
        # rank 2 words the same complaints about the same pair
        wide = [((k, k), v) for k, v in self.GOOD]
        with pytest.raises(EvalError) as caught:
            collect_index_pairs(wide + [bad, later], 2)
        assert str(caught.value) == message.replace("rank 1", "rank 2")

    def test_int_subclass_keys_take_the_general_loop(self):
        class Natural(int):
            pass

        items, maxima = collect_index_pairs([(Natural(2), "v")], 1)
        assert items == [((2,), "v")] and maxima == [2]


# ---------------------------------------------------------------------------
# set equality is linear
# ---------------------------------------------------------------------------

class TestSetEquality:
    @staticmethod
    def calls(monkeypatch, a, b):
        counted = [0]
        plain = values.value_equal

        def counting(x, y):
            counted[0] += 1
            return plain(x, y)

        monkeypatch.setattr(values, "value_equal", counting)
        try:
            return counting(a, b), counted[0]
        finally:
            monkeypatch.setattr(values, "value_equal", plain)

    def test_call_count_grows_linearly(self, monkeypatch):
        counts = []
        for n in (200, 400, 800):
            equal, count = self.calls(monkeypatch, frozenset(range(n)),
                                      frozenset(range(n)))
            assert equal
            assert count <= n + 1
            counts.append(count)
        assert counts[2] - counts[1] == 2 * (counts[1] - counts[0])

    def test_nested_sets_stay_linear(self, monkeypatch):
        nested = frozenset(frozenset({i, i + 1}) for i in range(300))
        equal, count = self.calls(monkeypatch, nested,
                                  frozenset(frozenset(sorted(member))
                                            for member in nested))
        assert equal and count <= 1 + 300 * 3

    @pytest.mark.parametrize("a, b, equal", [
        (frozenset({1}), frozenset({1.0}), False),
        (frozenset({1}), frozenset({True}), False),
        (frozenset({0.0}), frozenset({-0.0}), True),
        (frozenset({1, 2.0}), frozenset({1, 2.0}), True),
        (frozenset({1, 2.0}), frozenset({1.0, 2}), False),
        (frozenset({(1, 2.0)}), frozenset({(1, 2)}), False),
        (frozenset({frozenset({1})}), frozenset({frozenset({1.0})}), False),
        (frozenset({frozenset({(1, "a")})}),
         frozenset({frozenset({(1, "a")})}), True),
        (frozenset({Array.from_list([1])}),
         frozenset({Array.from_list([1.0])}), False),
        (frozenset({1, 2}), frozenset({1, 3}), False),
        (frozenset({1, 2}), frozenset({1}), False),
        (frozenset(), frozenset(), True),
        (frozenset({NAN}), frozenset({float("nan")}), False),
    ])
    def test_kind_distinct_members(self, a, b, equal):
        assert value_equal(a, b) is equal
        assert value_equal(b, a) is equal
        assert binary(ast.Cmp, "=", a, b) == ("value", equal)
        assert binary(ast.Cmp, "<>", a, b) == ("value", not equal)
