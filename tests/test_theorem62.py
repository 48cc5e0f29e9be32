"""T2 — Theorem 6.2: arrays ≡ ranking (NRC_r and NBC_r).

Executable artifacts:

* the ⋃_r construct and the paper's ``rank`` example;
* ``eliminate_rank``: NRC_r → NRC^aggr (⊆ NRCA) preserving semantics —
  the inclusion "ranking is no more expressive than arrays";
* array↔ranked-set conversions: ``set_to_array_by_rank`` shows NRCA
  expressing order-into-arrays, the other direction of the equivalence;
* the ⊎_r construct with consecutive ranks for equal bag values, and the
  "n as a bag of n units" simulation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import evaluate
from repro.expressiveness.bags import (
    bag_of_nat,
    bag_rank_expr,
    deep_bag_to_set,
    deep_set_to_bag,
    nat_of_bag,
    set_to_bag,
)
from repro.expressiveness.fragments import (
    fragment_of,
    in_nbc,
    in_nbc_r,
    in_nrc,
    in_nrc_aggr,
    in_nrc_r,
    in_nrca,
)
from repro.expressiveness.rank import (
    array_to_ranked_graph,
    eliminate_rank,
    rank_expr,
    rank_of,
    set_to_array_by_rank,
)
from repro.objects.array import Array
from repro.objects.bag import Bag

from conftest import nat_sets, values

N = ast.NatLit
V = ast.Var


class TestRankConstruct:
    def test_rank_example(self):
        out = evaluate(rank_expr(ast.Const(frozenset({"b", "a", "c"}))))
        assert out == frozenset({("a", 1), ("b", 2), ("c", 3)})

    def test_rank_respects_canonical_order_on_sets(self):
        source = frozenset({frozenset({1, 2}), frozenset()})
        out = evaluate(rank_expr(ast.Const(source)))
        assert (frozenset(), 1) in out
        assert (frozenset({1, 2}), 2) in out

    def test_rank_of_empty(self):
        assert evaluate(rank_expr(ast.EmptySet())) == frozenset()

    def test_extrank_body_sees_both_binders(self):
        e = ast.ExtRank(
            "x", "i",
            ast.Singleton(ast.Arith("+", V("x"), V("i"))),
            ast.Const(frozenset({10, 20})),
        )
        assert evaluate(e) == frozenset({11, 22})

    def test_rank_expr_is_in_nrc_r(self):
        e = rank_expr(V("S"))
        assert in_nrc_r(e)
        assert not in_nrc(e)


class TestRankElimination:
    @given(nat_sets)
    @settings(max_examples=30)
    def test_preserves_rank_semantics(self, s):
        e = rank_expr(ast.Const(s))
        eliminated = eliminate_rank(e)
        assert evaluate(eliminated) == evaluate(e)

    def test_output_has_no_rank_construct(self):
        eliminated = eliminate_rank(rank_expr(V("S")))
        assert not any(isinstance(t, ast.ExtRank)
                       for t in ast.subterms(eliminated))
        assert in_nrca(eliminated)
        assert in_nrc_aggr(eliminated)  # doesn't even need gen or arrays

    def test_nested_rank(self):
        inner = rank_expr(V("S"))
        outer = ast.ExtRank(
            "p", "j", ast.Singleton(ast.TupleE((V("p"), V("j")))), inner
        )
        env = {"S": frozenset({5, 3})}
        assert evaluate(eliminate_rank(outer), env) == \
            evaluate(outer, env)

    @given(nat_sets, st.integers(0, 50))
    def test_rank_of_formula(self, s, probe):
        # rank_of(x, S) counts elements <= x
        e = rank_of(N(probe), ast.Const(s))
        assert evaluate(e) == sum(1 for y in s if y <= probe)


class TestArraysViaRanking:
    def test_array_to_ranked_graph(self):
        arr = Array.from_list(["p", "q"])
        out = evaluate(array_to_ranked_graph(ast.Const(arr)))
        assert out == frozenset({(0, "p"), (1, "q")})

    @given(nat_sets)
    @settings(max_examples=30)
    def test_set_to_array_by_rank(self, s):
        out = evaluate(set_to_array_by_rank(ast.Const(s)))
        assert out == Array.from_list(sorted(s))

    def test_sorting_strings(self):
        out = evaluate(set_to_array_by_rank(
            ast.Const(frozenset({"pear", "apple"}))))
        assert out == Array.from_list(["apple", "pear"])


class TestBagsAndNBCr:
    def test_nat_as_bag_simulation(self):
        assert nat_of_bag(bag_of_nat(0)) == 0
        assert nat_of_bag(bag_of_nat(7)) == 7
        assert bag_of_nat(3).count(True) == 3

    def test_bag_rank_consecutive_for_equal_values(self):
        out = evaluate(bag_rank_expr(ast.Const(Bag(["a", "a", "b"]))))
        assert out == Bag([("a", 1), ("a", 2), ("b", 3)])

    def test_bag_rank_makes_duplicates_distinct(self):
        # the size-preserving injection that lets NBC_r count
        bag = Bag(["x"] * 5)
        out = evaluate(bag_rank_expr(ast.Const(bag)))
        assert len(out.support()) == 5

    def test_bag_rank_is_in_nbc_r(self):
        e = bag_rank_expr(V("B"))
        assert in_nbc_r(e)
        assert not in_nbc(e)

    @given(nat_sets)
    def test_set_bag_conversions(self, s):
        assert deep_bag_to_set(deep_set_to_bag(s)) == s
        assert set_to_bag(s).support() == s

    def test_deep_conversion_nested(self):
        v = frozenset({(1, frozenset({2, 3}))})
        bagged = deep_set_to_bag(v)
        assert isinstance(bagged, Bag)
        assert deep_bag_to_set(bagged) == v


class TestFragments:
    def test_fragment_classification(self):
        assert fragment_of(ast.Singleton(ast.BoolLit(True))) == "NRC"
        assert fragment_of(ast.Sum("x", V("x"), V("S"))) == "NRC^aggr"
        assert fragment_of(ast.Gen(N(3))) == "NRC^aggr(gen)"
        assert fragment_of(ast.Tabulate(("i",), (N(1),), N(0))) == "NRCA"
        assert fragment_of(rank_expr(V("S"))) == "NRC_r"
        assert fragment_of(ast.EmptyBag()) == "NBC"
        assert fragment_of(bag_rank_expr(V("B"))) == "NBC_r"

    def test_nrca_includes_aggr_gen(self):
        e = ast.Sum("x", V("x"), ast.Gen(N(4)))
        assert in_nrca(e)

    def test_mixed_extensions_fall_through(self):
        e = ast.BagUnion(ast.EmptyBag(), ast.SingletonBag(
            ast.Tabulate(("i",), (N(1),), N(0))))
        assert fragment_of(e) == "NRCA+extensions"
