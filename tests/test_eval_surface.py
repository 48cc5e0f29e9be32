"""End-to-end surface-query evaluation (parse → desugar → evaluate).

A broad battery of AQL queries checked against expected values, plus
hypothesis round-trips between AQL and Python semantics.
"""

import pytest
from hypothesis import given

from repro.core import evaluate
from repro.errors import BottomError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression

from conftest import nat_arrays, nat_sets


def run(source, **binds):
    return evaluate(desugar_expression(parse_expression(source)), binds)


class TestSetQueries:
    def test_cross_product(self):
        assert run("{(x, y) | \\x <- {1,2}, \\y <- {10}}") == \
            frozenset({(1, 10), (2, 10)})

    def test_intersection_via_membership(self):
        assert run("{x | \\x <- A, x in B}",
                   A=frozenset({1, 2, 3}), B=frozenset({2, 3, 4})) == \
            frozenset({2, 3})

    def test_difference_via_negation(self):
        assert run("{x | \\x <- A, not (x in B)}",
                   A=frozenset({1, 2, 3}), B=frozenset({2})) == \
            frozenset({1, 3})

    def test_natural_join(self):
        got = run("{(x, y, z) | (\\x, \\y) <- R, (y, \\z) <- S}",
                  R=frozenset({(1, "a"), (2, "b")}),
                  S=frozenset({("a", True), ("b", False), ("c", True)}))
        assert got == frozenset({(1, "a", True), (2, "b", False)})

    @given(nat_sets)
    def test_identity_comprehension(self, s):
        assert run("{x | \\x <- S}", S=s) == s

    @given(nat_sets)
    def test_summap_counts(self, s):
        assert run("summap(fn \\x => 1)!(S)", S=s) == len(s)


class TestArrayQueries:
    def test_tabulate(self):
        assert run("[[i * i | \\i < 4]]") == Array((4,), [0, 1, 4, 9])

    def test_two_dim_tabulate_and_subscript(self):
        assert run("[[i * 10 + j | \\i < 2, \\j < 2]][1, 0]") == 10

    def test_row_major_literal(self):
        assert run("[[2, 2; 1, 2, 3, 4]]") == Array((2, 2), [1, 2, 3, 4])

    def test_subscript_arithmetic_index(self):
        assert run("A[1 + 1]", A=Array.from_list([5, 6, 7])) == 7

    def test_out_of_bounds(self):
        with pytest.raises(BottomError):
            run("A[9]", A=Array.from_list([1]))

    @given(nat_arrays)
    def test_len(self, arr):
        assert run("len!A", A=arr) == len(arr)

    def test_dim_2_destructuring(self):
        got = run("let val (\\m, \\n) = dim_2!M in m * 100 + n end",
                  M=Array((3, 4), range(12)))
        assert got == 304

    def test_nested_array_of_arrays(self):
        got = run("[[ [[j | \\j < i + 1]] | \\i < 3 ]]")
        assert got[2] == Array.from_list([0, 1, 2])


class TestMixedQueries:
    def test_evenpos_on_values(self):
        got = run("[[A[i * 2] | \\i < len!A / 2]]",
                  A=Array.from_list([0, 1, 2, 3, 4]))
        assert got == Array((2,), [0, 2])

    def test_rng_via_array_generator(self):
        assert run("{x | [_ : \\x] <- A}",
                   A=Array.from_list([3, 3, 5])) == frozenset({3, 5})

    def test_index_groupby(self):
        got = run('index!{(1, "a"), (3, "b"), (1, "c")}')
        assert got == Array((4,), [
            frozenset(), frozenset({"a", "c"}), frozenset(),
            frozenset({"b"}),
        ])

    def test_get_of_filtered_singleton(self):
        assert run("get!{x | \\x <- S, x > 10}",
                   S=frozenset({3, 12})) == 12

    def test_string_comparison(self):
        assert run('{w | \\w <- S, w < "m"}',
                   S=frozenset({"apple", "pear"})) == frozenset({"apple"})

    def test_real_filters(self):
        assert run("{t | \\t <- S, t > 85.0}",
                   S=frozenset({84.5, 85.5, 90.0})) == \
            frozenset({85.5, 90.0})


class TestBags:
    def test_bag_comprehension_keeps_multiplicity(self):
        assert run("{|x + 1 | \\x <- B|}", B=Bag([1, 1, 2])) == \
            Bag([2, 2, 3])

    def test_bag_union_adds(self):
        assert run("{|1|} bunion {|1|}") == Bag([1, 1])

    def test_bag_literal(self):
        assert run("{|1, 1, 2|}") == Bag([1, 1, 2])

    def test_bag_flatten(self):
        got = run("{|y | \\x <- B, \\y <- {|x, x|}|}", B=Bag([1, 2]))
        assert got == Bag([1, 1, 2, 2])


class TestConditionalsAndArith:
    def test_monus(self):
        assert run("2 - 5") == 0

    def test_precedence(self):
        assert run("2 + 3 * 4") == 14

    def test_if_chain(self):
        assert run("if 1 > 2 then 10 else if 2 > 1 then 20 else 30") == 20

    def test_mod_and_div(self):
        assert run("(17 / 5, 17 % 5)") == (3, 2)

    def test_real_division(self):
        assert run("1.0 / 4.0") == 0.25

    def test_comparison_chain_with_and(self):
        assert run("1 < 2 and 2 < 3") is True


class TestLexicalScoping:
    def test_shadowing_in_comprehension(self):
        assert run("{x | \\x <- {1, 2}, \\x <- {x * 10}}") == \
            frozenset({10, 20})

    def test_lambda_shadowing(self):
        assert run("(fn \\x => (fn \\x => x)!(x + 1))!5") == 6

    def test_tabulate_index_scope(self):
        got = run("[[ [[i + j | \\j < 2]] | \\i < 2 ]]")
        assert got[1] == Array((2,), [1, 2])
