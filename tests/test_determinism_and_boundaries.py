"""Regression tests for deterministic Σ and the host-error boundaries.

Three historical bugs pinned down:

* Σ iterated its frozenset source in hash order, so a
  Σ over reals could differ between runs/platforms (float addition is
  non-associative) — now it iterates in canonical sorted order;
* host-level ``ValueError``/``RecursionError`` escaped ``run`` as-is,
  crashing callers with non-calculus exceptions — now mapped to ⊥ and
  :class:`~repro.errors.EvalError` at the evaluator boundary;
* ``Session.query_value``'s missing-``;`` retry reported parse errors
  positioned in the silently modified retry text — now the original
  error is re-raised.
"""

import pytest

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.core.eval import Evaluator
from repro.errors import BottomError, EvalError, ParseError
from repro.objects.array import Array
from repro.objects.ordering import canonical_elements
from repro.optimizer.engine import default_optimizer
from repro.surface.parser import parse_program
from repro.types.types import TArrow, TNat

from conftest import agree


class ForwardSet(frozenset):
    """A frozenset iterating in ascending sorted order."""

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self)))


class ReversedSet(frozenset):
    """A frozenset iterating in descending sorted order — emulates a
    different hash seed / platform layout of the same set."""

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self), reverse=True))


#: reals chosen so that left-to-right float Σ depends on the order:
#: ascending gives 2.0, descending gives 4.0
ORDER_SENSITIVE = (-1e16, 1.0, 2.0, 1e16)


def _sum_expr():
    return ast.Sum("x", ast.Var("x"), ast.Var("s"))


class TestSumDeterminism:
    def test_chosen_values_really_are_order_sensitive(self):
        ascending = 0.0
        for v in sorted(ORDER_SENSITIVE):
            ascending += v
        descending = 0.0
        for v in sorted(ORDER_SENSITIVE, reverse=True):
            descending += v
        assert ascending != descending  # otherwise the test proves nothing

    def test_sum_ignores_source_iteration_order(self):
        results = set()
        for set_type in (frozenset, ForwardSet, ReversedSet):
            results.add(agree(_sum_expr(),
                              binds={"s": set_type(ORDER_SENSITIVE)})[1])
        assert len(results) == 1, f"order-dependent Σ: {results}"

    def test_sum_is_pinned_to_canonical_order(self):
        expected = 0
        for v in canonical_elements(frozenset(ORDER_SENSITIVE)):
            expected = expected + v
        got = agree(_sum_expr(), binds={"s": ReversedSet(ORDER_SENSITIVE)})
        assert got == ("value", expected)

    def test_engine_agrees_with_reference_on_real_sum(self):
        source = frozenset({0.25, -2.75, 1.5, 1e15, -0.125})
        assert agree(_sum_expr(), binds={"s": source})[0] == "value"

    def test_canonical_elements_sorts_scalars_and_structures(self):
        assert canonical_elements(frozenset({3, 1, 2})) == [1, 2, 3]
        assert canonical_elements([2.5, -1.0]) == [-1.0, 2.5]
        # non-natively-sortable elements fall back to the canonical
        # object order rather than raising
        pairs = canonical_elements(frozenset({(2, 1), (1, 9), (1, 2)}))
        assert pairs == [(1, 2), (1, 9), (2, 1)]


def _deep_arith(depth: int) -> ast.Expr:
    expr: ast.Expr = ast.NatLit(1)
    for _ in range(depth):
        expr = ast.Arith("+", expr, ast.NatLit(1))
    return expr


class TestHostErrorBoundaries:
    DEPTH = 100_000

    def test_reference_maps_recursion_to_eval_error(self):
        with pytest.raises(EvalError) as err:
            Evaluator().run(_deep_arith(self.DEPTH))
        assert "depth limit" in str(err.value)

    def test_engine_maps_recursion_to_eval_error(self):
        with pytest.raises(EvalError) as err:
            CompiledEvaluator().run(_deep_arith(self.DEPTH))
        assert "depth limit" in str(err.value)

    def test_optimizer_survives_out_nesting_input(self):
        deep = _deep_arith(self.DEPTH)
        # the rewriter must stay transparent: return its best-so-far
        # rather than blowing the host stack
        result = default_optimizer().optimize(deep)
        assert isinstance(result, ast.Expr)

    def test_primitive_value_error_becomes_bottom(self, session):
        def misbuild(_value):
            return Array((2, 2), [0])  # wrong cell count -> ValueError

        session.register_co("misbuild", misbuild, TArrow(TNat(), TNat()))
        with pytest.raises(BottomError) as err:
            session.query_value("misbuild!0;")
        assert "host value error" in str(err.value)

    def test_direct_array_misuse_still_raises_value_error(self):
        # the mapping lives at the evaluator boundary; the Array type
        # itself keeps its host-level contract
        with pytest.raises(ValueError):
            Array((2, 2), [0])

    def test_primitive_reshape_mismatch_becomes_bottom(self, session):
        def misshape(_value):
            return Array((2,), [1, 2]).reshape((3,))  # ValueError

        session.register_co("misshape", misshape, TArrow(TNat(), TNat()))
        with pytest.raises(BottomError) as err:
            session.query_value("misshape!0;")
        assert "host value error" in str(err.value)

    def test_primitive_negative_dim_becomes_bottom(self, session):
        def misdim(_value):
            return Array((-1,), [])  # ValueError: negative dimension

        session.register_co("misdim", misdim, TArrow(TNat(), TNat()))
        with pytest.raises(BottomError):
            session.query_value("misdim!0;")

    def test_reader_value_error_becomes_bottom(self, session):
        def bad_reader(_args):
            return Array((2, 2), [0])  # wrong cell count -> ValueError

        session.env.drivers.register_reader("BADREAD", bad_reader)
        with pytest.raises(BottomError) as err:
            session.run('readval \\v using BADREAD at "x";')
        assert "host value error" in str(err.value)

    def test_writer_value_error_becomes_bottom(self, session):
        def bad_writer(value, _args):
            Array((3,), value.flat).reshape((5,))  # ValueError

        session.env.drivers.register_writer("BADWRITE", bad_writer)
        with pytest.raises(BottomError) as err:
            session.run('writeval [[1, 2, 3]] using BADWRITE at "x";')
        assert "host value error" in str(err.value)


class TestQueryValueParseErrors:
    def test_missing_semicolon_is_forgiven(self, session):
        assert session.query_value("1 + 2") == 3

    def test_real_parse_error_reports_original_position(self, session):
        source = "1 +"
        with pytest.raises(ParseError) as direct:
            parse_program(source)
        with pytest.raises(ParseError) as via_session:
            session.query_value(source)
        assert str(via_session.value) == str(direct.value)

    def test_error_does_not_mention_retry_text(self, session):
        # "(1" fails both bare and with the appended ";" — the message
        # must describe the 2-character source the caller wrote, not a
        # position past its end
        with pytest.raises(ParseError) as err:
            session.query_value("(1")
        assert str(err.value) == str(_parse_error_of("(1"))


def _parse_error_of(source: str) -> ParseError:
    try:
        parse_program(source)
    except ParseError as exc:
        return exc
    raise AssertionError("expected a parse error")  # pragma: no cover
