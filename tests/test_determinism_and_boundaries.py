"""Regression tests for deterministic Σ and the host-error boundaries.

Also pinned: nesting deeper than the host parser accepts (emitted code
spills into locals and splits into helper functions), and primitives
whose results have the wrong kind for their declared type.  Historical
bugs pinned down:

* Σ iterated its frozenset source in hash order, so a
  Σ over reals could differ between runs/platforms (float addition is
  non-associative) — now it iterates in canonical sorted order;
* host-level ``ValueError``/``RecursionError`` escaped ``run`` as-is,
  crashing callers with non-calculus exceptions — now mapped to ⊥ and
  :class:`~repro.errors.EvalError` at the evaluator boundary;
* an 800-term ``1 + … + 1``, which parses by a loop, let the
  desugarer's ``RecursionError`` out of every ``Session`` entry point —
  now a :class:`~repro.errors.NestingError` from ``Session.execute``;
* ``Session.query_value``'s missing-``;`` retry reported parse errors
  positioned in the silently modified retry text — now the original
  error is re-raised.
"""

import io
import re
import sys

import pytest

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.core.eval import Evaluator
from repro.errors import (BottomError, EvalError, LexError, NestingError,
                          ParseError)
from repro.objects.array import Array
from repro.objects.ordering import canonical_elements
from repro.obs.metrics import EvalMetrics
from repro.optimizer.engine import default_optimizer
from repro.surface.parser import parse_program
from repro.system import repl
from repro.system.session import Session
from repro.types.types import TArray, TArrow, TNat, TProduct, TReal, TSet

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


@pytest.mark.xfail(strict=True, reason=(
    "known deviation: an empty Σ is the nat 0 whatever its body's type "
    "(typ says real); both engines agree, and fixing it needs the body's "
    "type at emission — docs/LANGUAGE.md, ROADMAP item 19"))
def test_empty_real_sum_is_the_real_zero(session):
    value = session.query_value(r"summap(fn \i => 1.5)!(gen!0);")
    assert type(value) is float and value == 0.0
    assert session.query_value(r"summap(fn \i => 1.5)!(gen!0) = 0.0;")


@pytest.mark.xfail(strict=True, reason=(
    "known deviation: a nat val may be negative, and β^p "
    "(optimizer/rules_arrays.py) guards only `i < bound`, so the optimized "
    "plan returns -3 where the unoptimized one is ⊥ — docs/LANGUAGE.md; "
    "the fix is a boundary rule or a β^p guard (ROADMAP item 19)"))
def test_a_negative_nat_subscript_is_bottom_with_the_optimizer_on():
    outcomes = []
    for optimize in (False, True):
        session = Session(optimize=optimize)
        session.env.set_val("n", -3)
        try:
            outcomes.append(session.query_value(r"[[ i | \i < 3 ]][n];"))
        except BottomError:
            outcomes.append("bottom")
    assert outcomes == ["bottom", "bottom"]


def _deep_arith(depth: int) -> ast.Expr:
    expr: ast.Expr = ast.NatLit(1)
    for _ in range(depth):
        expr = ast.Arith("+", expr, ast.NatLit(1))
    return expr


def _nested_comprehension(depth: int) -> ast.Expr:
    """``{x_{d-1} | x_0 <- {0}, x_1 <- {x_0}, …}``: each generator ranges
    over a singleton of the previous variable, so the loops nest."""
    names = [f"x{level}" for level in range(depth)]
    expr: ast.Expr = ast.Singleton(ast.Var(names[-1]))
    for level in range(depth - 1, -1, -1):
        source = ast.Singleton(ast.Var(names[level - 1]) if level
                               else ast.NatLit(0))
        expr = ast.Ext(names[level], expr, source)
    return expr


def _nested_tabulation_sum(depth: int) -> ast.Expr:
    """Alternating ``Σ_{s < 1}`` and ``[[ … | t < 2 ]][1]`` levels (odd
    ``depth``) around ``t + 1`` for the innermost tabulation index."""
    expr: ast.Expr = ast.Arith("+", ast.Var(f"v{depth - 2}"), ast.NatLit(1))
    for level in range(depth - 1, -1, -1):
        name = f"v{level}"
        if level % 2:
            expr = ast.Subscript(
                ast.Tabulate((name,), (ast.NatLit(2),), expr),
                (ast.NatLit(1),))
        else:
            expr = ast.Sum(name, expr, ast.Gen(ast.NatLit(1)))
    return expr


class TestNestingLimits:
    """Nesting the host's parser refuses (200 parentheses, 20 blocks)
    still evaluates; only nesting past the host stack is an error."""

    @pytest.mark.parametrize("probed", [False, True])
    def test_deep_arith_chain(self, probed):
        probe = EvalMetrics() if probed else None
        assert agree(_deep_arith(400), binds={}, probe=probe) == \
            ("value", 401)

    @pytest.mark.parametrize("probed", [False, True])
    def test_deep_nested_comprehension(self, probed):
        probe = EvalMetrics() if probed else None
        assert agree(_nested_comprehension(60), binds={}, probe=probe) == \
            ("value", frozenset({0}))

    @pytest.mark.parametrize("probed", [False, True])
    def test_deep_nested_tabulation_and_sum(self, probed):
        probe = EvalMetrics() if probed else None
        assert agree(_nested_tabulation_sum(25), binds={}, probe=probe) == \
            ("value", 2)

    def test_chain_past_the_host_stack_is_the_depth_limit(self):
        with pytest.raises(EvalError) as err:
            CompiledEvaluator().run(_deep_arith(1000))
        assert "depth limit" in str(err.value)


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


class TestFrontEndHostErrors:
    """Text the front end cannot read is a positioned LexError or
    ParseError out of ``Session.run``, never a host ``ValueError``."""

    @pytest.mark.parametrize("source, column", [
        ("²;", 1), ("١٢;", 1), ("𝟙;", 1), ("1 + 2²;", 6)])
    def test_non_ascii_numerals_are_lex_errors(self, session, source,
                                               column):
        with pytest.raises(LexError) as err:
            session.run(source)
        assert (err.value.line, err.value.column) == (1, column)

    def test_overlong_natural_is_a_parse_error(self, session):
        with pytest.raises(ParseError, match="too long"):
            session.run("1" * 5000 + ";")


#: statements the parser reads by a loop but later stages recurse on,
#: once per operator: ``terms`` terms of each
CHAINS = {
    "arith": lambda terms: "1" + " + 1" * (terms - 1) + ";",
    "union": lambda terms: "A" + " union A" * (terms - 1) + ";",
    "and": lambda terms: "true" + " and true" * (terms - 1) + ";",
    "qualifiers": lambda terms: r"{x | \x <- A" + ", x > 0" * terms + "};",
}


class TestLongChains:
    """A chain too long for the desugarer's recursion is a typed
    :class:`NestingError` out of every ``Session`` entry point, and the
    session stays usable; a shorter one runs."""

    @pytest.fixture()
    def chained(self, session):
        session.env.set_val("A", frozenset({1, 2}))
        return session

    @pytest.mark.parametrize("chain", CHAINS)
    def test_four_hundred_terms_run(self, chained, chain):
        assert chained.query_value(CHAINS[chain](400)) is not None

    @pytest.mark.parametrize("entry", ["run", "query_value", "explain"])
    @pytest.mark.parametrize("chain", CHAINS)
    def test_five_thousand_terms_are_a_nesting_error(self, chained, chain,
                                                     entry):
        with pytest.raises(NestingError, match="too deeply nested"):
            getattr(chained, entry)(CHAINS[chain](5000))
        assert chained.query_value("1 + 2;") == 3
        assert not chained.env.obs.enabled

    def test_the_repl_reports_it_and_carries_on(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            CHAINS["arith"](5000) + "\n7;\n"))
        assert repl.main([]) == 0
        out = capsys.readouterr().out
        assert "error: expression too deeply nested" in out
        assert "val it = 7" in out


class TestPrimitiveResultKinds:
    """A registered primitive whose result has the wrong outer kind for
    its declared type is a typed error naming it — never a host
    exception escaping ``Session.run``, never a wrongly typed answer."""

    @pytest.fixture()
    def liar(self, session):
        session.register_co("liar", lambda n: n, TArrow(TNat(), TSet(TNat())))
        return session

    @pytest.mark.parametrize("statement", [
        "get!(liar!3);",
        "count!(liar!3);",
        r"summap(fn \x => x)!(liar!3);",
        r"{x | \x <- liar!3};",
    ])
    def test_ill_kinded_result_is_an_eval_error(self, liar, statement):
        with pytest.raises(EvalError, match="primitive 'liar' returned a nat"):
            liar.run(statement)

    @pytest.mark.parametrize("result, declared, misfit", [
        (frozenset({1.5}), TSet(TNat()), "a set holding a real"),
        ((1, 2), TProduct((TNat(), TReal())), "a tuple holding a nat"),
        (frozenset({(1, True)}), TSet(TProduct((TNat(), TNat()))),
         "a set holding a tuple holding a bool"),
        (Array.from_list([1, 2.5]), TArray(TNat(), 1),
         "an array holding a real"),
        (Array.from_list([1, 2]), TArray(TNat(), 2), "a rank-1 array"),
        (True, TNat(), "a bool"),
    ])
    def test_elements_are_checked_in_both_engines(self, session, result,
                                                  declared, misfit):
        """A result is checked down to its elements, once per value: a
        plan typed from the declared type would trust every one."""
        session.register_co("liar", lambda n: result, TArrow(TNat(), declared))
        message = f"primitive 'liar' returned {misfit}, not the {declared}"
        core = session.env.resolve(ast.App(ast.Var("liar"), ast.NatLit(3)))
        for engine in (CompiledEvaluator(session.env._prim_impls),
                       Evaluator(session.env._prim_impls)):
            with pytest.raises(EvalError, match=re.escape(message)):
                engine.run(core)

    def test_a_dense_result_is_checked_by_its_tag(self, session):
        numpy = pytest.importorskip("numpy")
        session.register_co("reals", lambda n: Array((2,), numpy.zeros(2)),
                            TArrow(TNat(), TArray(TNat(), 1)))
        with pytest.raises(EvalError, match="returned an array of real"):
            session.run("reals!2;")

    def test_well_kinded_results_pass(self, session):
        session.register_co("evens", lambda n: frozenset(range(0, n, 2)),
                            TArrow(TNat(), TSet(TNat())))
        assert session.query_value("count!(evens!7);") == 4

    def test_get_of_a_non_collection_is_an_eval_error_in_both_engines(self):
        expr = ast.Get(ast.NatLit(3))
        for engine in (CompiledEvaluator(), Evaluator()):
            with pytest.raises(EvalError, match="get of non-collection 3"):
                engine.run(expr)


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
