"""Tests for the AQL parser (surface syntax of Sections 1, 3, 4)."""

import hashlib

import pytest

from repro.errors import AQLError, ParseError
from repro.surface import sast as S
from repro.surface.parser import parse_expression, parse_program
from repro.system.session import Session

from conftest import PARSE_DIGESTS


class TestAtoms:
    def test_literals(self):
        assert parse_expression("42") == S.SNat(42)
        assert parse_expression("2.5") == S.SReal(2.5)
        assert parse_expression('"x"') == S.SStr("x")
        assert parse_expression("true") == S.SBool(True)
        assert parse_expression("bottom") == S.SBottom()

    def test_tuple_vs_paren(self):
        assert parse_expression("(1)") == S.SNat(1)
        assert parse_expression("(1, 2)") == S.STuple((S.SNat(1), S.SNat(2)))

    def test_set_literals(self):
        assert parse_expression("{}") == S.SSetLit(())
        assert parse_expression("{1}") == S.SSetLit((S.SNat(1),))
        assert parse_expression("{1, 2}") == \
            S.SSetLit((S.SNat(1), S.SNat(2)))

    def test_bag_literals(self):
        assert parse_expression("{||}") == S.SBagLit(())
        assert parse_expression("{|1|}") == S.SBagLit((S.SNat(1),))
        assert parse_expression("{|1, 1|}") == \
            S.SBagLit((S.SNat(1), S.SNat(1)))


class TestArraysSyntax:
    def test_empty_array(self):
        assert parse_expression("[[]]") == S.SArrayLit(())

    def test_array_literal(self):
        assert parse_expression("[[1, 2]]") == \
            S.SArrayLit((S.SNat(1), S.SNat(2)))

    def test_row_major_literal(self):
        e = parse_expression("[[2, 2; 1, 2, 3, 4]]")
        assert isinstance(e, S.SArrayRowMajor)
        assert len(e.dims) == 2
        assert len(e.items) == 4

    def test_tabulation(self):
        e = parse_expression("[[i * 2 | \\i < 10]]")
        assert isinstance(e, S.STabulate)
        assert e.binders[0][0] == "i"

    def test_tabulation_multi_dim(self):
        e = parse_expression("[[i + j | \\i < 2, \\j < 3]]")
        assert [b[0] for b in e.binders] == ["i", "j"]

    def test_nested_array_literal(self):
        e = parse_expression("[[ [[1]], [[2]] ]]")
        assert isinstance(e, S.SArrayLit)
        assert all(isinstance(i, S.SArrayLit) for i in e.items)

    def test_subscript(self):
        e = parse_expression("A[i]")
        assert isinstance(e, S.SSubscript)

    def test_subscript_multi(self):
        e = parse_expression("M[i, j]")
        assert len(e.indices) == 2

    def test_nested_subscript(self):
        e = parse_expression("A[B[0]]")
        assert isinstance(e, S.SSubscript)
        assert isinstance(e.indices[0], S.SSubscript)

    def test_empty_subscript_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("A[]")


class TestOperators:
    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_left_associativity(self):
        e = parse_expression("10 - 2 - 3")
        assert e.op == "-"
        assert e.left.op == "-"

    def test_comparison_over_arith(self):
        e = parse_expression("a + 1 < b * 2")
        assert e.op == "<"

    def test_and_or_not(self):
        e = parse_expression("not a and b or c")
        assert e.op == "or"
        assert e.left.op == "and"
        assert isinstance(e.left.left, S.SNot)

    def test_membership(self):
        e = parse_expression("x in S")
        assert isinstance(e, S.SIn)

    def test_union(self):
        e = parse_expression("{1} union {2}")
        assert e.op == "union"

    def test_application_bang(self):
        e = parse_expression("gen!30")
        assert isinstance(e, S.SApp)

    def test_application_binds_tighter_than_cmp(self):
        e = parse_expression("heatindex!(A) > threshold")
        assert e.op == ">"
        assert isinstance(e.left, S.SApp)

    def test_chained_application(self):
        e = parse_expression("f!x!y")
        assert isinstance(e, S.SApp)
        assert isinstance(e.fn, S.SApp)

    def test_call_syntax(self):
        e = parse_expression("summap(f)!(gen!3)")
        assert isinstance(e, S.SApp)
        assert isinstance(e.fn, S.SCall)


class TestBindingForms:
    def test_fn(self):
        e = parse_expression("fn \\x => x + 1")
        assert isinstance(e, S.SLam)
        assert e.pattern == S.PBind("x")

    def test_fn_tuple_pattern(self):
        e = parse_expression("fn (\\a, _, \\c) => a")
        assert isinstance(e.pattern, S.PTuple)

    def test_if(self):
        e = parse_expression("if a then 1 else 2")
        assert isinstance(e, S.SIf)

    def test_let_single(self):
        e = parse_expression("let val \\x = 1 in x end")
        assert isinstance(e, S.SLet)
        assert len(e.bindings) == 1

    def test_let_multiple(self):
        e = parse_expression("let val \\x = 1 val \\y = x in y end")
        assert len(e.bindings) == 2

    def test_let_membership_in_rhs_parenthesized(self):
        e = parse_expression("let val \\x = (1 in S) in x end")
        assert isinstance(e.bindings[0][1], S.SIn)

    def test_let_requires_binding(self):
        with pytest.raises(ParseError):
            parse_expression("let in 1 end")


class TestComprehensions:
    def test_generator(self):
        e = parse_expression("{x | \\x <- S}")
        assert isinstance(e.qualifiers[0], S.GGen)

    def test_filter(self):
        e = parse_expression("{x | \\x <- S, x > 2}")
        assert isinstance(e.qualifiers[1], S.GFilter)

    def test_binding_shorthand_both_spellings(self):
        for op in (":==", "=="):
            e = parse_expression("{y | \\y %s 1+2}" % op)
            assert isinstance(e.qualifiers[0], S.GBind)

    def test_pattern_generator(self):
        e = parse_expression("{x | (\\x, \\y) <- R}")
        assert isinstance(e.qualifiers[0].pattern, S.PTuple)

    def test_non_binding_pattern(self):
        e = parse_expression("{z | (y, \\z) <- S}")
        pattern = e.qualifiers[0].pattern
        assert pattern.items[0] == S.PVarEq("y")

    def test_constant_pattern(self):
        e = parse_expression("{x | (_, 0, \\x) <- R}")
        pattern = e.qualifiers[0].pattern
        assert pattern.items[1] == S.PConst(0)

    def test_array_generator(self):
        e = parse_expression("{i | [\\i : \\x] <- A}")
        assert isinstance(e.qualifiers[0], S.GArrayGen)

    def test_array_generator_tuple_index(self):
        e = parse_expression("{h | [(\\h, _, _) : \\t] <- T}")
        gen = e.qualifiers[0]
        assert isinstance(gen.index_pattern, S.PTuple)
        assert len(gen.index_pattern.items) == 3

    def test_bag_comprehension(self):
        e = parse_expression("{|x | \\x <- B|}")
        assert isinstance(e, S.SBagComp)

    def test_filter_expression_can_use_in(self):
        e = parse_expression("{x | \\x <- S, x in T}")
        assert isinstance(e.qualifiers[1].expr, S.SIn)


class TestStatements:
    def test_val(self):
        (stmt,) = parse_program("val \\x = 1;")
        assert stmt == S.ValDecl("x", S.SNat(1))

    def test_macro(self):
        (stmt,) = parse_program("macro \\f = fn \\x => x;")
        assert isinstance(stmt, S.MacroDecl)

    def test_readval(self):
        (stmt,) = parse_program(
            'readval \\T using NETCDF3 at ("f.nc", "temp", 0, 1);'
        )
        assert stmt.reader == "NETCDF3"
        assert stmt.name == "T"

    def test_writeval(self):
        (stmt,) = parse_program('writeval {1} using CO at "out.co";')
        assert stmt.writer == "CO"

    def test_query(self):
        (stmt,) = parse_program("1 + 1;")
        assert isinstance(stmt, S.Query)

    def test_multiple_statements(self):
        stmts = parse_program("val \\x = 1; x + 1;")
        assert len(stmts) == 2

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("val \\x = 1")


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 2")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse_expression("{1, 2")

    def test_bare_binder_not_expression(self):
        with pytest.raises(ParseError):
            parse_expression("\\x + 1")

    def test_single_bracket_not_expression(self):
        with pytest.raises(ParseError):
            parse_expression("[1, 2]")

    def test_error_reports_position(self):
        try:
            parse_expression("{1, }")
        except ParseError as exc:
            assert "1:" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    def test_natural_with_more_digits_than_int_converts(self):
        with pytest.raises(ParseError, match="natural literal too long"):
            parse_program("1" * 5000 + ";")


class TestPrecedenceClimbing:
    """The one binding-power loop keeps the old ladder's rules."""

    @pytest.mark.parametrize("source, column", [
        ("1 = 2 = 3;", 7), ("a < b in S;", 7), ("a and b = c = d;", 13),
        ("not a = b = c;", 11)])
    def test_one_comparison_per_operand(self, source, column):
        with pytest.raises(ParseError) as caught:
            parse_program(source)
        assert (caught.value.line, caught.value.column) == (1, column)

    def test_comparisons_joined_by_and(self):
        e = parse_expression("a = b and c < d or x in S")
        assert e.op == "or" and isinstance(e.right, S.SIn)
        assert e.left.op == "and"
        assert (e.left.left.op, e.left.right.op) == ("=", "<")

    def test_not_binds_between_and_and_comparison(self):
        e = parse_expression("not not a = b and c")
        assert e.op == "and"
        assert e.left == S.SNot(S.SNot(S.SBinop("=", S.SVar("a"),
                                                 S.SVar("b"))))
        with pytest.raises(ParseError):
            parse_expression("a = not b")

    def test_every_level_left_associative(self):
        for ops in (("or", "or"), ("and", "and"), ("union", "bunion"),
                    ("+", "-"), ("*", "%")):
            e = parse_expression(f"a {ops[0]} b {ops[1]} c")
            assert e.op == ops[1] and e.left.op == ops[0]

    def test_union_binds_looser_than_arithmetic(self):
        e = parse_expression("a + b union c * d")
        assert e.op == "union"
        assert (e.left.op, e.right.op) == ("+", "*")

    def test_binding_forms_only_start_an_expression(self):
        assert isinstance(parse_expression("(fn \\x => x)!1"), S.SApp)
        for source in ("1 + fn \\x => x", "not if a then b else c",
                       "a = let val \\x = 1 in x end"):
            with pytest.raises(ParseError):
                parse_expression(source)

    def test_no_in_stops_at_membership_only(self):
        e = parse_expression("let val \\x = 1 + 2 = 3 in x in S end")
        assert e.bindings[0][1].op == "="
        assert isinstance(e.body, S.SIn)


class TestDeepNesting:
    def test_hundreds_of_parentheses_parse(self):
        depth = 250
        assert parse_expression("(" * depth + "1" + ")" * depth) == S.SNat(1)

    @pytest.mark.parametrize("opener", ["(", "[["])
    def test_overflow_is_a_positioned_parse_error(self, opener):
        source, session = opener * 5000, Session()
        with pytest.raises(AQLError):
            session.run(source)
        for parse in (parse_expression, parse_program, session.query_value):
            with pytest.raises(ParseError, match="nested too deeply") as caught:
                parse(source)
            assert caught.value.line == 1 and caught.value.column > 200


@pytest.mark.parametrize("text", sorted(PARSE_DIGESTS))
def test_parse_tree_unchanged(text):
    got = hashlib.sha256(repr(parse_program(text)).encode()).hexdigest()
    assert got == PARSE_DIGESTS[text]
