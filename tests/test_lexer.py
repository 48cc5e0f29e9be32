"""Tests for the AQL lexer."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_lexer
import repro
from repro.errors import LexError
from repro.surface import lexer
from repro.surface.lexer import KEYWORDS, Token, lex, tokenize
from repro.system.session import Session


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)]


class TestBasicTokens:
    def test_identifiers(self):
        assert kinds("foo Bar x1") == ["ident"] * 3

    def test_identifier_with_prime(self):
        # WS' from the Section 1 query
        assert texts("WS'")[0] == "WS'"

    def test_binder(self):
        tokens = tokenize(r"\x")
        assert tokens[0].kind == "binder"
        assert tokens[0].text == "x"

    def test_keywords(self):
        assert kinds("fn if then else let val in end") == ["kw"] * 8

    def test_naturals_and_reals(self):
        assert kinds("42 3.14 1e5 2.5e-3") == \
            ["nat", "real", "real", "real"]

    def test_nat_dot_requires_digits_or_is_real(self):
        # "1." style literals are not produced; '.' alone is an error
        with pytest.raises(LexError):
            tokenize("x . y")

    def test_strings(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == "string"
        assert tokens[0].text == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"a\"b\\c\nd"')[0].text == 'a"b\\c\nd'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestSymbols:
    def test_maximal_munch(self):
        assert kinds("<- <= < :== == =") == \
            ["<-", "<=", "<", ":==", "==", "="]

    def test_arrow(self):
        assert kinds("=>") == ["=>"]

    def test_brackets_not_fused(self):
        # [[ must lex as two tokens so A[B[0]] works
        assert kinds("[[x]]") == ["[", "[", "ident", "]", "]"]

    def test_application_bang(self):
        assert kinds("gen!30") == ["ident", "!", "nat"]

    def test_wildcard(self):
        assert kinds("_") == ["_"]

    def test_underscore_identifier(self):
        assert kinds("_x") == ["ident"]


class TestComments:
    def test_simple_comment_skipped(self):
        assert texts("1 (* comment *) 2") == ["1", "2"]

    def test_nested_comments(self):
        assert texts("a (* x (* y *) z *) b") == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("(* oops")

    def test_comment_with_code_inside(self):
        assert texts('x (* val \\y = "str"; *) z') == ["x", "z"]


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_position(self):
        try:
            tokenize("ab\n  @")
        except LexError as exc:
            assert exc.line == 2
            assert exc.column == 3
        else:  # pragma: no cover
            pytest.fail("expected LexError")


class TestPaperSnippets:
    def test_session_macro_line(self):
        source = r"macro \days = fn (\m,\d,\y) => d + 1;"
        assert tokenize(source)[0].text == "macro"

    def test_intro_query_tokens(self):
        source = r"{d | \d <- gen!30, \WS' == evenpos!(proj_col!(WS,0))}"
        token_texts = texts(source)
        assert "WS'" in token_texts
        assert "==" in [t.kind for t in tokenize(source)]

    def test_repr(self):
        assert "Token" in repr(Token("nat", "1", 1, 1))


class TestTokenGrammar:
    """The corners docs/LANGUAGE.md "Lexical structure" states."""

    def test_exponent_without_digits_is_nat_then_ident(self):
        assert [(t.kind, t.text) for t in tokenize("1e 1e+ 2.5e")] == [
            ("nat", "1"), ("ident", "e"), ("nat", "1"), ("ident", "e"),
            ("+", "+"), ("real", "2.5"), ("ident", "e")]

    def test_fraction_needs_digits_on_both_sides(self):
        assert kinds("1.5e-3 7") == ["real", "nat"]
        with pytest.raises(LexError):
            tokenize("1.")

    def test_lone_underscore_and_backslash(self):
        assert kinds(r"_ \_ \_x _'") == ["_", "\\", "_", "binder", "ident"]

    @pytest.mark.parametrize("source, column", [
        ("²", 1), ("١٢", 1), ("𝟙", 1), ("1²", 2), (r"\²", 2), ("x + Ⅻ", 5)])
    def test_numerals_are_ascii_digits(self, source, column):
        with pytest.raises(LexError) as caught:
            tokenize(source)
        assert (caught.value.line, caught.value.column) == (1, column)

    def test_names_may_hold_unicode_letters_and_numerals(self):
        assert [(t.kind, t.text) for t in tokenize(r"é x² \ñ")] == [
            ("ident", "é"), ("ident", "x²"), ("binder", "ñ")]

    def test_lex_lists_end_in_a_sentinel(self):
        kinds_, texts_, offsets = lex("val \\x = 1;")
        assert kinds_ == ["val", "binder", "=", "nat", ";", lexer.END]
        assert texts_[-1] == lexer.END
        assert offsets == [0, 4, 7, 9, 10, 11]

    def test_string_spanning_lines_keeps_later_positions(self):
        tokens = tokenize('"a\nb" x')
        assert tokens[0].text == "a\nb"
        assert (tokens[1].line, tokens[1].column) == (2, 4)

    def test_unterminated_comment_position_is_the_opener(self):
        with pytest.raises(LexError) as caught:
            tokenize("x\n (* (* *)")
        assert (caught.value.line, caught.value.column) == (2, 2)


class TestParsePathBuildsNoTokens:
    def test_session_runs_with_token_construction_broken(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Token was built on the parse path")

        session = Session()
        monkeypatch.setattr(Token, "__init__", refuse)
        with pytest.raises(AssertionError):
            tokenize("1")
        (output,) = session.run(r"{x + 1 | \x <- gen!3};")
        assert output.value == frozenset({1, 2, 3})

    def test_reference_lexer_is_not_imported_by_the_package(self):
        src = Path(repro.__file__).parent
        assert not [path for path in src.rglob("*.py")
                    if "reference_lexer" in path.read_text()]


# -- differential: the master-regex lexer against the reference ------------

_ALPHABET = sorted(KEYWORDS) + [
    "x", "WS'", "_x", "a1", "e", "E", "0", "7", "42", ".", "+", "-",
    ":==", "==", "=", ":", "<", ">", "<-", "<=", ">=", "<>", "=>", "(", ")",
    "{", "}", "[", "]", ",", ";", "|", "*", "/", "%", "!", "_", "'", "@",
    "(*", "*)", '"', "\\", " ", "\n", "\t", "\r",
    "é", "²", "Ⅻ", "١", "𝟙",
]


def _stream(tokens):
    return [(t.kind, t.text, t.line, t.column) for t in tokens]


def _outcome(run):
    try:
        return _stream(run())
    except LexError as exc:
        return (type(exc), str(exc), exc.line, exc.column)


def _reference_prefix(source):
    """The reference tokens produced before it stops (or the end)."""
    tokens = []
    try:
        for token in reference_lexer._tokens(source):
            tokens.append(token)
    except LexError:
        pass
    return tokens


@pytest.mark.slow
@settings(max_examples=3000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(_ALPHABET), max_size=16).map("".join))
def test_lexer_agrees_with_reference(source):
    expected = _outcome(lambda: reference_lexer.tokenize(source))
    got = _outcome(lambda: tokenize(source))
    reference = _reference_prefix(source)
    numerals = [t for t in reference if t.kind in ("nat", "real")
                and not t.text.isascii()]
    if not numerals:
        assert got == expected
        return
    # the one documented difference: a number is ASCII digits only, so
    # from the first non-ASCII numeral on the streams may part
    first = numerals[0]
    agreed = _stream(reference[:reference.index(first)])
    if isinstance(got, list):
        assert got[:len(agreed)] == agreed
    else:
        assert got[0] is LexError
        assert (got[2], got[3]) >= (first.line, first.column)
