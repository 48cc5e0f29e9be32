"""Tests for the complex-object data exchange format (Section 3)."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExchangeFormatError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.exchange import dumps, loads, pretty
from repro.system.session import Session

from conftest import nats, values


class TestDumps:
    def test_scalars(self):
        assert dumps(True) == "true"
        assert dumps(7) == "7"
        assert dumps(2.5) == "2.5"
        assert dumps("nyc") == '"nyc"'

    def test_real_always_relexes_as_real(self):
        assert loads(dumps(2.0)) == 2.0
        assert isinstance(loads(dumps(2.0)), float)

    def test_tuple(self):
        assert dumps((1, "a")) == '(1, "a")'

    def test_set_canonical_order(self):
        assert dumps(frozenset({3, 1})) == "{1, 3}"

    def test_array_canonical_form(self):
        assert dumps(Array((2, 2), [1, 2, 3, 4])) == "[[2, 2; 1, 2, 3, 4]]"

    def test_bag(self):
        assert dumps(Bag([2, 1, 2])) == "{|1, 2, 2|}"

    def test_string_escaping(self):
        assert loads(dumps('say "hi"\\now')) == 'say "hi"\\now'


class TestLoads:
    def test_one_d_array_literal(self):
        assert loads("[[1, 2, 3]]") == Array((3,), [1, 2, 3])

    def test_row_major_array(self):
        assert loads("[[2,3; 0,1,2,3,4,5]]") == Array((2, 3), range(6))

    def test_empty_array(self):
        assert loads("[[]]") == Array((0,), [])

    def test_empty_set_and_bag(self):
        assert loads("{}") == frozenset()
        assert loads("{||}") == Bag()

    def test_nested(self):
        v = loads('{(1, [[true, false]]), (2, [[true]])}')
        assert len(v) == 2

    def test_whitespace_tolerant(self):
        assert loads("  ( 1 ,\n 2 )  ") == (1, 2)

    def test_reals(self):
        assert loads("1.5e2") == 150.0
        assert loads("2.") == 2.0
        assert isinstance(loads("2."), float)

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ExchangeFormatError):
            loads("[[2,2; 1,2,3]]")

    def test_non_natural_dims_rejected(self):
        with pytest.raises(ExchangeFormatError):
            loads("[[1.5; 1]]")

    def test_arity_one_tuple_rejected(self):
        with pytest.raises(ExchangeFormatError):
            loads("(1)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExchangeFormatError):
            loads("1 2")

    def test_unterminated_string_rejected(self):
        with pytest.raises(ExchangeFormatError):
            loads('"abc')

    def test_double_semicolon_rejected(self):
        with pytest.raises(ExchangeFormatError):
            loads("[[1; 2; 3]]")

    def test_what_format_real_emits(self):
        assert loads("inf") == math.inf
        assert loads("-inf") == -math.inf
        assert math.isnan(loads("nan"))
        assert repr(loads("-0.0")) == "-0.0"
        assert loads("[[3; 1e+16, -inf, 1e-07]]") == \
            Array((3,), [1e16, -math.inf, 1e-07])

    @pytest.mark.parametrize("text,offset", [
        ("1e", 0), ("1.5e+", 0), ("  2E-", 2),
        ("[[2; 1.0, 1e]]", 10), ("[[3; 1.5, 2e, 3.0]]", 10),
        # past CPython's int-from-text digit limit
        pytest.param("9" * 5000, 0, id="5000-digits"),
    ])
    def test_malformed_number_names_its_offset(self, text, offset):
        with pytest.raises(ExchangeFormatError,
                           match=f"at offset {offset}: malformed number"):
            loads(text)

    @pytest.mark.parametrize("text,offset", [
        ("-3", 2), ("[[2; 1, -3]]", 10), ("[[-1; 3]]", 4),
    ])
    def test_negative_natural_rejected(self, text, offset):
        with pytest.raises(
                ExchangeFormatError,
                match=f"at offset {offset}: naturals are non-negative"):
            loads(text)

    @pytest.mark.parametrize("text,message", [
        ("[[4; 1, 2, x, 4]]", "at offset 11: unexpected character 'x'"),
        ("[[4; 1, 2 3, 4]]", "at offset 10: expected ','"),
        ("[[3; 1.5, 2.5 3.5]]", "at offset 14: expected ','"),
        ("[[2; 1, 2", "at offset 9: expected ','"),
        ("[[2; 1.5, ]]", "at offset 10: unexpected character ']'"),
        ("[[1.5; 1]]", "at offset 6: array dims must be naturals"),
        ("(1, -x)", "at offset 4: unexpected character '-'"),
        ('(1, "ab', "at offset 7: unterminated string"),
        ("", "at offset 0: unexpected end of input"),
        ("1 2", "at offset 2: trailing input"),
    ])
    def test_errors_keep_their_offsets(self, text, message):
        with pytest.raises(ExchangeFormatError, match=re.escape(message)):
            loads(text)

    def test_number_run_keeps_each_items_kind(self):
        # a run of nats stops at the first real and the other way round
        for text, kinds in [
            ("[[1, 2, 3.5, 4]]", [int, int, float, int]),
            ("[[4; 1.5, 2, 3e5, 4.]]", [float, int, float, float]),
            ("[[3; 1, true, 2]]", [int, bool, int]),
        ]:
            assert [type(v) for v in loads(text).flat] == kinds

    def test_deep_nesting_is_a_typed_error(self):
        with pytest.raises(ExchangeFormatError, match="too deeply nested"):
            loads("{" * 100000)


class TestRoundtrip:
    @given(values)
    def test_loads_dumps_identity(self, v):
        assert loads(dumps(v)) == v

    def test_deep_nesting(self):
        v = frozenset({
            (1, Array((2,), [frozenset({(1.5, "a")}), frozenset()])),
        })
        assert loads(dumps(v)) == v

    @given(st.data())
    @settings(max_examples=200)
    def test_any_real_any_string(self, data):
        v = data.draw(wild_values)
        assert same(loads(dumps(v)), v)

    @given(st.data())
    @settings(max_examples=200)
    def test_whitespace_between_tokens_changes_nothing(self, data):
        v = data.draw(st.one_of(values, number_arrays))
        blanks = st.text(alphabet=" \t\r\n", max_size=3)
        text = PUNCTUATOR.sub(
            lambda m: data.draw(blanks) + m.group() + data.draw(blanks),
            dumps(v))
        assert same(loads(text), v)

    @given(st.text(alphabet=' \n,;()[]{}|"\\-+.eE0123456789truefalsinx',
                   max_size=24))
    @settings(max_examples=300)
    def test_only_exchange_format_errors(self, text):
        try:
            loads(text)
        except ExchangeFormatError as exc:
            assert re.match(r"at offset \d+: ", str(exc))

    def test_nan_fill_value_survives_writeval_readval(self, tmp_path):
        session = Session()
        session.env.set_val("A", Array((3,), [1.5, math.nan, -math.inf]))
        path = tmp_path / "fill.co"
        session.run(f'writeval A using CO at "{path}";')
        (out,) = session.run(f'readval \\B using CO at "{path}";')
        assert out.type_text == "[[real]]_1"
        assert [repr(v) for v in out.value.flat] == ["1.5", "nan", "-inf"]


# -- strategies for the round-trip properties --------------------------------

#: every token boundary of a text whose strings hold no punctuation
#: (``conftest.strings`` are letters and digits)
PUNCTUATOR = re.compile(r"\[\[|\]\]|\{\||\|\}|[{}(),;]")

wild_reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 5e-324]),
)
wild_strings = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'say "hi"\\', "a\nb", "\\\""])


@st.composite
def number_arrays(draw):
    """k-d arrays of one number kind: the bodies read as one run."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    cells = nats if draw(st.booleans()) else wild_reals
    size = math.prod(dims)
    return Array(dims, draw(st.lists(cells, min_size=size, max_size=size)))


number_arrays = number_arrays()

#: NaN stays out of sets and bags (it has no place in ``<_t``); tuples
#: and arrays nest everything
wild_values = st.recursive(
    st.one_of(st.booleans(), nats, wild_reals, wild_strings, values,
              number_arrays),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(tuple),
        st.lists(children, max_size=4).map(Array.from_list)),
    max_leaves=8)


def same(a, b):
    """Equal values of equal kind; reals by ``repr`` (NaN, −0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, Array):
        return a.dims == b.dims and all(map(same, a.flat, b.flat))
    return a == b


class TestPretty:
    def test_array_display_form(self):
        text = pretty(Array((2,), [67.3, 67.2]))
        assert text.startswith("[[(0):67.3")

    def test_k_dim_keys(self):
        text = pretty(Array((1, 1, 1), [5]))
        assert "(0,0,0):5" in text

    def test_truncation(self):
        text = pretty(Array.from_list(list(range(100))), limit=3)
        assert "..." in text

    def test_no_truncation_when_zero(self):
        text = pretty(Array.from_list(list(range(20))), limit=0)
        assert "..." not in text
