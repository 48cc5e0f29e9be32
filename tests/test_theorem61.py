"""T1 — Theorem 6.1: NRCA ≡ NRC^aggr(gen), made executable.

Two constructive artifacts are tested:

* the *object* translation (·)° with its error flag (the paper's proof
  hint), via encode/decode roundtrips;
* the *expression* compilation ``eliminate_arrays``: the output must lie
  in the NRC^aggr(gen) fragment (no array constructs) and preserve
  semantics under the value encoding.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import builders as B
from repro.core import evaluate
from repro.errors import BottomError
from repro.expressiveness.array_elim import (
    decode_value,
    eliminate_arrays,
    encode_value,
    translate_type,
)
from repro.expressiveness.encode import decode_object, encode_object
from repro.expressiveness.fragments import in_nrc_aggr_gen, in_nrca
from repro.objects.array import Array
from repro.types.types import (
    TArray,
    TNat,
    TProduct,
    TSet,
    TString,
    type_of_value,
)

from conftest import nat_arrays, nat_matrices, typed_values

N = ast.NatLit
V = ast.Var


class TestObjectEncoding:
    def test_base_is_singleton(self):
        assert encode_object(5) == (frozenset({5}), 1)

    def test_bottom_is_flagged(self):
        first, flag = encode_object(None)
        assert first == frozenset()
        assert flag == 0

    def test_array_becomes_indexed_pairs(self):
        first, flag = encode_object(Array.from_list(["a", "b"]))
        assert flag == 1
        assert first == frozenset({
            (frozenset({"a"}), 0), (frozenset({"b"}), 1),
        })

    def test_decode_bottom_raises(self):
        with pytest.raises(BottomError):
            decode_object((frozenset(), 0), TNat())

    @given(typed_values())
    @settings(max_examples=60)
    def test_roundtrip(self, v):
        if _contains_bag(v):
            return  # the paper's translation covers the set-based objects
        encoded = encode_object(v)
        assert decode_object(encoded, type_of_value(v)) == v

    def test_roundtrip_heterogeneous_depth_set(self):
        # {∅, {∅}} is well-typed ({α} unifies with {{β}}), but
        # type_of_value used to type the set from its *first* element
        # only — under unlucky frozenset iteration order the decoder
        # then met an empty set at a supposed base type
        v = frozenset([frozenset(), frozenset([frozenset()])])
        assert decode_object(encode_object(v), type_of_value(v)) == v

    def test_empty_set_vs_bottom_distinguished_by_flag(self):
        defined_empty = encode_object(frozenset())
        undefined = encode_object(None)
        assert defined_empty[0] == undefined[0]  # same first component!
        assert defined_empty[1] != undefined[1]  # the flag disambiguates


def _contains_bag(v):
    from repro.objects.bag import Bag
    if isinstance(v, Bag):
        return True
    if isinstance(v, (tuple, frozenset)):
        return any(_contains_bag(i) for i in v)
    if isinstance(v, Array):
        return any(_contains_bag(i) for i in v.flat)
    return False


class TestTypeTranslation:
    def test_array_becomes_graph_set(self):
        assert translate_type(TArray(TString(), 1)) == \
            TSet(TProduct((TNat(), TString())))

    def test_k_dim_keys_are_tuples(self):
        t = translate_type(TArray(TNat(), 2))
        assert t == TSet(TProduct((TProduct((TNat(), TNat())), TNat())))

    def test_nested_arrays(self):
        t = translate_type(TSet(TArray(TNat(), 1)))
        assert t == TSet(TSet(TProduct((TNat(), TNat()))))


CASES = [
    ("tabulate", lambda: ast.Tabulate(("i",), (N(5),),
                                      ast.Arith("*", V("i"), V("i"))), {}),
    ("subscript", lambda: ast.Subscript(V("A"), (N(2),)), "arr"),
    ("len", lambda: ast.Dim(V("A"), 1), "arr"),
    ("reverse", lambda: B.reverse(V("A")), "arr"),
    ("evenpos", lambda: B.evenpos(V("A")), "arr"),
    ("zip", lambda: B.zip2(V("A"), B.reverse(V("A"))), "arr"),
    ("map", lambda: B.map_array(
        lambda x: ast.Arith("+", x, N(1)), V("A")), "arr"),
    ("rng", lambda: B.rng(V("A")), "arr"),
    ("graph", lambda: B.graph(V("A")), "arr"),
    ("hist_fast", lambda: B.hist_fast(V("A")), "arr"),
    ("transpose", lambda: B.transpose(V("M")), "mat"),
    ("dim2", lambda: ast.Dim(V("M"), 2), "mat"),
    ("mkarray", lambda: ast.MkArray((N(2), N(2)),
                                    (N(1), N(2), N(3), N(4))), {}),
]


class TestExpressionCompilation:
    @pytest.mark.parametrize("name,make,binds", CASES,
                             ids=[c[0] for c in CASES])
    def test_output_in_fragment(self, name, make, binds):
        translated = eliminate_arrays(make())
        assert in_nrc_aggr_gen(translated), \
            f"{name}: translation still uses array constructs"

    @pytest.mark.parametrize("name,make,binds", CASES,
                             ids=[c[0] for c in CASES])
    @given(data=st.data())
    @settings(max_examples=12)
    def test_semantics_preserved(self, name, make, binds, data):
        expr = make()
        if binds == "arr":
            env = {"A": data.draw(nat_arrays)}
        elif binds == "mat":
            env = {"M": data.draw(nat_matrices(max_dim=3, min_dim=1))}
        else:
            env = {}
        try:
            original = evaluate(expr, env)
        except BottomError:
            with pytest.raises(BottomError):
                evaluate(eliminate_arrays(expr),
                         {k: encode_value(v) for k, v in env.items()})
            return
        translated = eliminate_arrays(expr)
        encoded_env = {k: encode_value(v) for k, v in env.items()}
        got = evaluate(translated, encoded_env)
        decoded = decode_value(got, type_of_value(original))
        assert decoded == original

    def test_out_of_bounds_stays_bottom(self):
        expr = ast.Subscript(V("A"), (N(99),))
        translated = eliminate_arrays(expr)
        with pytest.raises(BottomError):
            evaluate(translated,
                     {"A": encode_value(Array.from_list([1, 2]))})

    def test_index_groupby_translates(self):
        pairs = frozenset({(1, "a"), (3, "b"), (1, "c")})
        expr = ast.IndexSet(ast.Const(pairs), 1)
        translated = eliminate_arrays(expr)
        assert in_nrc_aggr_gen(translated)
        got = decode_value(evaluate(translated),
                           type_of_value(evaluate(expr)))
        assert got == evaluate(expr)

    def test_nonconstant_mkarray_dims_rejected(self):
        expr = ast.MkArray((V("n"),), (N(1),))
        from repro.errors import EvalError
        with pytest.raises(EvalError):
            eliminate_arrays(expr)


class TestConservativity:
    """Theorem 6.1's second clause: over flat relations the language
    collapses to relational calculus + arithmetic + Σ + gen.  We verify
    the executable consequence: flat-in/flat-out NRCA queries survive
    array elimination with flat intermediate types only."""

    def test_flat_query_translates_flat(self):
        # a flat query that internally uses arrays: sort-by-rank distances
        from repro.expressiveness.rank import rank_of
        expr = ast.Ext(
            "x", ast.Singleton(ast.TupleE((
                V("x"), rank_of(V("x"), V("S")),
            ))), V("S"),
        )
        assert in_nrc_aggr_gen(eliminate_arrays(expr))
        got = evaluate(expr, {"S": frozenset({30, 10, 20})})
        assert got == frozenset({(10, 1), (20, 2), (30, 3)})

    @given(nat_arrays)
    @settings(max_examples=15)
    def test_aggregate_of_array_is_flat(self, arr):
        # Σ over an array's range: nat in, nat out
        expr = ast.Sum("x", V("x"), B.rng(V("A")))
        translated = eliminate_arrays(expr)
        assert in_nrc_aggr_gen(translated)
        assert evaluate(translated, {"A": encode_value(arr)}) == \
            evaluate(expr, {"A": arr})
