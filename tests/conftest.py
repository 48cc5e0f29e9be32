"""Shared fixtures and hypothesis strategies for the AQL test suite."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from expr_strategies import ENV_VALUES

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.core.eval import Evaluator
from repro.core.fastpath import DispatchConfig
from repro.env.environment import TopEnv
from repro.errors import BottomError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.ordering import canonical_elements
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.system.session import Session


#: sha256 of ``repr(parse_program(text))`` for the stdlib statements, the
#: benchmark statements and the example queries, keyed by the text and
#: recorded with the character-at-a-time lexer and nine-level precedence
#: ladder that the master-regex lexer and precedence-climbing parser
#: replaced
PARSE_DIGESTS = json.loads(
    (Path(__file__).parent / "parse_digests.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def std_env() -> TopEnv:
    """One standard environment shared across the suite (macros are
    immutable once registered, so sharing is safe for read-only use)."""
    return TopEnv.standard()


@pytest.fixture()
def env() -> TopEnv:
    """A fresh standard environment for tests that mutate it."""
    return TopEnv.standard()


@pytest.fixture()
def session() -> Session:
    """A fresh AQL session."""
    return Session()


# ---------------------------------------------------------------------------
# the one agreement helper: production engine vs. reference semantics
# ---------------------------------------------------------------------------

#: a floor no operand reaches: no kernel and no hash join runs, numpy or
#: not — the scalar loops the fast paths must agree with
SCALAR = DispatchConfig(min_cells=sys.maxsize)

#: the dispatch points an agreement test runs under: the default floor,
#: every fast path taken, and none taken
CONFIGS = (None, DispatchConfig(min_cells=1), SCALAR)


def outcome(expr, config=None, probe=None, binds=ENV_VALUES, prims=None):
    """Run the production engine (``repro.core.compile``) under a
    ``DispatchConfig``: ``('value', v)`` or ``('bottom', reason)``."""
    evaluator = CompiledEvaluator(prims, probe=probe, dispatch=config)
    try:
        return ("value", evaluator.run(expr, binds))
    except BottomError as exc:
        return ("bottom", exc.reason)


def reference_outcome(expr, binds=ENV_VALUES, prims=None):
    """The same, from the reference tree-walker (``repro.core.eval``)."""
    try:
        return ("value", Evaluator(prims).run(expr, binds))
    except BottomError as exc:
        return ("bottom", exc.reason)


def _cells(value):
    """The type of each cell of an Array, or of a scalar, with the
    ``repr`` of the float ones: what ``==`` does not see."""
    cells = value.flat if isinstance(value, Array) else (value,)
    return [(type(cell), repr(cell) if isinstance(cell, float) else None)
            for cell in cells]


def assert_identical(got, want):
    """Deep agreement between two values: equality, Python scalar types
    (an Array's per-cell kind signature; never numpy scalars), ``repr``
    of floats, in Arrays too (``-0.0`` vs ``0.0``, low-bit drift), hash,
    and — for sets — the canonical element order.  A NaN equals nothing,
    itself included, and hashes by identity, so a value holding one
    agrees on dims, types and ``repr`` alone."""
    assert type(got) is type(want), (got, want)
    assert getattr(got, "dims", None) == getattr(want, "dims", None)
    cells = _cells(got)
    assert cells == _cells(want), (got, want)
    if (float, "nan") in cells:
        return
    assert got == want
    if isinstance(got, frozenset):
        assert canonical_elements(got) == canonical_elements(want)
    try:
        assert hash(got) == hash(want)
    except TypeError:
        pass  # unhashable values (bags) are covered by == above


def agree(expr, config=None, probe=None, binds=ENV_VALUES, prims=None):
    """Assert the production engine under ``config`` agrees with the
    reference evaluator — on the value (:func:`assert_identical`) or on
    the ⊥ reason — and return the production outcome."""
    got = outcome(expr, config, probe, binds, prims)
    want = reference_outcome(expr, binds, prims)
    assert got[0] == want[0], (got, want)
    if want[0] == "value":
        assert_identical(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


def val_bindings(env, expr):
    """The vals a resolved ``expr`` reads in ``env``: the bindings to
    run it with outside the environment's own engines."""
    return {name: env.get_val(name) for name in ast.free_vars(expr)
            if env.has_val(name)}


def reference_query_value(env, source, optimize=True):
    """An AQL expression taken through ``env``'s front end (resolve,
    typecheck, optionally optimize) and run by the reference evaluator,
    with the vals it reads bound."""
    core, _ = env.compile(desugar_expression(parse_expression(source)),
                          optimize=optimize)
    return Evaluator(env._prim_impls).run(core, val_bindings(env, core))


# ---------------------------------------------------------------------------
# hypothesis strategies over the complex-object value universe
# ---------------------------------------------------------------------------

nats = st.integers(min_value=0, max_value=50)
small_nats = st.integers(min_value=0, max_value=8)
reals = st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False)
strings = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    max_size=6,
)

base_values = st.one_of(st.booleans(), nats, reals, strings)


def _compound(children):
    tuples = st.lists(children, min_size=2, max_size=3).map(tuple)
    sets = st.lists(children, max_size=4).map(frozenset)
    bags = st.lists(children, max_size=4).map(Bag)
    arrays_1d = st.lists(children, max_size=4).map(Array.from_list)
    return st.one_of(tuples, sets, bags, arrays_1d)


values = st.recursive(base_values, _compound, max_leaves=12)

#: homogeneous typed values (same-type elements), better for calculus tests
nat_sets = st.lists(nats, max_size=8).map(frozenset)
nat_arrays = st.lists(nats, min_size=0, max_size=10).map(Array.from_list)
nonempty_nat_arrays = st.lists(nats, min_size=1, max_size=10).map(
    Array.from_list
)


@st.composite
def nat_matrices(draw, max_dim: int = 4, min_dim: int = 0):
    rows = draw(st.integers(min_value=min_dim, max_value=max_dim))
    cols = draw(st.integers(min_value=min_dim, max_value=max_dim))
    flat = draw(st.lists(nats, min_size=rows * cols, max_size=rows * cols))
    return Array((rows, cols), flat)


# -- well-typed values: draw a type first, then values of that type ----------

_TYPE_TAGS = st.recursive(
    st.sampled_from(["bool", "nat", "real", "string"]),
    lambda inner: st.one_of(
        st.tuples(st.just("set"), inner),
        st.tuples(st.just("bag"), inner),
        st.tuples(st.just("array"), inner),
        st.tuples(st.just("tuple"), st.lists(inner, min_size=2, max_size=3)),
    ),
    max_leaves=4,
)

_BASE_STRATEGIES = {
    "bool": st.booleans(),
    "nat": nats,
    "real": reals,
    "string": strings,
}


def _values_of(tag):
    if isinstance(tag, str):
        return _BASE_STRATEGIES[tag]
    kind, inner = tag
    if kind == "set":
        return st.lists(_values_of(inner), max_size=4).map(frozenset)
    if kind == "bag":
        return st.lists(_values_of(inner), max_size=4).map(Bag)
    if kind == "array":
        return st.lists(_values_of(inner), max_size=4).map(Array.from_list)
    if kind == "tuple":
        return st.tuples(*[_values_of(t) for t in inner])
    raise AssertionError(kind)


@st.composite
def typed_values(draw):
    """A value whose collections are homogeneous (a well-typed object)."""
    tag = draw(_TYPE_TAGS)
    return draw(_values_of(tag))
