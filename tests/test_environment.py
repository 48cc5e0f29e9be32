"""Tests for the environment module (Section 4.1 openness)."""

import math

import pytest

from repro.core import ast
from repro.core.compile import Compiler
from repro.env.environment import TopEnv
from repro.env.primitives import builtin_primitives, simple_prim
from repro.errors import BottomError, RegistrationError, TypeCheckError
from repro.objects.array import Array
from repro.system.session import Session
from repro.types.types import TArrow, TNat, TypeScheme

from conftest import reference_query_value

N = ast.NatLit
V = ast.Var


class TestRegistration:
    def test_register_primitive(self, env):
        env.register_co("triple", lambda v: v * 3, TArrow(TNat(), TNat()))
        out = env.evaluate(ast.App(ast.Prim("triple"), N(4)))
        assert out == 12

    def test_primitive_typechecked_at_use(self, env):
        env.register_co("triple", lambda v: v * 3, TArrow(TNat(), TNat()))
        bad = ast.App(ast.Prim("triple"), ast.BoolLit(True))
        with pytest.raises(TypeCheckError):
            env.compile(bad)

    def test_duplicate_primitive_rejected(self, env):
        env.register_co("p", lambda v: v, TArrow(TNat(), TNat()))
        with pytest.raises(RegistrationError):
            env.register_co("p", lambda v: v, TArrow(TNat(), TNat()))
        env.register_co("p", lambda v: v + 1, TArrow(TNat(), TNat()),
                        replace=True)

    def test_register_macro_returns_scheme(self, env):
        sig = env.register_macro(
            "inc", ast.Lam("x", ast.Arith("+", V("x"), N(1)))
        )
        assert str(sig.body) == "nat -> nat"

    def test_macro_bodies_resolved_against_earlier_macros(self, env):
        env.register_macro("inc", ast.Lam("x", ast.Arith("+", V("x"), N(1))))
        env.register_macro(
            "inc2", ast.Lam("x", ast.App(V("inc"),
                                         ast.App(V("inc"), V("x"))))
        )
        out = env.evaluate(ast.App(V("inc2"), N(5)))
        assert out == 7

    def test_ill_typed_macro_rejected(self, env):
        bad = ast.Arith("+", ast.BoolLit(True), N(1))
        with pytest.raises(TypeCheckError):
            env.register_macro("bad", bad)

    def test_vals(self, env):
        env.set_val("x", 42)
        assert env.has_val("x")
        assert env.get_val("x") == 42
        assert env.evaluate(V("x")) == 42

    def test_a_rule_that_is_not_a_rule_is_rejected(self):
        """An object with a ``name`` and ``apply`` but no ``roots`` is
        refused at registration, before the generation moves, instead of
        failing the next query with a host ``AttributeError``."""

        class Impostor:
            name = "impostor"

            def apply(self, expr):
                return None

        session = Session()
        assert session.query_value("1 + 2") == 3
        env, generation = session.env, session.env.generation
        with pytest.raises(RegistrationError, match="not a Rule"):
            env.register_rule("normalize", Impostor())
        with pytest.raises(RegistrationError, match="not a Rule"):
            env.optimizer.phase("normalize").rules.add(Impostor())
        assert env.generation == generation
        assert "impostor" not in env.optimizer.phase("normalize").rules.names()
        assert session.query_value("1 + 2") == 3
        assert session.query_value("2 + 2") == 4


class TestResolution:
    def test_bound_variables_not_resolved(self, env):
        env.set_val("x", 99)
        e = ast.Lam("x", V("x"))  # λx.x — the x is the parameter
        resolved = env.resolve(e)
        assert resolved == e

    def test_val_shadowing_in_comprehension(self, env):
        env.set_val("x", 99)
        e = ast.Ext("x", ast.Singleton(V("x")), ast.Gen(N(2)))
        assert env.evaluate(e) == frozenset({0, 1})

    def test_macro_resolution_precedence(self, env):
        # macros win over vals of the same name? registration order is the
        # user's concern; our rule: macros, then vals, then primitives
        env.register_macro("thing", N(1))
        env.set_val("thing", 2)
        assert env.evaluate(V("thing")) == 1

    def test_unbound_name_fails_typecheck(self, env):
        with pytest.raises(TypeCheckError):
            env.compile(V("missing"))

    def test_prim_resolution(self, env):
        # `min` is a builtin primitive reachable by bare name
        e = ast.App(V("min"), ast.Const(frozenset({3, 1, 2})))
        assert env.evaluate(e) == 1


class TestStandardEnvironment:
    def test_stdlib_macros_loaded(self, std_env):
        names = std_env.macro_names()
        for expected in ("zip", "subseq", "transpose", "hist", "dom",
                         "count", "nest", "matmul"):
            assert expected in names

    def test_stdlib_schemes_polymorphic(self, std_env):
        scheme = std_env.macro_scheme("zip")
        assert scheme.quantified  # element types are generalized

    def test_higher_order_native_prim(self, env):
        # native primitives can apply AQL closures via the evaluator
        def apply_twice(value, evaluator):
            fn, start = value
            return evaluator.apply_function(fn, evaluator.apply_function(
                fn, start))

        from repro.types.types import TProduct, fresh_tvar
        a = fresh_tvar()
        env.register_primitive(
            "twice", apply_twice,
            TArrow(TProduct((TArrow(a, a), a)), a),
        )
        e = ast.App(ast.Prim("twice"),
                    ast.TupleE((ast.Lam("x", ast.Arith("*", V("x"), N(2))),
                                N(3))))
        assert env.evaluate(e) == 12


class TestCompilePipeline:
    def test_compile_returns_type(self, env):
        compiled, inferred = env.compile(ast.Gen(N(3)))
        assert str(inferred) == "{nat}"

    def test_compile_optimizes(self, env):
        tab = ast.Tabulate(("i",), (N(100),), V("i"))
        compiled, _ = env.compile(ast.Subscript(tab, (N(5),)))
        # β^p avoided the tabulation entirely
        assert not any(isinstance(t, ast.Tabulate)
                       for t in ast.subterms(compiled))

    def test_compile_without_optimizer(self, env):
        tab = ast.Tabulate(("i",), (N(100),), V("i"))
        compiled, _ = env.compile(ast.Subscript(tab, (N(5),)),
                                  optimize=False)
        assert any(isinstance(t, ast.Tabulate)
                   for t in ast.subterms(compiled))

    def test_evaluate_end_to_end(self, env):
        env.set_val("A", Array.from_list([4, 5, 6]))
        e = ast.Subscript(V("A"), (N(1),))
        assert env.evaluate(e) == 5


class _Bottom(str):
    """An expected ⊥, by its reason."""


_INF = "1.0e308 * 10.0"
_NAN = f"{_INF} - {_INF}"
_NEG_ZERO = "0.0 * (0.0 - 1.0)"
_NOT_FINITE = {"floor": _Bottom("floor of a non-finite real"),
               "round": _Bottom("round of a non-finite real")}

#: every builtin on ordinary and edge inputs: (name, argument text, the
#: value with its exact host type, or the ⊥ reason)
BUILTIN_CASES = [
    ("min", "{3, 1, 2}", 1), ("min", "{}", _Bottom("min of empty set")),
    ("max", "{3, 1, 2}", 3), ("max", "{}", _Bottom("max of empty set")),
    ("sort", "{3, 1, 2}", Array.from_list([1, 2, 3])),
    ("real", "3", 3.0),
    ("real", "1" + "0" * 400,
     _Bottom("real of a nat beyond the largest real")),
    ("floor", "2.7", 2), ("floor", _INF, _NOT_FINITE["floor"]),
    ("floor", _NAN, _NOT_FINITE["floor"]),
    ("round", "2.5", 2), ("round", "3.5", 4),
    ("round", f"0.0 - {_INF}", _NOT_FINITE["round"]),
    ("round", _NAN, _NOT_FINITE["round"]),
    ("sqrt", "2.25", 1.5), ("sqrt", _INF, math.inf),
    ("sqrt", "0.0 - 1.0", _Bottom("sqrt of negative real")),
    ("rpow", "(2.0, 3.0)", 8.0), ("rpow", "(0.0 - 8.0, 3.0)", -512.0),
    ("rpow", "(10.0, 400.0)", _Bottom("rpow overflows the reals")),
    ("rpow", "(0.0 - 8.0, 0.5)", _Bottom("rpow result is not real")),
    ("rpow", "(0.0, 0.0 - 1.0)",
     _Bottom("rpow of zero to a negative power")),
    ("rmax", "(1.0, 2.5)", 2.5), ("rmin", "(1.0, 2.5)", 1.0),
    ("even", "4", True), ("even", "3", False),
    ("odd", "3", True), ("odd", "0", False),
    # IEEE 754-2019 maximum/minimum: NaN wins and -0.0 < 0.0, either order
    ("rmax", f"({_NAN}, 1.0)", math.nan), ("rmax", f"(1.0, {_NAN})", math.nan),
    ("rmin", f"({_NAN}, 1.0)", math.nan), ("rmin", f"(1.0, {_NAN})", math.nan),
    ("rmax", f"({_NEG_ZERO}, 0.0)", 0.0), ("rmax", f"(0.0, {_NEG_ZERO})", 0.0),
    ("rmin", f"({_NEG_ZERO}, 0.0)", -0.0),
    ("rmin", f"(0.0, {_NEG_ZERO})", -0.0),
]


def _outcome(run):
    """``run()``'s value, or its ⊥ as a :class:`_Bottom`: any other
    host exception escapes and fails the test."""
    try:
        return run()
    except BottomError as exc:
        return _Bottom(exc.reason)


def _assert_same(got, want):
    """Equal, and of the same exact type: ``2`` is not ``2.0``, nor
    ``True`` ``1``, nor ``-0.0`` ``0.0``; NaN matches NaN."""
    assert _same_key(got) == _same_key(want)


def _same_key(value):
    """What :func:`_assert_same` compares: the exact type and the value,
    a float by its ``repr`` (its sign, and NaN as one value)."""
    if isinstance(value, Array):
        return Array, value.dims, [_same_key(cell) for cell in value.flat]
    if type(value) is float:
        return float, repr(value)
    return type(value), value


class TestBuiltinTable:
    """Every builtin primitive lets out only values and ⊥ — never a host
    exception — on the plan a miss runs, the plan an entry keeps, as a
    function value, and in the reference evaluator alike."""

    def test_the_table_covers_every_builtin(self):
        assert {name for name, _, _ in BUILTIN_CASES} == \
            set(builtin_primitives())

    @pytest.mark.parametrize("name,argument,want", BUILTIN_CASES,
                             ids=[f"{case[0]}-{n}" for n, case
                                  in enumerate(BUILTIN_CASES)])
    def test_a_builtin_applied(self, name, argument, want):
        text = f"{name}!({argument})"
        session = Session()
        for _ in range(2):  # a miss, then the plan the entry keeps
            _assert_same(_outcome(lambda: session.query_value(text + ";")),
                         want)
        assert session.plan_cache.stats.hits == 1
        _assert_same(_outcome(
            lambda: reference_query_value(session.env, text)), want)

    @pytest.mark.parametrize("name,argument,want", BUILTIN_CASES,
                             ids=[f"{case[0]}-{n}" for n, case
                                  in enumerate(BUILTIN_CASES)])
    def test_a_builtin_as_a_function_value(self, name, argument, want,
                                           monkeypatch):
        """Unoptimised, ``maparr``'s parameter holds the primitive
        itself: the emitter's ``Prim`` value, not an application."""
        emitted = []
        emit = Compiler._NODES[ast.Prim]
        monkeypatch.setitem(Compiler._NODES, ast.Prim, lambda *args: (
            emitted.append(args[1].name) or emit(*args)))
        text = f"maparr!({name}, [[{argument}]])"
        expected = want if isinstance(want, _Bottom) \
            else Array.from_list([want])
        session = Session(optimize=False)
        for _ in range(2):
            got = _outcome(lambda: session.query_value(text + ";"))
            _assert_same(got, expected)
            if not isinstance(want, _Bottom):
                _assert_same(got.flat[0], want)
        assert emitted == [name, name]
        _assert_same(_outcome(lambda: reference_query_value(
            session.env, text, optimize=False)), expected)
