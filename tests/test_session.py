"""Tests for the AQL top-level session (Section 4.2 mechanics)."""

import pytest

from repro.errors import BottomError, SessionError, TypeCheckError
from repro.objects.array import Array
from repro.system.session import Output, Session


class TestQueries:
    def test_bare_query(self, session):
        (out,) = session.run("1 + 1;")
        assert out.kind == "query"
        assert out.name == "it"
        assert out.value == 2
        assert out.type_text == "nat"

    def test_query_value_helper(self, session):
        assert session.query_value("{x | \\x <- gen!3};") == \
            frozenset({0, 1, 2})

    def test_query_value_adds_semicolon(self, session):
        assert session.query_value("2 * 3") == 6

    def test_render_paper_style(self, session):
        (out,) = session.run("{27, 25, 28};")
        assert out.render() == "typ it : {nat}\nval it = {25, 27, 28}"

    def test_stdlib_available(self, session):
        assert session.query_value("count!{1,2,3};") == 3


class TestValDeclarations:
    def test_val_binds(self, session):
        session.run("val \\x = 2 + 3;")
        assert session.query_value("x * x;") == 25

    def test_val_echo(self, session):
        (out,) = session.run("val \\months = [[0, 31, 28]];")
        text = out.render()
        assert text.startswith("typ months : [[nat]]_1")
        assert "(0):0" in text

    def test_vals_usable_in_later_macros(self, session):
        session.run("val \\base = 10;")
        session.run("macro \\shift = fn \\x => x + base;")
        assert session.query_value("shift!5;") == 15

    @pytest.mark.parametrize("value", [
        {1, 2}, object(), frozenset({1, 1.5}), (1, [2])],
        ids=["set", "object", "mixed", "list"])
    def test_a_value_outside_the_universe_is_a_type_error(self, session,
                                                          value):
        """A val a plan would be typed from must be a complex object:
        anything else is a typed error naming it, never a host
        ``TypeError`` out of ``Session.run``."""
        session.env.set_val("b", value)
        with pytest.raises(TypeCheckError, match="val 'b' has no type"):
            session.run("{b};")

    def test_a_numpy_scalar_val_is_a_type_error(self, session):
        numpy = pytest.importorskip("numpy")
        session.env.set_val("b", numpy.int64(3))
        with pytest.raises(TypeCheckError, match="val 'b' has no type"):
            session.run("b + 1;")
        session.env.set_val("b", numpy.float64(1.5))  # a float subclass
        with pytest.raises(TypeCheckError, match="val 'b' has no type"):
            session.run("b + 1.0;")
        session.env.set_val("b", 3)
        assert session.query_value("b + 1;") == 4


class TestMacroDeclarations:
    def test_macro_registration_echo(self, session):
        (out,) = session.run("macro \\double = fn \\x => x * 2;")
        assert out.kind == "macro"
        assert "registered as macro" in out.render()
        assert out.type_text == "nat -> nat"

    def test_paper_days_since_macro(self, session):
        session.run("val \\months = [[0,31,28,31,30,31,30,31,31,30,31,30]];")
        (out,) = session.run(
            "macro \\days_since_1_1 = fn (\\m, \\d, \\y) => "
            "d + summap(fn \\i => months[i])!(gen!m) + "
            "(if m > 2 and y % 4 = 0 then 1 else 0) - 1;"
        )
        assert out.type_text == "(nat * nat * nat) -> nat"
        # June 1, 1995 is day 151 (0-based)
        assert session.query_value("days_since_1_1!(6, 1, 95);") == 151
        # leap year shifts post-February dates by one
        assert session.query_value("days_since_1_1!(6, 1, 96);") == 152

    def test_macro_polymorphic_across_uses(self, session):
        session.run("macro \\first = fn (\\a, \\b) => a;")
        assert session.query_value('first!(1, "x");') == 1
        assert session.query_value('first!("y", 2);') == "y"

    def test_ill_typed_macro_rejected(self, session):
        with pytest.raises(TypeCheckError):
            session.run("macro \\bad = 1 + true;")


class TestReadvalWriteval:
    def test_readval_netcdf(self, session, tmp_path):
        from repro.io.netcdf import write_netcdf

        path = str(tmp_path / "d.nc")
        write_netcdf(path, {"x": 4}, {"v": ("int", ("x",), [9, 8, 7, 6])})
        (out,) = session.run(
            f'readval \\V using NETCDF1 at ("{path}", "v", 1, 2);'
        )
        assert out.kind == "readval"
        assert session.env.get_val("V") == Array((2,), [8, 7])
        assert session.query_value("V[0];") == 8

    def test_readval_args_are_full_queries(self, session, tmp_path):
        from repro.io.netcdf import write_netcdf

        path = str(tmp_path / "d.nc")
        write_netcdf(path, {"x": 4}, {"v": ("int", ("x",), [9, 8, 7, 6])})
        session.run("val \\lo = 1;")
        session.run(
            f'readval \\V using NETCDF1 at ("{path}", "v", lo, lo + 1);'
        )
        assert session.env.get_val("V") == Array((2,), [8, 7])

    def test_writeval_then_readval_roundtrip(self, session, tmp_path):
        path = str(tmp_path / "v.co")
        session.run(f'writeval {{1, 2, 3}} using CO at "{path}";')
        session.run(f'readval \\S using CO at "{path}";')
        assert session.query_value("S;") == frozenset({1, 2, 3})

    def test_unknown_reader(self, session):
        with pytest.raises(SessionError):
            session.run('readval \\x using NOPE at "f";')

    def test_readval_types_a_fresh_array_from_its_block(
            self, session, tmp_path, monkeypatch):
        from repro.objects import dense
        from repro.types import types

        scans = []
        elem_type = types._elem_type
        monkeypatch.setattr(
            types, "_elem_type",
            lambda items: scans.append(1) or elem_type(items))
        path = tmp_path / "v.co"
        cases = [
            ("[[3; 1.5, 2.5, 3.5]]", "[[real]]_1", True),
            ("[[2, 2; 1, 2, 3, 4]]", "[[nat]]_2", True),
            ('[[2; "a", "b"]]', "[[string]]_1", False),  # probe declines
            ("[[2, 0; ]]", None, False),  # empty: element type unknown
        ]
        for text, type_text, from_block in cases:
            path.write_text(text)
            del scans[:]
            (out,) = session.run(f'readval \\B using CO at "{path}";')
            if type_text is not None:
                assert out.type_text == type_text
            if dense.available():
                assert (out.value.block is not None and not scans) \
                    == from_block


class TestRegisterCO:
    def test_external_primitive_flow(self, session):
        from repro.types.types import TArrow, TNat

        session.register_co("sq", lambda v: v * v, TArrow(TNat(), TNat()))
        assert session.query_value("sq!7;") == 49

    def test_external_primitive_composes_with_macros(self, session):
        from repro.types.types import TArrow, TNat

        session.register_co("sq", lambda v: v * v, TArrow(TNat(), TNat()))
        assert session.query_value("maparr!(sq, [[1, 2, 3]]);") == \
            Array((3,), [1, 4, 9])


class TestOptimizeToggle:
    def test_unoptimized_session(self):
        session = Session(optimize=False)
        assert session.query_value("[[i | \\i < 3]][1];") == 1

    def test_results_agree(self):
        source = "summap(fn \\i => [[j * j | \\j < 10]][i])!(gen!10);"
        assert Session(optimize=True).query_value(source) == \
            Session(optimize=False).query_value(source)

    @pytest.mark.parametrize("text, cause, rule", [
        ("1.0 / 0.0;", "division by zero", "arith-fold"),
        ("7 % 0;", "modulo by zero", "arith-fold"),
        ("[[1, 2, 3]][5];", "out of bounds", "subscript-mkarray"),
        (r"[[ i | \i < 3 ]][5];", "out of bounds", "beta-p"),
    ])
    def test_folded_bottom_keeps_its_cause(self, text, cause, rule):
        """A ⊥ the optimizer folds raises with the cause the
        unoptimised plan names, not as the user's explicit ``bottom``."""
        for optimize in (True, False):
            session = Session(optimize=optimize)
            with pytest.raises(BottomError) as raised:
                session.query_value(text)
            assert cause in raised.value.reason, optimize
            if optimize:
                assert rule in session.env.optimizer.report()[
                    "normalize"].by_rule


class TestOutputs:
    def test_output_render_writeval(self):
        out = Output("writeval", "it", "{nat}")
        assert "written" in out.render()

    def test_run_script_returns_rendered(self, session):
        rendered = session.run_script("1;2;")
        assert len(rendered) == 2
        assert rendered[0] == "typ it : nat\nval it = 1"


class TestKeywords:
    @pytest.mark.parametrize("kwargs", [{"parallel_backend": "gpu"},
                                        {"min_cells": -5},
                                        {"min_cells": True}])
    def test_bad_kwargs_rejected(self, kwargs):
        with pytest.raises(SessionError):
            Session(**kwargs)

    def test_retired_parallel_workers_is_accepted_and_ignored(self):
        query = "[[ if x <= y then x*y else x+y | \\x < 16, \\y < 16 ]];"
        session = Session(parallel_workers=3, min_cells=8)
        assert session.env.dispatch.min_cells == 8
        assert session.query_value(query) == Session().query_value(query)
