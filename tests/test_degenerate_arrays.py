"""Degenerate (empty / zero-dimension) arrays, end to end.

Any dimension may be zero (Section 2's domains are rectangular but not
necessarily inhabited); these tests pin the behaviour across every
layer: tabulation, literals, ``dim_k``/``index_k``, the exchange
format, and the NetCDF codec.
"""

import pytest

from repro.core import ast, evaluate
from repro.io.netcdf import read_variable, write_netcdf
from repro.objects import exchange
from repro.objects.array import Array, index_set
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression

from conftest import agree


def run(source, **binds):
    return evaluate(desugar_expression(parse_expression(source)), binds)


class TestZeroDimensionTabulation:
    def test_zero_bound_yields_empty_array(self):
        expr = ast.Tabulate(("i",), (ast.NatLit(0),), ast.Var("i"))
        assert agree(expr) == ("value", Array((0,), []))

    def test_zero_times_n_keeps_both_extents(self):
        expr = ast.Tabulate(
            ("i", "j"), (ast.NatLit(0), ast.NatLit(3)),
            ast.Arith("*", ast.Var("i"), ast.Var("j")),
        )
        result = agree(expr)[1]
        assert result.dims == (0, 3)
        assert result.flat == ()

    def test_bottom_body_never_evaluated_on_empty_domain(self):
        # [[ 1/0 | i < 0 ]]: the domain is empty, so ⊥ never happens
        expr = ast.Tabulate(
            ("i",), (ast.NatLit(0),),
            ast.Arith("/", ast.NatLit(1), ast.NatLit(0)),
        )
        assert agree(expr) == ("value", Array((0,), []))

    def test_surface_tabulation_with_zero_bound(self):
        assert run("[[i * j | \\i < 0, \\j < 3]]") == Array((0, 3), [])


class TestEmptyLiteralsAndObservations:
    def test_empty_row_major_literal(self, session):
        assert session.query_value("[[2, 0; ]]") == Array((2, 0), [])

    def test_dim_2_of_empty_literal(self, session):
        assert session.query_value("dim_2![[0, 3; ]]") == (0, 3)

    def test_subscript_into_empty_is_bottom(self, session):
        from repro.errors import BottomError
        with pytest.raises(BottomError):
            session.query_value("[[0, 3; ]][0, 0]")

    def test_len_of_empty_is_zero(self):
        assert run("len!A", A=Array((0,), [])) == 0

    def test_index_of_empty_set_is_rank_k_empty(self):
        assert index_set(frozenset(), 1) == Array((0,), [])
        assert index_set(frozenset(), 2) == Array((0, 0), [])

    def test_empty_array_equality_distinguishes_dims(self):
        assert Array((0, 3), []) != Array((3, 0), [])
        assert Array((0, 3), []) == Array((0, 3), [])

    def test_graph_of_empty_is_empty(self):
        assert Array((0, 2), []).graph() == frozenset()


class TestEmptyArrayRoundtrips:
    def test_exchange_roundtrip_preserves_dims(self):
        for dims in [(0,), (0, 3), (2, 0), (1, 0, 4)]:
            empty = Array(dims, [])
            text = exchange.dumps(empty)
            assert exchange.loads(text) == empty

    def test_exchange_text_is_the_canonical_literal(self):
        assert exchange.dumps(Array((0, 3), [])) == "[[0, 3; ]]"

    def test_netcdf_roundtrip_of_empty_variable(self, tmp_path):
        path = str(tmp_path / "empty.nc")
        write_netcdf(path, {"x": 0, "y": 3},
                     {"v": ("int", ("x", "y"), [])})
        assert read_variable(path, "v") == Array((0, 3), [])

    def test_netcdf_roundtrip_of_empty_double(self, tmp_path):
        path = str(tmp_path / "empty_f.nc")
        write_netcdf(path, {"t": 0}, {"v": ("double", ("t",), [])})
        assert read_variable(path, "v") == Array((0,), [])

    def test_session_writeval_readval_empty(self, session, tmp_path):
        path = tmp_path / "empty.co"
        session.run(f'writeval [[0, 2; ]] using CO at "{path}";')
        session.run(f'readval \\E using CO at "{path}";')
        assert session.query_value("dim_2!E") == (0, 2)
