"""Cross-subsystem integration scenarios.

Each test exercises a realistic multi-module flow: relational data
through SQL into array code, NetCDF roundtrips through AQL transforms,
both backends against both optimizer settings, coordinate-based
selection over driver-loaded grids.
"""

import pytest

from repro.external.coords import register_coordinate_primitives
from repro.io.netcdf import read_variable, write_netcdf
from repro.io.sqlreader import make_sql_reader
from repro.objects.array import Array
from repro.system.session import Session


class TestSQLToArrays:
    """Relational source → AQL comprehension → array algebra → export."""

    def test_sales_report(self, session, tmp_path):
        sales = tmp_path / "sales.csv"
        sales.write_text(
            "region,month,amount\n"
            "east,0,100\neast,1,120\neast,2,90\n"
            "west,0,80\nwest,1,95\nwest,2,130\n"
        )
        session.env.drivers.register_reader(
            "SQL", make_sql_reader({"sales": str(sales)})
        )
        session.run('readval \\S using SQL at "select * from sales";')
        # build a months-array per region with index (implicit group-by)
        session.run(r"""
            macro \series = fn \region =>
                maparr!(fn \g => get!g,
                        index!({(m, a) | (region, \m, \a) <- S}));
        """)
        east = session.query_value('series!"east";')
        assert east == Array.from_list([100, 120, 90])
        # array algebra over the relational data
        growth = session.query_value(r"""
            let val \e = series!"east"
                val \w = series!"west"
            in maparr!(fn \p => p, zip!(e, w)) end;
        """)
        assert growth[2] == (90, 130)
        # and an aggregate across both
        total = session.query_value(
            'total!(rng!(series!"east")) + total!(rng!(series!"west"));'
        )
        assert total == 100 + 120 + 90 + 80 + 95 + 130


class TestNetCDFPipeline:
    """NetCDF in → transform in AQL → NetCDF out → verify bytes."""

    def test_smoothing_roundtrip(self, session, tmp_path):
        source = str(tmp_path / "in.nc")
        target = str(tmp_path / "out.nc")
        data = [float(v) for v in (0, 10, 0, 10, 0, 10, 0, 10)]
        write_netcdf(source, {"t": 8}, {"x": ("double", ("t",), data)})
        session.run(f'readval \\X using NETCDF at ("{source}", "x");')
        # centered 3-point moving average via windows
        session.run(r"""
            val \smooth = maparr!(
                fn \w => summap(fn \i => w[i])!(dom!w) / 3.0,
                windows!(X, 3));
        """)
        session.run(f'writeval smooth using NETCDFW at ("{target}", "s");')
        back = read_variable(target, "s")
        assert back.dims == (6,)
        expected = [10.0 / 3.0, 20.0 / 3.0] * 3
        assert all(abs(v - e) < 1e-9 for v, e in zip(back.flat, expected))

    def test_two_dim_roundtrip_with_transpose(self, session, tmp_path):
        source = str(tmp_path / "m.nc")
        target = str(tmp_path / "mt.nc")
        write_netcdf(source, {"r": 2, "c": 3},
                     {"m": ("int", ("r", "c"), list(range(6)))})
        session.run(f'readval \\M using NETCDF at ("{source}", "m");')
        session.run(f'writeval transpose!M using NETCDFW '
                    f'at ("{target}", "mt");')
        assert read_variable(target, "mt") == \
            Array((3, 2), [0, 3, 1, 4, 2, 5])


class TestCoordinateSelection:
    """Physical-coordinate subscripting over a driver-loaded grid."""

    def test_latitude_band_mean(self, tmp_path):
        session = Session()
        register_coordinate_primitives(session.env)
        path = str(tmp_path / "grid.nc")
        latitudes = [30.0, 35.0, 40.0, 45.0]
        temps = [60.0, 62.0, 64.0, 66.0]
        write_netcdf(path, {"lat": 4}, {
            "lat": ("double", ("lat",), latitudes),
            "temp": ("double", ("lat",), temps),
        })
        session.run(f'readval \\LAT using NETCDF at ("{path}", "lat");')
        session.run(f'readval \\T using NETCDF at ("{path}", "temp");')
        got = session.query_value(
            "T[coord_nearest!(LAT, 41.0)];"
        )
        assert got == 64.0
        band = session.query_value(
            "subseq!(T, coord_floor!(LAT, 35.0), "
            "coord_floor!(LAT, 44.0));"
        )
        assert band == Array.from_list([62.0, 64.0])


class TestBackendAndOptimizerMatrix:
    """All four (backend × optimizer) configurations agree."""

    QUERIES = [
        "hist2!([[3, 1, 3, 0, 3]]);",
        "{(i, x) | [\\i : \\x] <- sort!{5, 2, 9}, x > 2};",
        "matmul!(identity_mat!3, [[3,3; 1,2,3,4,5,6,7,8,9]]);",
        "prefix_sums!(take!([[5, 5, 5, 5, 5]], 3));",
        "{d | \\d <- gen!4, \\A == [[d, d*2]], contains!(A, 6)};",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_configurations_agree(self, query):
        """Optimized and unoptimized sessions agree with each other and
        with the reference evaluator on the unoptimized core."""
        from conftest import reference_query_value

        results = [Session(optimize=optimize).query_value(query)
                   for optimize in (True, False)]
        results.append(reference_query_value(
            Session().env, query.rstrip(";"), optimize=False))
        assert all(r == results[0] for r in results), results


class TestExpressivenessRoundTrip:
    """Section 6 translations applied to a *session-built* query."""

    def test_session_query_survives_array_elimination(self, session):
        from repro.core import evaluate
        from repro.expressiveness.array_elim import (
            decode_value,
            eliminate_arrays,
            encode_value,
        )
        from repro.surface.desugar import desugar_expression
        from repro.surface.parser import parse_expression
        from repro.types.types import type_of_value

        session.env.set_val("A", Array.from_list([4, 1, 3]))
        source = "{(i, x) | [\\i : \\x] <- A, x > 1}"
        core = session.env.resolve(
            desugar_expression(parse_expression(source))
        )
        original = session.query_value(source + ";")
        translated = eliminate_arrays(core)
        got = evaluate(translated)
        assert decode_value(got, type_of_value(original)) == original
