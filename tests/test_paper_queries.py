"""Q1/Q2 — the two full queries of the paper, end to end.

* Q1 (Section 1): "On which days last June was it unbearably hot in NYC?"
  via the external ``heatindex`` over zipped/regridded T, RH, WS arrays.
* Q2 (Section 4.2): "What days last June was it hotter than 85° after
  sunset in NYC?" over a real NetCDF file via ``readval`` — the paper's
  session prints ``{25, 27, 28}``, and so do we.
"""

import pytest

from repro.core import kernels
from repro.external.heatindex import heatindex_prim
from repro.external.solar import june_sunset_prim, sunset_hour
from repro.external.weather import (
    HEAT_WAVE,
    NY_LAT,
    NY_LON,
    june_arrays,
    lat_index,
    lon_index,
    write_year_netcdf,
)
from repro.system.session import Session
from repro.types.types import TArray, TArrow, TNat, TProduct, TReal


@pytest.fixture(scope="module")
def year_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("weather") / "temp.nc")
    write_year_netcdf(path)
    return path


def make_session():
    session = Session()
    session.register_co(
        "june_sunset", june_sunset_prim,
        TArrow(TProduct((TReal(), TReal(), TNat())), TNat()),
    )
    session.register_co(
        "heatindex", heatindex_prim,
        TArrow(TArray(TProduct((TReal(), TReal(), TReal())), 1), TReal()),
    )
    session.env.set_val("NYlat", NY_LAT)
    session.env.set_val("NYlon", NY_LON)
    return session


class TestQ1HeatwaveQuery:
    """The Section 1 motivating query, written exactly as in the paper."""

    @pytest.fixture(scope="class")
    def result(self):
        session = make_session()
        T, RH, WS = june_arrays()
        session.env.set_val("T", T)
        session.env.set_val("RH", RH)
        session.env.set_val("WS", WS)
        session.env.set_val("threshold", 95.0)
        hot = session.query_value(r"""
            {d | \d <- gen!30,
                 \WS' == evenpos!(proj_col!(WS, 0)),
                 \TRW == zip_3!(T, RH, WS'),
                 \A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > threshold};
        """)
        return hot

    def test_returns_the_heat_wave_days(self, result):
        # 0-based days 24, 26, 27 = June 25, 27, 28 — the heat wave
        assert result == frozenset({24, 26, 27})

    def test_matches_python_reference(self, result):
        from repro.external.heatindex import heatindex_day

        T, RH, WS = june_arrays()
        expected = set()
        for day in range(30):
            triples = []
            for hour in range(24):
                position = day * 24 + hour
                triples.append((
                    T[position], RH[position], WS[2 * position, 0]
                ))
            if heatindex_day(triples) > 95.0:
                expected.add(day)
        assert result == frozenset(expected)

    def test_input_grids_differ_as_in_paper(self):
        T, RH, WS = june_arrays()
        assert T.dims == (720,)       # hourly
        assert RH.dims == (720,)      # hourly
        assert WS.rank == 2           # extra altitude dimension
        assert WS.dims[0] == 1440     # half-hourly gridding


class TestQ1Shape:
    """Q1's ``:==`` bindings do not mention the day, so the motion phase
    floats them out of the days loop: only the per-day ``subseq`` and
    ``heatindex`` grow with the number of days.  Counters, not clocks,
    over the 720-hour arrays."""

    @pytest.fixture(scope="class")
    def metrics(self):
        session = make_session()
        for name, value in zip(("T", "RH", "WS"), june_arrays()):
            session.env.set_val(name, value)
        session.env.set_val("threshold", 95.0)
        query = r"""
            {d | \d <- gen!@days,
                 \WS' == evenpos!(proj_col!(WS, 0)),
                 \TRW == zip_3!(T, RH, WS'),
                 \A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > threshold};
        """
        return {days: session.explain(query.replace("@days", str(days)))
                .to_dict()["metrics"] for days in (5, 20, 30)}

    def test_each_extra_day_materializes_one_day_of_cells(self, metrics):
        grown = (metrics[20]["cells_materialized"]
                 - metrics[5]["cells_materialized"])
        assert grown == 15 * 24

    def test_the_zipped_inputs_are_built_once(self, metrics):
        assert metrics[20]["cells_vectorized"] == \
            metrics[5]["cells_vectorized"]

    def test_node_evaluations_stay_small(self, metrics):
        # one day's subseq, heatindex call and filter: 186 nodes
        grown = metrics[20]["node_evals"] - metrics[5]["node_evals"]
        assert grown <= 15 * 200
        if kernels.available():  # else zip_3's cells count as nodes
            assert metrics[30]["node_evals"] <= 15_000


class TestQ2JuneSunsetSession:
    """The Section 4.2 sample session against a genuine .nc file."""

    @pytest.fixture(scope="class")
    def session(self, year_file):
        session = make_session()
        session.env.set_val("lat_idx", lat_index(NY_LAT))
        session.env.set_val("lon_idx", lon_index(NY_LON))
        session.run(r"""
            val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
            macro \days_since_1_1 = fn (\m, \d, \y) =>
                d + summap(fn \i => months[i])!(gen!m) +
                (if m > 2 and y % 4 = 0 then 1 else 0) - 1;
        """)
        session.run(f"""
            readval \\T using NETCDF3 at
                ("{year_file}", "temp",
                 (days_since_1_1!(6,1,95)*24, lat_idx, lon_idx),
                 (days_since_1_1!(6,30,95)*24 + 23, lat_idx, lon_idx));
        """)
        return session

    def test_readval_shape(self, session):
        T = session.env.get_val("T")
        assert T.dims == (720, 1, 1)  # a month of hourly readings

    def test_paper_answer(self, session):
        result = session.query_value(r"""
            {d | [(\h, _, _) : \t] <- T, \d == h/24 + 1,
                 h % 24 > june_sunset!(NYlat, NYlon, d), t > 85.0};
        """)
        # the exact value printed in the paper's session
        assert result == frozenset({25, 27, 28})

    def test_without_sunset_filter_more_days_qualify(self, session):
        all_hot = session.query_value(r"""
            {d | [(\h, _, _) : \t] <- T, \d == h/24 + 1, t > 85.0};
        """)
        assert frozenset({25, 27, 28}) < all_hot

    def test_sunset_hour_plausible_for_june_nyc(self):
        for day in (1, 15, 30):
            hour = sunset_hour(NY_LAT, NY_LON, 6, day, 1995)
            assert 18 <= hour <= 20

    def test_heat_wave_profile_drives_the_answer(self):
        assert set(HEAT_WAVE) >= {25, 27, 28}


class TestOptimizedVsUnoptimized:
    def test_q1_same_under_both_pipelines(self):
        T, RH, WS = june_arrays()
        query = r"""
            {d | \d <- gen!%d,
                 \WS' == evenpos!(proj_col!(WS, 0)),
                 \TRW == zip_3!(T, RH, WS'),
                 \A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > %s};
        """
        # a short run, and the paper's query with its heat-wave answer
        for days, threshold in ((5, 90.0), (30, 95.0)):
            results = []
            for optimize in (True, False):
                session = make_session()
                session.optimize = optimize
                for name, value in (("T", T), ("RH", RH), ("WS", WS)):
                    session.env.set_val(name, value)
                (out,) = session.run(query % (days, threshold))
                assert out.type_text == "{nat}"
                results.append(out.value)
            assert results[0] == results[1]
        assert results[0] == frozenset({24, 26, 27})
