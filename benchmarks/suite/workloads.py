"""The six workloads: what one round runs, and why it was chosen.

A *round* is a fixed script of AQL statements executed top to bottom on
one ``Session``.  Each :class:`Workload` knows how to bind its
seeded inputs (:data:`.inputs.GENERATORS`) into a fresh session, spell
the statements of round ``r`` and name the reference answers.  The ``why``
strings are repeated in ``BENCHMARK.json`` (``--check`` compares them).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro import Array
from repro.types.types import TArray, TArrow, TNat, TProduct, TReal

from . import inputs, reference


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: bind inputs, register primitives, write input files
    setup: Callable[[Any, Dict[str, Any], str], None]
    #: the statement texts of round ``r``
    statements: Callable[[Dict[str, Any], int, str], List[str]]
    #: the reference expectations of round ``r``, in statement order
    expected: Callable[[Dict[str, Any], int, str],
                       List[reference.Expectation]]
    #: rounds per second of measuring time.  Sized on the 2-core dev box
    #: to fill about three quarters of that time, so that the count ends
    #: the loop and every run of a commit does the same work; the clock
    #: only cuts in on a much slower machine or program.
    rounds_per_second: float
    session_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: compare every round against the reference (cheap rounds whose
    #: literal changes), not just the warm-up and the final one
    check_every_round: bool = False


def _bind(session: Any, data: Dict[str, Any], *names: str) -> None:
    for name in names:
        value = data[name]
        if hasattr(value, "shape"):
            value = Array(value.shape, value)
        session.env.set_val(name, value)


def _binds(*names: str) -> Callable[[Any, Dict[str, Any], str], None]:
    """A set-up that only binds the named inputs."""
    return lambda session, data, workdir: _bind(session, data, *names)


def _fill(templates: List[str], **values: Any) -> List[str]:
    """The templates with every ``@key`` placeholder replaced."""
    texts = []
    for text in templates:
        for key, value in values.items():
            text = text.replace(f"@{key}", str(value))
        texts.append(text)
    return texts


def _write_year(data: Dict[str, Any], workdir: str) -> str:
    path = os.path.join(workdir, "temp.nc")
    inputs.write_netcdf_classic(path, "temp", data["year"])
    return path


# -- frontend_cold / serving_hot ---------------------------------------------

FRONTEND_TEMPLATES = [
    r"trace!(matmul!(matmul!(M, transpose!M), identity_mat!3)) + @k;",
    r"{i + @k | [\i : \x] <- A, x > 3};",
    r"zip!(subseq!(A, 2, 20), subseq!(maparr!(fn \x => x + @k, B), 2, 20));",
    r"summap(fn \i => A[i] * B[i])!(gen!48) + @k;",
    r"reverse!(maparr!(fn \x => x + @k, A));",
    r"let val (\m, \n) = dim_2!M in [[ M[i, j] + @k | \j < n, \i < m ]] end;",
    r"maparr!(fn \c => c + @k, hist2!(take!(A, 40)));",
    r"{(x, y) | \x <- gen!12, \y <- gen!12, (x + y + @k) % 5 = 3};",
    r"transpose!(transpose!(scale!(@k, M)));",
]


def _cold_literal(data, r):
    return data["literal"] + 1 + r


# -- scalar_eval --------------------------------------------------------------

SCALAR_STATEMENTS = [
    # Q1, the Section 1 heat-wave query, as the paper writes it
    r"""{d | \d <- gen!@days,
         \WS' == evenpos!(proj_col!(WS, 0)),
         \TRW == zip_3!(T, RH, WS'),
         \A == subseq!(TRW, d*24, d*24+23),
         heatindex!(A) > threshold};""",
    # Q2, the Section 4.2 after-sunset query over a NetCDF month
    r"""{d | [(\h, _, _) : \t] <- T3, \d == h/24 + 1,
         h % 24 > june_sunset!(NYlat, NYlon, d), t > 85.0};""",
    r"{(a, b, c) | (\a, \b) <- R, (\a2, \c) <- S, a = a2};",
    r"maparr!(count, index!P);",
    r"hist2!H;",
    r"positions!(H, needle);",
    r"[[ summap(fn \d => C[150+d, y, x])!(gen!8) / 8.0 | \y < 20, \x < 20 ]];",
    r"summap(fn \i => i % 7)!(gen!@n);",
]


def _scalar_setup(session, data, workdir):
    triples = TArray(TProduct((TReal(), TReal(), TReal())), 1)
    session.register_co("heatindex",
                        lambda day: inputs.heatindex_day(day.flat),
                        TArrow(triples, TReal()))
    session.register_co("june_sunset",
                        lambda args: inputs.june_sunset(*args),
                        TArrow(TProduct((TReal(), TReal(), TNat())), TNat()))
    _bind(session, data, "T", "RH", "WS", "threshold", "R", "S", "P", "H",
          "needle", "C")
    session.env.set_val("NYlat", inputs.NY_LAT)
    session.env.set_val("NYlon", inputs.NY_LON)
    lat, lon = inputs.NYC_CELL
    first, last = inputs.JUNE_START, inputs.JUNE_START + inputs.MONTH_HOURS - 1
    session.run(f'readval \\T3 using NETCDF3 at '
                f'("{_write_year(data, workdir)}", "temp", '
                f'({first}, {lat}, {lon}), ({last}, {lat}, {lon}));')


# -- dense_kernels / dense_sharded -------------------------------------------

DENSE_STATEMENTS = [
    r"[[ x*y+x | \x < 1500, \y < 1500 ]];",
    r"[[ G[x, y] + 1 | \x < 1000, \y < 1000 ]];",
    r"transpose!G;",
    r"[[ G[x+@s, y+@s] | \x < 500, \y < 500 ]];",
    r"[[ G[x, y]*2 + H[x, y] | \x < 1000, \y < 1000 ]];",
    r"[[ C[d, y, x]*1.8 + 32.0 | \d < 365, \y < 40, \x < 40 ]];",
    r"[[ C[d+@d0, y, x] | \d < 30, \y < 40, \x < 40 ]];",
]

SHARDED_STATEMENTS = [
    r"[[ x*y+x | \x < 1000, \y < 1000 ]];",
    r"[[ G[x, y] + 1 | \x < 500, \y < 500 ]];",
    r"summap(fn \i => i % 7)!(gen!@n);",
]


# -- netcdf_io ----------------------------------------------------------------

NETCDF_STATEMENTS = [
    r'readval \Y using NETCDF at ("@nc", "temp");',
    r"summap(fn \d => Y[d*24+12, 1, 1])!(gen!365) / 365.0;",
    r'readval \T using NETCDF3 at ("@nc", "temp", (@lo, 0, 0), (@hi, 1, 1));',
    r"{h / 24 | \h <- gen!@len, T[h, 1, 1] > threshold};",
    r'writeval [[ T[h, 1, 1] | \h < @len ]] using CO at "@co";',
    r'readval \B using CO at "@co";',
    r'writeval T using NETCDFW at ("@out", "slab");',
]


def _netcdf_setup(session, data, workdir):
    _write_year(data, workdir)
    _bind(session, data, "threshold")


def _netcdf_out(workdir):
    return os.path.join(workdir, "slab.nc")


def _netcdf_texts(data, r, workdir):
    start = data["starts"][r % len(data["starts"])]
    return _fill(NETCDF_STATEMENTS,
                 nc=os.path.join(workdir, "temp.nc"),
                 co=os.path.join(workdir, "slab.co"),
                 out=_netcdf_out(workdir),
                 lo=start, hi=start + inputs.MONTH_HOURS - 1,
                 len=inputs.MONTH_HOURS)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="frontend_cold",
        rounds_per_second=54.0,
        why="9 macro-heavy statements over tiny arrays, each with a "
            "round-specific literal: every statement is a plan-cache miss, "
            "so parse, resolve, typecheck and optimizer dominate",
        setup=_binds("M", "A", "B"),
        statements=lambda d, r, w: _fill(FRONTEND_TEMPLATES,
                                         k=_cold_literal(d, r)),
        expected=lambda d, r, w: reference.frontend(d, _cold_literal(d, r)),
        check_every_round=True,
    ),
    Workload(
        name="serving_hot",
        rounds_per_second=187.0,
        why="the same 9 templates with one fixed literal: every timed "
            "statement is a plan-cache hit, leaving parse, desugar, "
            "fingerprint lookup and a tiny evaluate; optimizer work is zero",
        setup=_binds("M", "A", "B"),
        statements=lambda d, r, w: _fill(FRONTEND_TEMPLATES, k=d["literal"]),
        expected=lambda d, r, w: reference.frontend(d, d["literal"]),
    ),
    Workload(
        name="scalar_eval",
        rounds_per_second=10.0,
        why="hot boxed/scalar bodies (paper Q1 and Q2, equi-join, index "
            "group-by, hist2, filter, cell aggregate, int sum): core.eval "
            "and core.setops do over 90 percent of the work",
        setup=_scalar_setup,
        statements=lambda d, r, w: _fill(
            SCALAR_STATEMENTS, days=inputs.HEATWAVE_DAYS, n=d["sum_n"]),
        expected=lambda d, r, w: reference.scalar_eval(d),
    ),
    Workload(
        name="dense_kernels",
        rounds_per_second=16.5,
        why="hot kernel-shaped tabulations only (grid, gather, transpose, "
            "slabs, real cube): core.kernels and objects.dense do the work "
            "and the largest live arrays show in peak_rss_mb",
        setup=_binds("G", "H", "C"),
        statements=lambda d, r, w: _fill(DENSE_STATEMENTS,
                                         s=d["shift"], d0=d["day0"]),
        expected=lambda d, r, w: reference.dense_kernels(d),
    ),
    Workload(
        name="dense_sharded",
        rounds_per_second=9.0,
        why="grid, gather and int sum through core.parallel's 2-worker "
            "process pool, shm transport and fused shard kernels: the row "
            "that prices parallel wall time against CPU",
        setup=_binds("G"),
        statements=lambda d, r, w: _fill(SHARDED_STATEMENTS, n=d["sum_n"]),
        expected=lambda d, r, w: reference.dense_sharded(d),
        session_kwargs={"parallel_workers": 2, "parallel_backend": "process"},
    ),
    Workload(
        name="netcdf_io",
        rounds_per_second=23.0,
        why="readval a year variable and a month slab, query them, write "
            "and re-read CO and NetCDF files: io, exchange, dense adoption, "
            "plan-cache invalidation and typing of freshly read arrays",
        setup=_netcdf_setup,
        statements=_netcdf_texts,
        expected=lambda d, r, w: reference.netcdf_io(d, r, _netcdf_out(w)),
    ),
]}
