"""Expected answers, computed without the program under test.

Every function takes the seeded inputs of :mod:`.inputs` (and, where a
round carries its own literal or month, the round number) and returns
one expectation per statement of the round, in statement order:

* ``("value", v)`` — the statement's value in plain form: numpy arrays
  for numeric AQL arrays, ``("array", dims, [...])`` for arrays of
  tuples, ``frozenset``/``tuple``/scalars otherwise;
* ``("doubles", (path, array))`` — the statement wrote a NetCDF file
  whose single variable's payload must be these big-endian doubles;
* ``("none", None)`` — nothing to compare (the effect is checked by a
  later statement that reads it back).

This module must never import ``repro``.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Tuple

import numpy as np

from . import inputs

Expectation = Tuple[str, Any]


def _values(*items: Any) -> List[Expectation]:
    return [("value", item) for item in items]


def same(actual: Any, expected: Any) -> bool:
    """Kind-strict equality of two plain values; reals to 1e-12."""
    if isinstance(expected, np.ndarray):
        return (isinstance(actual, np.ndarray)
                and actual.shape == expected.shape
                and actual.dtype.kind == expected.dtype.kind
                and (np.allclose(actual, expected, rtol=1e-12, atol=0.0)
                     if expected.dtype.kind == "f"
                     else np.array_equal(actual, expected)))
    if type(actual) is not type(expected):
        return False
    if isinstance(expected, float):
        return math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(expected, (tuple, list)):
        return len(actual) == len(expected) and all(
            same(a, e) for a, e in zip(actual, expected))
    return actual == expected


def doubles_at_end(path: str, expected: np.ndarray) -> bool:
    """Does the file end with ``expected`` as big-endian doubles?  (A
    classic NetCDF file with one fixed-size variable stores it last.)"""
    nbytes = expected.size * 8
    if os.path.getsize(path) < nbytes:
        return False
    with open(path, "rb") as handle:
        handle.seek(-nbytes, os.SEEK_END)
        stored = np.frombuffer(handle.read(), dtype=">f8")
    return np.array_equal(stored, expected.ravel())


# -- frontend_cold / serving_hot ---------------------------------------------

def frontend(data: Dict[str, Any], k: int) -> List[Expectation]:
    M, A, B = data["M"], data["A"], data["B"]
    head = A[:40]
    return _values(
        int(np.trace(M @ M.T)) + k,
        frozenset(i + k for i, x in enumerate(A.tolist()) if x > 3),
        ("array", (19,), [(int(A[2 + i]), int(B[2 + i]) + k)
                          for i in range(19)]),
        int(A @ B) + k,
        (A + k)[::-1],
        M.T + k,
        np.bincount(head, minlength=int(head.max()) + 1) + k,
        frozenset((x, y) for x in range(12) for y in range(12)
                  if (x + y + k) % 5 == 3),
        k * M,
    )


# -- scalar_eval --------------------------------------------------------------

def heatwave_days(data: Dict[str, Any]) -> frozenset:
    """Section 1, Q1: days whose heat index exceeds the threshold.  Wind
    is half-hourly over altitude levels; the query takes the surface
    level at the even (hourly) positions."""
    T, RH, WS = data["T"].tolist(), data["RH"].tolist(), data["WS"]
    surface = WS[::2, 0].tolist()
    return frozenset(
        d for d in range(inputs.HEATWAVE_DAYS)
        if inputs.heatindex_day(
            [(T[h], RH[h], surface[h]) for h in range(d * 24, d * 24 + 24)]
        ) > data["threshold"])


def hot_evenings(year: np.ndarray) -> frozenset:
    """Section 4.2, Q2: June days hotter than 85 degrees after sunset."""
    lat, lon = inputs.NYC_CELL
    june = year[inputs.JUNE_START:inputs.JUNE_START + inputs.MONTH_HOURS,
                lat, lon].tolist()
    return frozenset(
        h // 24 + 1 for h, t in enumerate(june)
        if h % 24 > inputs.june_sunset(inputs.NY_LAT, inputs.NY_LON,
                                       h // 24 + 1)
        and t > 85.0)


def scalar_eval(data: Dict[str, Any]) -> List[Expectation]:
    left = dict(data["R"])
    keys = np.array([key for key, _ in data["P"]])
    H, C = data["H"], data["C"]
    cells = np.zeros((20, 20))
    for d in range(8):
        cells = cells + C[150 + d, :20, :20]
    return _values(
        heatwave_days(data),
        hot_evenings(data["year"]),
        frozenset((a, left[a], c) for a, c in data["S"] if a in left),
        np.bincount(keys, minlength=int(keys.max()) + 1),
        np.bincount(H, minlength=int(H.max()) + 1),
        frozenset(np.flatnonzero(H == data["needle"]).tolist()),
        cells / 8.0,
        sum(i % 7 for i in range(data["sum_n"])),
    )


# -- dense_kernels / dense_sharded -------------------------------------------

def _grid(n: int) -> np.ndarray:
    x = np.arange(n)[:, None]
    return x * np.arange(n)[None, :] + x


def dense_kernels(data: Dict[str, Any]) -> List[Expectation]:
    G, H, C = data["G"], data["H"], data["C"]
    s, d0 = data["shift"], data["day0"]
    return _values(
        _grid(1500),
        G + 1,
        G.T,
        G[s:s + 500, s:s + 500],
        G * 2 + H,
        C * 1.8 + 32.0,
        C[d0:d0 + 30],
    )


def dense_sharded(data: Dict[str, Any]) -> List[Expectation]:
    return _values(
        _grid(1000),
        data["G"] + 1,
        sum(i % 7 for i in range(data["sum_n"])),
    )


# -- netcdf_io ----------------------------------------------------------------

def netcdf_io(data: Dict[str, Any], round_index: int,
              out_path: str) -> List[Expectation]:
    year = data["year"]
    start = data["starts"][round_index % len(data["starts"])]
    slab = year[start:start + inputs.MONTH_HOURS]
    column = slab[:, 1, 1]
    noon = 0.0
    for d in range(365):
        noon += float(year[d * 24 + 12, 1, 1])
    return [
        ("value", year),
        ("value", noon / 365.0),
        ("value", slab),
        ("value", frozenset(
            (np.flatnonzero(column > data["threshold"]) // 24).tolist())),
        ("none", None),
        ("value", column),
        ("doubles", (out_path, slab)),
    ]
