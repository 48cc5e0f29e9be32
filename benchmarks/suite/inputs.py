"""Seeded inputs, shared by the workloads and their references.

Nothing here imports ``repro``: the program under test only ever sees
what these functions generate (numpy arrays, Python sets, a NetCDF file
written by :func:`write_netcdf_classic`), and :mod:`.reference` computes
the expected answers from the very same objects.

The two external primitives of the paper's queries (``heatindex`` of
Section 1, ``june_sunset`` of Section 4.2) are user code registered
through ``register_co``, so they live here too — the workload registers
them, the reference calls them directly.
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from typing import Any, Dict

import numpy as np

#: hours in the one-month window the NetCDF workloads read
MONTH_HOURS = 720
#: grid of the year-long temperature variable: (hours, lat, lon)
YEAR_SHAPE = (8760, 2, 2)
#: first hour of June in a non-leap year, and the cell standing for NYC
JUNE_START = 151 * 24
NYC_CELL = (1, 1)
NY_LAT, NY_LON = 40.78, 73.97
#: days covered by the Section 1 heat-wave arrays
HEATWAVE_DAYS = 10


def rng_for(seed: int, name: str) -> np.random.Generator:
    """One independent stream per (seed, input name)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# -- external primitives (user code) ----------------------------------------

def heatindex_day(readings: Any) -> float:
    """A day's hourly (temperature, humidity, wind) triples -> score."""
    return max(t + 0.1 * (rh - 50.0) - 0.3 * min(ws, 25.0)
               for t, rh, ws in readings)


def june_sunset(latitude: float, longitude: float, day: int) -> int:
    """Local standard hour of sunset on the given day of June."""
    declination = math.radians(23.45) * math.sin(
        2.0 * math.pi * (284 + 151 + day) / 365.0)
    hour_angle = math.degrees(math.acos(
        -math.tan(math.radians(latitude)) * math.tan(declination)))
    meridian = round(longitude / 15.0) * 15.0
    return int(12.0 + hour_angle / 15.0 + (longitude - meridian) / 15.0)


# -- the NetCDF input file ---------------------------------------------------

def write_netcdf_classic(path: str, name: str, data: np.ndarray) -> None:
    """Write one fixed-size double variable as a CDF-1 file.
    Independent of ``repro.io.netcdf`` on purpose: a codec bug must not
    be able to hide in a file the codec wrote."""

    def named(text: str) -> bytes:
        raw = text.encode()
        return struct.pack(">i", len(raw)) + raw + b"\0" * (-len(raw) % 4)

    dims = b"".join(named(f"d{axis}") + struct.pack(">i", extent)
                    for axis, extent in enumerate(data.shape))
    payload = np.ascontiguousarray(data, dtype=">f8").tobytes()
    head = (b"CDF\x01" + struct.pack(">i", 0)
            + struct.pack(">ii", 0x0A, data.ndim) + dims
            + struct.pack(">ii", 0, 0)
            + struct.pack(">ii", 0x0B, 1) + named(name)
            + struct.pack(f">i{data.ndim}i", data.ndim, *range(data.ndim))
            + struct.pack(">ii", 0, 0)
            + struct.pack(">ii", 6, len(payload)))
    with open(path, "wb") as handle:
        handle.write(head + struct.pack(">i", len(head) + 4) + payload)


def year_temperatures(seed: int) -> np.ndarray:
    """A year of hourly temperatures over :data:`YEAR_SHAPE`, with three
    seeded June days whose evenings stay hot."""
    rng = rng_for(seed, "year")
    hours = np.arange(YEAR_SHAPE[0])
    seasonal = 20.0 * np.cos(2 * np.pi * (hours / 24.0 - 201) / 365.0)
    diurnal = 8.0 * np.cos(2 * np.pi * (hours % 24 - 15) / 24.0)
    field = (62.0 + seasonal + diurnal)[:, None, None] \
        + rng.normal(0.0, 1.2, YEAR_SHAPE)
    for day in rng.choice(30, size=3, replace=False):
        start = JUNE_START + int(day) * 24
        field[start:start + 24] += 9.0
    return field


# -- per-workload inputs -----------------------------------------------------

def frontend(seed: int) -> Dict[str, Any]:
    rng = rng_for(seed, "frontend")
    return {
        "M": rng.integers(1, 10, (3, 3)),
        "A": rng.integers(0, 10, 48),
        "B": rng.integers(0, 10, 48),
        # hot rounds reuse `literal`; cold round r uses literal + 1 + r
        "literal": int(rng.integers(1, 1000)) * 10_000,
    }


def scalar_eval(seed: int) -> Dict[str, Any]:
    rng = rng_for(seed, "scalar_eval")
    days = HEATWAVE_DAYS
    hour = np.arange(days * 24) % 24
    bump = np.zeros(days)
    bump[rng.choice(days, size=3, replace=False)] = 8.0
    temperature = (78.0 + 9.0 * np.cos(2 * np.pi * (hour - 15) / 24.0)
                   + np.repeat(bump, 24) + rng.normal(0, 0.8, days * 24))
    humidity = (60.0 + 10.0 * np.cos(2 * np.pi * (hour - 5) / 24.0)
                + rng.normal(0, 2.0, days * 24))
    wind = (6.0 + 3.5 * np.arange(4)[None, :]
            + rng.normal(0, 1.0, (days * 48, 4))).clip(0.0)
    n = 1000
    return {
        "T": temperature, "RH": humidity, "WS": wind, "threshold": 96.0,
        "year": year_temperatures(seed),
        # every key occurs exactly once per side: the join always yields n
        "R": frozenset(zip(rng.permutation(n).tolist(),
                           rng.integers(0, 100, n).tolist())),
        "S": frozenset(zip(rng.permutation(n).tolist(),
                           rng.integers(0, 100, n).tolist())),
        "P": frozenset(zip(rng.integers(0, 1024, 5000).tolist(),
                           range(5000))),
        "H": rng.integers(0, 64, 2000),
        "needle": int(rng.integers(0, 64)),
        "C": rng.random((365, 40, 40)) * 40.0,
        "sum_n": 5_000,
    }


def dense_kernels(seed: int) -> Dict[str, Any]:
    rng = rng_for(seed, "dense_kernels")
    return {
        "G": rng.integers(0, 1000, (1000, 1000)),
        "H": rng.integers(0, 1000, (1000, 1000)),
        "C": rng.random((365, 40, 40)) * 40.0,
        "shift": int(rng.integers(0, 500)),
        "day0": int(rng.integers(0, 335)),
    }


def dense_sharded(seed: int) -> Dict[str, Any]:
    rng = rng_for(seed, "dense_sharded")
    return {"G": rng.integers(0, 1000, (500, 500)), "sum_n": 100_000}


def netcdf_io(seed: int) -> Dict[str, Any]:
    rng = rng_for(seed, "netcdf_io")
    year = year_temperatures(seed)
    starts = (rng.permutation(12) * MONTH_HOURS).tolist()
    return {
        "year": year,
        # round r reads the fixed-length window starting at starts[r % 12]
        "starts": starts,
        "threshold": float(np.quantile(year[:, 1, 1], 0.9)),
    }


#: workload name -> generator of its inputs from a seed
GENERATORS = {
    "frontend_cold": frontend,
    "serving_hot": frontend,
    "scalar_eval": scalar_eval,
    "dense_kernels": dense_kernels,
    "dense_sharded": dense_sharded,
    "netcdf_io": netcdf_io,
}


def digest(data: Dict[str, Any]) -> str:
    """A fingerprint of generated inputs (same seed, same digest)."""
    sha = hashlib.sha256()
    for key in sorted(data):
        value = data[key]
        if isinstance(value, frozenset):
            value = sorted(value)
        sha.update(key.encode())
        sha.update(value.tobytes() if isinstance(value, np.ndarray)
                   else repr(value).encode())
    return sha.hexdigest()
