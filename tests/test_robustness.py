"""No host exception escapes a ``Session``: whatever a malformed
statement or a corrupt input file does, the caller sees an
:class:`~repro.errors.AQLError` subclass (a typed error or ⊥) or a value.

* Statements: mutants of the plan-digest corpus (``test_plan_digests``),
  each one token of :func:`repro.surface.lexer.lex` deleted, duplicated
  or swapped with another, or one character inserted, run through the
  corpus's own sessions by ``Session.run``.
* Files: a NetCDF classic file and a ``CO`` file with 1–4 bytes flipped,
  anywhere or within the header's first 200 bytes, read back by
  ``readval``.  Truncation is ``test_netcdf.py``'s ``TestCorruptHeaders``.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AQLError
from repro.io.netcdf import write_netcdf
from repro.objects.array import Array
from repro.surface.lexer import lex
from repro.system.session import Session

from test_plan_digests import _sessions

_SETTINGS = dict(derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def _corpus():
    """``(session, text)`` for every corpus statement; the sessions hold
    the vals and primitives their statements name."""
    return [(session, text) for _, session, texts in _sessions(True)
            for text in texts.values()]


def _tokens(text):
    """The source extent ``(start, end)`` of each token of ``text``."""
    _, _, offsets = lex(text)
    return [(start, start + len(text[start:end].rstrip()))
            for start, end in zip(offsets, offsets[1:])]


@st.composite
def mutants(draw):
    """``(session, mutated text)``."""
    session, text = draw(st.sampled_from(_corpus()))
    tokens = _tokens(text)
    how = draw(st.sampled_from(["delete", "duplicate", "swap", "insert"]))
    if how == "insert":
        at = draw(st.integers(0, len(text)))
        char = draw(st.characters(codec="utf-8"))
        return session, text[:at] + char + text[at:]
    index = st.integers(0, len(tokens) - 1)
    start, end = tokens[draw(index)]
    if how == "delete":
        return session, text[:start] + text[end:]
    if how == "duplicate":
        return session, text[:end] + " " + text[start:end] + text[end:]
    (start, end), (start2, end2) = sorted(
        (tokens[draw(index)], (start, end)))
    return session, (text[:start] + text[start2:end2] + text[end:start2]
                     + text[start:end] + text[end2:])


def _survives(session, text):
    """Run ``text``; an ``AQLError`` is an answer, anything else escapes."""
    try:
        session.run(text)
    except AQLError:
        pass


@pytest.mark.slow
@settings(max_examples=1500, **_SETTINGS)
@given(mutants())
def test_mutated_statements_raise_only_aql_errors(mutant):
    _survives(*mutant)


def _netcdf_bytes(path):
    """A classic file whose record variables interleave, one of them
    holding a NaN, with global and per-variable attributes."""
    cells = [float(n) / 4 for n in range(5 * 2 * 2)]
    cells[3] = math.nan
    write_netcdf(str(path), {"time": None, "lat": 2, "lon": 2}, {
        "temp": ("float", ("time", "lat", "lon"), cells,
                 {"units": "degF"}),
        "rh": ("short", ("time", "lat", "lon"), list(range(20))),
    }, {"title": "flip me", "n": 4})
    return path.read_bytes()


def _co_bytes(path):
    session = Session()
    session.env.set_val("T", Array((2, 3), [0.5, math.nan, 2.0, 3.5, 4.0,
                                            5.25]))
    session.run(f'writeval (T, {{1, 2}}, "x") using CO at "{path}";')
    return path.read_bytes()


@pytest.fixture(scope="module")
def reader():
    """The one session every corrupt file is read in."""
    return Session()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """``[(pristine bytes, path to write a flipped copy to, readval)]``
    for one NetCDF and one ``CO`` file."""
    work = tmp_path_factory.mktemp("flips")
    netcdf, co = work / "flipped.nc", work / "flipped.co"
    return [
        (_netcdf_bytes(work / "good.nc"), netcdf,
         f'readval \\V using NETCDF3 at ("{netcdf}", "temp", (0, 0, 0), '
         f'(4, 1, 1));'),
        (_netcdf_bytes(work / "good.nc"), netcdf,
         f'readval \\V using NETCDF at ("{netcdf}", "rh");'),
        (_co_bytes(work / "good.co"), co,
         f'readval \\V using CO at "{co}";'),
    ]


@st.composite
def flips(draw, size):
    """1–4 ``(offset, xor mask)`` pairs, anywhere or in the first 200
    bytes."""
    last = draw(st.sampled_from([size, min(size, 200)])) - 1
    return draw(st.lists(st.tuples(st.integers(0, last), st.integers(1, 255)),
                         min_size=1, max_size=4))


@pytest.mark.slow
@settings(max_examples=600, **_SETTINGS)
@given(data=st.data())
def test_corrupted_files_raise_only_aql_errors(reader, files, data):
    raw, path, statement = data.draw(st.sampled_from(files))
    flipped = bytearray(raw)
    for offset, mask in data.draw(flips(len(raw))):
        flipped[offset] ^= mask
    path.write_bytes(bytes(flipped))
    _survives(reader, statement)
