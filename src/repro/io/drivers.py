"""The reader/writer driver registry (Section 4.1).

"Any driver which produces a stream of bytes in this format can quickly
be plugged into our system by registering it as a new reader."  A
*reader* is a function from an argument value (a complex object — for
the NetCDF readers, the tuple the paper's sample session passes) to a
complex-object value; a *writer* maps ``(value, args)`` to a side effect.

Default drivers:

* ``NETCDF1`` / ``NETCDF2`` / ``NETCDF3`` — the paper's subslab readers
  for 1-, 2- and 3-dimensional NetCDF variables.  ``NETCDF3`` "takes a
  file name, a variable name, a triple giving a lower bound index, and a
  triple giving an upper bound index" (bounds inclusive) "and returns the
  subslab of the given variable bounded by the given indices".
* ``NETCDF`` — whole-variable reader: ``(file, var)``.
* ``CO`` — the complex-object exchange format of Section 3 (reader and
  writer), the universal plug-in format.
* ``CSV`` — a relational reader standing in for the Sybase driver of [5]:
  rows become a set of tuples, fields typed as nat/real/string.
"""

from __future__ import annotations

import csv as _csv
from typing import Any, Callable, Dict, Sequence

from repro.errors import RegistrationError, SessionError
from repro.io.netcdf import read_variable, write_netcdf
from repro.objects.array import Array
from repro.objects.exchange import dumps, loads

Reader = Callable[[Any], Any]
Writer = Callable[[Any, Any], None]


class DriverRegistry:
    """Named readers and writers, dynamically registrable."""

    def __init__(self):
        self._readers: Dict[str, Reader] = {}
        self._writers: Dict[str, Writer] = {}

    def register_reader(self, name: str, reader: Reader,
                        replace: bool = False) -> None:
        """Register a reader under ``name`` (Section 4.1 openness)."""
        if name in self._readers and not replace:
            raise RegistrationError(f"reader {name!r} already registered")
        self._readers[name] = reader

    def register_writer(self, name: str, writer: Writer,
                        replace: bool = False) -> None:
        """Register a writer under ``name``."""
        if name in self._writers and not replace:
            raise RegistrationError(f"writer {name!r} already registered")
        self._writers[name] = writer

    def reader(self, name: str) -> Reader:
        """Look up a reader; SessionError if absent."""
        reader = self._readers.get(name)
        if reader is None:
            raise SessionError(f"no reader registered as {name!r}")
        return reader

    def writer(self, name: str) -> Writer:
        """Look up a writer; SessionError if absent."""
        writer = self._writers.get(name)
        if writer is None:
            raise SessionError(f"no writer registered as {name!r}")
        return writer

    def reader_names(self):
        """Sorted names of registered readers."""
        return sorted(self._readers)

    def writer_names(self):
        """Sorted names of registered writers."""
        return sorted(self._writers)


# ---------------------------------------------------------------------------
# NetCDF subslab readers
# ---------------------------------------------------------------------------

def _as_index_tuple(value: Any, rank: int, what: str) -> Sequence[int]:
    if rank == 1:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SessionError(f"{what} must be a natural for rank 1")
        return (value,)
    if not isinstance(value, tuple) or len(value) != rank:
        raise SessionError(f"{what} must be a {rank}-tuple of naturals")
    return tuple(int(v) for v in value)


def make_netcdf_reader(rank: int) -> Reader:
    """Build the NETCDF<rank> subslab reader of the paper.

    Arguments: ``(filename, varname, lower, upper)`` with *inclusive*
    bounds (the sample session reads June 1 .. June 30).
    """

    def read(args: Any) -> Array:
        if not isinstance(args, tuple) or len(args) != 4:
            raise SessionError(
                f"NETCDF{rank} expects (file, var, lower, upper)"
            )
        path, var, lower, upper = args
        if not isinstance(path, str) or not isinstance(var, str):
            raise SessionError("file and variable names must be strings")
        start = _as_index_tuple(lower, rank, "lower bound")
        stop = _as_index_tuple(upper, rank, "upper bound")
        count = tuple(b - a + 1 for a, b in zip(start, stop))
        if any(c <= 0 for c in count):
            raise SessionError(
                f"upper bound {upper} below lower bound {lower}"
            )
        return read_variable(path, var, start, count)

    return read


def _netcdf_whole(args: Any) -> Array:
    if not isinstance(args, tuple) or len(args) != 2:
        raise SessionError("NETCDF expects (file, var)")
    path, var = args
    return read_variable(path, var)


def _netcdf_writer(value: Any, args: Any) -> None:
    """Write a 1-/2-/3-d array of reals or nats as a NetCDF variable.

    ``args`` is ``(filename, varname)``.
    """
    if not isinstance(args, tuple) or len(args) != 2:
        raise SessionError("NETCDFW expects (file, var)")
    path, var = args
    if not isinstance(value, Array):
        raise SessionError("NETCDFW can only write arrays")
    block = value.dense_block()
    if block is not None:
        # the dtype tag answers the all-ints question without boxing
        # ("bool" maps to double, as the isinstance scan always did)
        nc_type = "int" if block.tag == "int" else "double"
    elif all(isinstance(v, int) and not isinstance(v, bool)
             for v in value.flat):
        nc_type = "int"
    else:
        nc_type = "double"
    dims = {f"d{axis}": extent for axis, extent in enumerate(value.dims)}
    write_netcdf(path, dims, {var: (nc_type, tuple(dims), value)})


# ---------------------------------------------------------------------------
# exchange-format and CSV drivers
# ---------------------------------------------------------------------------

def _co_reader(args: Any) -> Any:
    if not isinstance(args, str):
        raise SessionError("CO expects a file name")
    with open(args, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def _co_writer(value: Any, args: Any) -> None:
    if not isinstance(args, str):
        raise SessionError("CO expects a file name")
    with open(args, "w", encoding="utf-8") as handle:
        handle.write(dumps(value))
        handle.write("\n")


def _typed_field(text: str) -> Any:
    """A CSV field as an int, else a float, else its text (the CSV and
    SQL readers alike)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _csv_reader(args: Any) -> Any:
    """Rows of a CSV file as a set of tuples (header row skipped).

    Accepts a file name or ``(file, has_header)``.
    """
    has_header = True
    if isinstance(args, tuple) and len(args) == 2:
        path, has_header = args
    else:
        path = args
    if not isinstance(path, str):
        raise SessionError("CSV expects a file name")
    rows = set()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for position, row in enumerate(_csv.reader(handle)):
            if position == 0 and has_header:
                continue
            if not row:
                continue
            if len(row) == 1:
                rows.add(_typed_field(row[0]))
            else:
                rows.add(tuple(_typed_field(field) for field in row))
    return frozenset(rows)


def _csv_writer(value: Any, args: Any) -> None:
    from repro.objects.ordering import sort_values

    if not isinstance(args, str):
        raise SessionError("CSV expects a file name")
    if not isinstance(value, frozenset):
        raise SessionError("CSV can only write sets")
    with open(args, "w", encoding="utf-8", newline="") as handle:
        writer = _csv.writer(handle)
        for row in sort_values(value):
            if isinstance(row, tuple):
                writer.writerow(list(row))
            else:
                writer.writerow([row])


def default_registry() -> DriverRegistry:
    """The stock driver registry of the prototype."""
    registry = DriverRegistry()
    registry.register_reader("NETCDF1", make_netcdf_reader(1))
    registry.register_reader("NETCDF2", make_netcdf_reader(2))
    registry.register_reader("NETCDF3", make_netcdf_reader(3))
    registry.register_reader("NETCDF", _netcdf_whole)
    registry.register_writer("NETCDFW", _netcdf_writer)
    registry.register_reader("CO", _co_reader)
    registry.register_writer("CO", _co_writer)
    registry.register_reader("CSV", _csv_reader)
    registry.register_writer("CSV", _csv_writer)
    return registry


__all__ = [
    "Reader", "Writer", "DriverRegistry", "default_registry",
    "make_netcdf_reader",
]
