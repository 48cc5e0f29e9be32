"""A pure-Python codec for the NetCDF *classic* on-disk format.

The paper ties AQL to "legacy" scientific data through a NetCDF driver
(Section 4.1).  The offline environment has no netCDF4/SciPy-netcdf
binding, and the paper predates NetCDF-4 anyway, so this module
implements the classic format itself — the same format the 1993 Unidata
library of the paper's citation [28] wrote:

* magic ``CDF\\x01`` (CDF-1, 32-bit offsets) and ``CDF\\x02`` (CDF-2,
  64-bit offsets);
* big-endian header: ``numrecs``, dimension list, global attributes,
  variable list (each with name, dimension ids, attributes, external
  type, vsize and data offset);
* fixed-size variable data stored row-major, padded to 4-byte
  boundaries; record variables interleaved per record along the
  UNLIMITED dimension.

Supported external types: NC_BYTE, NC_CHAR, NC_SHORT, NC_INT, NC_FLOAT,
NC_DOUBLE.  Writes produce files readable by any conforming NetCDF
implementation.

A read touches only the requested region.  A subslab is described once
as ``(base offset, per-axis byte strides, count)``; strides are
row-major over the element size, except that axis 0 of a record
variable strides by the file's record size, so interleaved record
variables are the same case as everything else.  The slab's last byte
is checked against the file size before any data is touched; then it
is gathered from a read-only ``mmap`` as one slice per maximal
contiguous run — trailing fully-covered axes merge into the run, so a
whole variable or a block of leading rows is a single slice — and the
joined bytes decode in one pass: into the array's dense backing block
(:func:`repro.objects.dense.decode_bytes`) for a numeric type with the
store on, through ``struct`` otherwise.  A malformed or truncated file
is a :class:`~repro.errors.NetCDFError` naming the path and the byte
offset.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import struct
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetCDFError
from repro.objects import dense
from repro.objects.array import Array

MAGIC = b"CDF"

NC_BYTE = 1
NC_CHAR = 2
NC_SHORT = 3
NC_INT = 4
NC_FLOAT = 5
NC_DOUBLE = 6

NC_DIMENSION = 0x0A
NC_VARIABLE = 0x0B
NC_ATTRIBUTE = 0x0C
ABSENT = 0

#: external type -> (struct format char, size in bytes)
_TYPE_INFO = {
    NC_BYTE: ("b", 1),
    NC_CHAR: ("c", 1),
    NC_SHORT: ("h", 2),
    NC_INT: ("i", 4),
    NC_FLOAT: ("f", 4),
    NC_DOUBLE: ("d", 8),
}

#: external type -> big-endian numpy dtype string (NC_CHAR decodes to
#: Python chars, never through the dense path)
_NP_DTYPES = {
    NC_BYTE: ">i1",
    NC_SHORT: ">i2",
    NC_INT: ">i4",
    NC_FLOAT: ">f4",
    NC_DOUBLE: ">f8",
}

#: friendly names accepted by the writer
TYPE_NAMES = {
    "byte": NC_BYTE,
    "char": NC_CHAR,
    "short": NC_SHORT,
    "int": NC_INT,
    "float": NC_FLOAT,
    "double": NC_DOUBLE,
}


def _pad4(count: int) -> int:
    return (4 - count % 4) % 4


@dataclass
class NetCDFDimension:
    """A named dimension; ``length == 0`` means the UNLIMITED (record)
    dimension."""

    name: str
    length: int

    @property
    def is_record(self) -> bool:
        return self.length == 0


@dataclass
class NetCDFVariable:
    """One variable: metadata plus the file offset of its data."""

    name: str
    dimensions: Tuple[str, ...]
    nc_type: int
    attributes: Dict[str, Any] = field(default_factory=dict)
    shape: Tuple[int, ...] = ()
    vsize: int = 0
    begin: int = 0
    is_record: bool = False

    @property
    def rank(self) -> int:
        return len(self.shape)


@dataclass
class NetCDFDataset:
    """The decoded header of a classic NetCDF file plus a data accessor."""

    path: str
    version: int
    numrecs: int
    dimensions: Dict[str, NetCDFDimension]
    attributes: Dict[str, Any]
    variables: Dict[str, NetCDFVariable]
    _record_size: int = 0

    def variable(self, name: str) -> NetCDFVariable:
        """Look up a variable by name; NetCDFError if absent."""
        var = self.variables.get(name)
        if var is None:
            raise NetCDFError(f"no variable named {name!r} in {self.path}")
        return var

    def read(self, name: str, start: Optional[Sequence[int]] = None,
             count: Optional[Sequence[int]] = None) -> Array:
        """Read a subslab of variable ``name`` as a repro ``Array``.

        ``start`` and ``count`` default to the whole variable.  Counts of
        zero-rank (scalar) variables return a 1-element array.
        """
        var = self.variable(name)
        shape = var.shape
        if var.is_record:
            shape = (self.numrecs,) + shape[1:]
        if not shape:  # a scalar is the one cell of a 1-element vector
            shape, start, count = (1,), None, None
        if start is None:
            start = (0,) * len(shape)
        if count is None:
            count = tuple(s - b for s, b in zip(shape, start))
        start = tuple(int(s) for s in start)
        count = tuple(int(c) for c in count)
        if len(start) != len(shape) or len(count) != len(shape):
            raise NetCDFError(
                f"start/count rank mismatch for {name!r}: "
                f"shape {shape}, start {start}, count {count}"
            )
        for origin, extent, limit in zip(start, count, shape):
            if origin < 0 or extent < 0 or origin + extent > limit:
                raise NetCDFError(
                    f"subslab [{start}..{count}] out of bounds for "
                    f"{name!r} with shape {shape}"
                )
        if 0 in count:
            return Array(count, [])  # an empty slab touches no byte
        _, size = _TYPE_INFO[var.nc_type]
        strides = [size] * len(shape)
        for axis in range(len(shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * shape[axis + 1]
        if var.is_record:
            strides[0] = self._record_size
        base = var.begin + sum(o * s for o, s in zip(start, strides))
        last = base + sum((c - 1) * s for c, s in zip(count, strides)) + size
        with open(self.path, "rb") as handle:
            file_size = os.fstat(handle.fileno()).st_size
            if base < 0 or last > file_size:
                raise NetCDFError(
                    f"{self.path}: subslab of {name!r} spans bytes "
                    f"{base}..{last} but the file ends at offset {file_size}"
                )
            with mmap.mmap(handle.fileno(), 0,
                           access=mmap.ACCESS_READ) as view:
                return self._gather(var, view, base, strides, count)

    # -- low-level readers ---------------------------------------------------

    def _gather(self, var: NetCDFVariable, view: Any, base: int,
                strides: Sequence[int], count: Tuple[int, ...]) -> Array:
        """Decode the slab ``(base, strides, count)`` of ``view`` (whose
        hull the caller has checked) into an :class:`Array`.

        Each maximal contiguous run is sliced out; the joined payload
        decodes in one ``frombuffer`` pass into the array's dense
        backing block, or — with the store off, or for NC_CHAR —
        through struct.  The widening casts are exact, so both decoders
        box identical values.
        """
        # a run grows over trailing axes while their cells are adjacent
        # in the file: the stride of the axis above a partially covered
        # one is larger than what the run has gathered, which ends it
        _, run = _TYPE_INFO[var.nc_type]
        outer = len(count)
        while outer and strides[outer - 1] == run:
            outer -= 1
            run *= count[outer]
        steps = [[i * s for i in range(c)]
                 for c, s in zip(count[:outer], strides[:outer])]
        offsets = (base + sum(step) for step in itertools.product(*steps))
        raw = b"".join(view[offset:offset + run] for offset in offsets)
        if var.nc_type != NC_CHAR:
            decoded = dense.decode_bytes(raw, _NP_DTYPES[var.nc_type])
            if decoded is not None:
                return Array(count, decoded)
        return Array(count, self._decode_values(var, raw))

    def _decode_values(self, var: NetCDFVariable, raw: bytes) -> List[Any]:
        """Struct-decode a payload to boxed Python elements."""
        fmt_char, size = _TYPE_INFO[var.nc_type]
        if var.nc_type == NC_CHAR:
            return [chr(b) for b in raw]
        count = len(raw) // size
        values = list(struct.unpack(f">{count}{fmt_char}", raw))
        if var.nc_type in (NC_FLOAT, NC_DOUBLE):
            return [float(v) for v in values]
        return [int(v) for v in values]


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def read_netcdf(path: str) -> NetCDFDataset:
    """Decode the header of a classic NetCDF file."""
    with open(path, "rb") as handle:
        return _HeaderReader(handle, path).read()


class _HeaderReader:
    def __init__(self, handle: BinaryIO, path: str):
        self.handle = handle
        self.path = path
        self.size = os.fstat(handle.fileno()).st_size
        self.version = 1

    def error(self, message: str) -> NetCDFError:
        return NetCDFError(
            f"{self.path}: {message} (at offset {self.handle.tell()})")

    def read(self) -> NetCDFDataset:
        if self._take(3) != MAGIC:
            raise self.error("not a NetCDF classic file (bad magic)")
        version = self._take(1)
        if version not in (b"\x01", b"\x02"):
            raise self.error(f"unsupported version byte {version!r}")
        self.version = version[0]
        numrecs = self._u32()
        dimensions = self._dim_list()
        attributes = self._att_list()
        variables, record_size = self._var_list(dimensions)
        dataset = NetCDFDataset(
            path=self.path,
            version=self.version,
            numrecs=numrecs,
            dimensions={d.name: d for d in dimensions},
            attributes=attributes,
            variables={v.name: v for v in variables},
        )
        dataset._record_size = record_size
        return dataset

    # primitive decoders

    def _take(self, count: int) -> bytes:
        """The next ``count`` header bytes — every header read comes
        through here, so a file cut short anywhere is a typed error
        (and a lying length never allocates more than the file holds)."""
        offset = self.handle.tell()
        raw = self.handle.read(count) if offset + count <= self.size else b""
        if len(raw) != count:
            self.handle.seek(offset)
            raise self.error(f"truncated header: {count} bytes needed, "
                             f"file ends at {self.size}")
        return raw

    def _u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def _offset(self) -> int:
        if self.version == 1:
            return self._u32()
        begin = struct.unpack(">q", self._take(8))[0]
        if begin < 0:
            raise self.error(f"negative data offset {begin}")
        return begin

    def _name(self) -> str:
        length = self._u32()
        raw = self._take(length)
        self._take(_pad4(length))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"name {raw!r} is not UTF-8") from None

    def _type(self, what: str) -> int:
        nc_type = self._u32()
        if nc_type not in _TYPE_INFO:
            raise self.error(f"bad {what} type {nc_type}")
        return nc_type

    def _dim_list(self) -> List[NetCDFDimension]:
        tag = self._u32()
        count = self._u32()
        if tag == ABSENT:
            return []
        if tag != NC_DIMENSION:
            raise self.error(f"bad dim_list tag {tag}")
        return [
            NetCDFDimension(self._name(), self._u32()) for _ in range(count)
        ]

    def _att_list(self) -> Dict[str, Any]:
        tag = self._u32()
        count = self._u32()
        if tag == ABSENT:
            return {}
        if tag != NC_ATTRIBUTE:
            raise self.error(f"bad att_list tag {tag}")
        attributes: Dict[str, Any] = {}
        for _ in range(count):
            name = self._name()
            nc_type = self._type("attribute")
            nelems = self._u32()
            fmt_char, size = _TYPE_INFO[nc_type]
            raw = self._take(nelems * size)
            self._take(_pad4(nelems * size))
            if nc_type == NC_CHAR:
                attributes[name] = raw.decode("utf-8", "replace")
            else:
                values = list(struct.unpack(f">{nelems}{fmt_char}", raw))
                attributes[name] = values[0] if nelems == 1 else values
        return attributes

    def _var_list(self, dimensions: List[NetCDFDimension]
                  ) -> Tuple[List[NetCDFVariable], int]:
        tag = self._u32()
        count = self._u32()
        if tag == ABSENT:
            return [], 0
        if tag != NC_VARIABLE:
            raise self.error(f"bad var_list tag {tag}")
        variables: List[NetCDFVariable] = []
        for _ in range(count):
            name = self._name()
            ndims = self._u32()
            dim_ids = [self._u32() for _ in range(ndims)]
            attributes = self._att_list()
            nc_type = self._type("variable")
            vsize = self._u32()
            begin = self._offset()
            if any(d >= len(dimensions) for d in dim_ids):
                raise self.error(f"variable {name!r} has bad dimension id")
            dims = tuple(dimensions[d].name for d in dim_ids)
            shape = tuple(dimensions[d].length for d in dim_ids)
            is_record = bool(dim_ids) and dimensions[dim_ids[0]].is_record
            variables.append(NetCDFVariable(
                name=name, dimensions=dims, nc_type=nc_type,
                attributes=attributes, shape=shape, vsize=vsize,
                begin=begin, is_record=is_record,
            ))
        records = [v for v in variables if v.is_record]
        slabs = [_TYPE_INFO[v.nc_type][1] * math.prod(v.shape[1:])
                 for v in records]  # bytes of one record of each
        # a single record variable's records are not padded
        record_size = slabs[0] if len(records) == 1 else sum(
            v.vsize for v in records)
        for var, slab in zip(records, slabs):
            if slab > record_size:
                raise self.error(
                    f"variable {var.name!r} needs {slab} bytes per record "
                    f"but the record size is {record_size}")
        return variables, record_size


def read_variable(path: str, name: str,
                  start: Optional[Sequence[int]] = None,
                  count: Optional[Sequence[int]] = None) -> Array:
    """Convenience: open, decode and read one (subslab of a) variable."""
    return read_netcdf(path).read(name, start, count)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def write_netcdf(path: str,
                 dimensions: Dict[str, Optional[int]],
                 variables: Dict[str, Tuple[str, Sequence[str], Any]],
                 attributes: Optional[Dict[str, Any]] = None,
                 version: int = 1) -> None:
    """Write a classic NetCDF file.

    Parameters
    ----------
    dimensions:
        ``name -> length``; exactly one dimension may map to ``None``,
        becoming the UNLIMITED (record) dimension.
    variables:
        ``name -> (type_name, dim_names, data)`` or
        ``name -> (type_name, dim_names, data, attrs)`` where
        ``type_name`` is one of ``byte short int float double char``,
        ``data`` is a repro ``Array``, a flat list, or nested lists
        matching the shape, and ``attrs`` is an optional dict of
        per-variable attributes.
    attributes:
        global attributes (str, int, float, or lists thereof).
    """
    writer = _Writer(path, dimensions, variables, attributes or {}, version)
    writer.write()


class _Writer:
    def __init__(self, path, dimensions, variables, attributes, version):
        if version not in (1, 2):
            raise NetCDFError(f"unsupported classic version {version}")
        self.path = path
        self.version = version
        self.attributes = attributes
        self.dim_names = list(dimensions)
        self.dim_lengths: List[int] = []
        record_dims = [n for n, length in dimensions.items()
                       if length is None]
        if len(record_dims) > 1:
            raise NetCDFError("at most one UNLIMITED dimension is allowed")
        self.record_dim = record_dims[0] if record_dims else None
        for name in self.dim_names:
            length = dimensions[name]
            self.dim_lengths.append(0 if length is None else int(length))
        self.variables = variables
        self.numrecs = 0

    # -- data marshalling ------------------------------------------------------

    def _flatten(self, data: Any) -> Any:
        """Row-major values of ``data``: a list, or a raveled ndarray
        view of a dense array's backing block (no boxing — the block
        bulk-encodes in :meth:`_encode_values`)."""
        if isinstance(data, Array):
            if dense.store_enabled():
                block = data.dense_block()
                if block is not None:
                    return block.data.ravel()
            return list(data.flat)
        if isinstance(data, (list, tuple)):
            flat: List[Any] = []
            stack = [data]
            # preserve row-major order with an explicit queue
            def walk(node):
                if isinstance(node, (list, tuple)):
                    for child in node:
                        walk(child)
                else:
                    flat.append(node)
            walk(data)
            return flat
        return [data]

    def _var_shape(self, dim_names: Sequence[str],
                   flat_len: int) -> Tuple[Tuple[int, ...], bool, int]:
        """Returns (shape-with-records, is_record, numrecs_for_this_var)."""
        shape: List[int] = []
        is_record = False
        for position, name in enumerate(dim_names):
            if name not in self.dim_names:
                raise NetCDFError(f"unknown dimension {name!r}")
            if name == self.record_dim:
                if position != 0:
                    raise NetCDFError(
                        "the UNLIMITED dimension must come first"
                    )
                is_record = True
                shape.append(0)  # patched below
            else:
                shape.append(self.dim_lengths[self.dim_names.index(name)])
        inner = 1
        for extent in shape[1 if is_record else 0:]:
            inner *= extent
        if is_record:
            if inner == 0:
                raise NetCDFError("record variable with zero-sized slab")
            if flat_len % inner:
                raise NetCDFError(
                    f"data length {flat_len} not a multiple of the "
                    f"record slab size {inner}"
                )
            records = flat_len // inner
            shape[0] = records
            return tuple(shape), True, records
        expected = inner if shape else 1
        if flat_len != expected:
            raise NetCDFError(
                f"data length {flat_len} does not match shape {tuple(shape)}"
            )
        return tuple(shape), False, 0

    def _encode_values(self, nc_type: int, values: Any) -> bytes:
        fmt_char, _ = _TYPE_INFO[nc_type]
        if dense.is_ndarray(values):
            if nc_type != NC_CHAR:
                raw = dense.encode_ndarray(values, _NP_DTYPES[nc_type])
                if raw is not None:
                    return raw
            # inexpressible as a bulk cast (range overflow, float→int):
            # box and take the scalar path below so error behaviour —
            # struct's canonical range/overflow errors — is preserved
            values = values.tolist()
        if nc_type == NC_CHAR:
            return b"".join(
                v.encode("utf-8")[:1] if isinstance(v, str) else bytes([v])
                for v in values
            )
        if nc_type in (NC_FLOAT, NC_DOUBLE):
            return struct.pack(f">{len(values)}{fmt_char}",
                               *[float(v) for v in values])
        return struct.pack(f">{len(values)}{fmt_char}",
                           *[int(v) for v in values])

    def _encode_attribute(self, value: Any) -> Tuple[int, bytes, int]:
        if isinstance(value, str):
            raw = value.encode("utf-8")
            return NC_CHAR, raw, len(raw)
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int):
            return NC_INT, struct.pack(">i", value), 1
        if isinstance(value, float):
            return NC_DOUBLE, struct.pack(">d", value), 1
        if isinstance(value, (list, tuple)) and value:
            if all(isinstance(v, int) for v in value):
                return NC_INT, struct.pack(f">{len(value)}i", *value), len(value)
            return (NC_DOUBLE,
                    struct.pack(f">{len(value)}d",
                                *[float(v) for v in value]),
                    len(value))
        raise NetCDFError(f"cannot encode attribute value {value!r}")

    # -- header serialization ------------------------------------------------------

    def _name_bytes(self, name: str) -> bytes:
        raw = name.encode("utf-8")
        return struct.pack(">i", len(raw)) + raw + b"\x00" * _pad4(len(raw))

    def _att_list_bytes(self, attributes: Dict[str, Any]) -> bytes:
        if not attributes:
            return struct.pack(">ii", ABSENT, 0)
        out = [struct.pack(">ii", NC_ATTRIBUTE, len(attributes))]
        for name, value in attributes.items():
            nc_type, raw, nelems = self._encode_attribute(value)
            out.append(self._name_bytes(name))
            out.append(struct.pack(">ii", nc_type, nelems))
            out.append(raw + b"\x00" * _pad4(len(raw)))
        return b"".join(out)

    def write(self) -> None:
        prepared = []  # (name, nc_type, dim_ids, shape, is_record, flat, attrs)
        numrecs = 0
        for name, spec in self.variables.items():
            if len(spec) == 4:
                type_name, dim_names, data, var_attrs = spec
            else:
                type_name, dim_names, data = spec
                var_attrs = {}
            nc_type = TYPE_NAMES.get(type_name)
            if nc_type is None:
                raise NetCDFError(f"unknown NetCDF type {type_name!r}")
            flat = self._flatten(data)
            shape, is_record, records = self._var_shape(dim_names, len(flat))
            if is_record:
                numrecs = max(numrecs, records)
            dim_ids = [self.dim_names.index(d) for d in dim_names]
            prepared.append((name, nc_type, dim_ids, shape, is_record,
                             flat, var_attrs))
        self.numrecs = numrecs

        # vsize: per-record slab for record vars, whole data otherwise
        entries = []
        record_entries = []
        for name, nc_type, dim_ids, shape, is_record, flat, var_attrs \
                in prepared:
            _, size = _TYPE_INFO[nc_type]
            inner = 1
            for extent in shape[1 if is_record else 0:]:
                inner *= extent
            data_bytes = inner * size
            vsize = data_bytes + _pad4(data_bytes)
            entry = {
                "name": name, "nc_type": nc_type, "dim_ids": dim_ids,
                "shape": shape, "is_record": is_record, "flat": flat,
                "vsize": vsize, "slab_bytes": data_bytes, "begin": 0,
                "attrs": var_attrs,
            }
            entries.append(entry)
            if is_record:
                record_entries.append(entry)

        header = self._header_bytes(entries)
        offset_width = 4 if self.version == 1 else 8
        # header length including the begin fields we haven't filled yet
        header_len = len(header) + sum(
            offset_width for _ in entries
        )
        # lay out fixed variables first, then the record section
        cursor = header_len
        for entry in entries:
            if not entry["is_record"]:
                entry["begin"] = cursor
                cursor += entry["vsize"]
        record_start = cursor
        single_record = len(record_entries) == 1
        record_size = 0
        for entry in record_entries:
            entry["begin"] = record_start + record_size
            record_size += (entry["slab_bytes"] if single_record
                            else entry["vsize"])

        with open(self.path, "wb") as handle:
            handle.write(self._header_bytes(entries, with_begin=True))
            for entry in entries:
                if entry["is_record"]:
                    continue
                handle.seek(entry["begin"])
                raw = self._encode_values(entry["nc_type"], entry["flat"])
                handle.write(raw + b"\x00" * _pad4(len(raw)))
            for record in range(self.numrecs):
                for entry in record_entries:
                    _, size = _TYPE_INFO[entry["nc_type"]]
                    per_record = entry["slab_bytes"] // size
                    begin = entry["begin"] + record * record_size
                    chunk = entry["flat"][
                        record * per_record: (record + 1) * per_record
                    ]
                    if len(chunk) < per_record:
                        if dense.is_ndarray(chunk):
                            chunk = chunk.tolist()
                        chunk = chunk + [0] * (per_record - len(chunk))
                    handle.seek(begin)
                    raw = self._encode_values(entry["nc_type"], chunk)
                    pad = 0 if single_record else _pad4(len(raw))
                    handle.write(raw + b"\x00" * pad)

    def _header_bytes(self, entries, with_begin: bool = False) -> bytes:
        out = [MAGIC, bytes([self.version])]
        out.append(struct.pack(">i", self.numrecs))
        if self.dim_names:
            out.append(struct.pack(">ii", NC_DIMENSION, len(self.dim_names)))
            for name, length in zip(self.dim_names, self.dim_lengths):
                out.append(self._name_bytes(name))
                out.append(struct.pack(">i", length))
        else:
            out.append(struct.pack(">ii", ABSENT, 0))
        out.append(self._att_list_bytes(self.attributes))
        if entries:
            out.append(struct.pack(">ii", NC_VARIABLE, len(entries)))
            for entry in entries:
                out.append(self._name_bytes(entry["name"]))
                out.append(struct.pack(">i", len(entry["dim_ids"])))
                for dim_id in entry["dim_ids"]:
                    out.append(struct.pack(">i", dim_id))
                out.append(self._att_list_bytes(entry["attrs"]))
                out.append(struct.pack(">ii", entry["nc_type"],
                                       entry["vsize"]))
                if with_begin:
                    if self.version == 1:
                        out.append(struct.pack(">i", entry["begin"]))
                    else:
                        out.append(struct.pack(">q", entry["begin"]))
        else:
            out.append(struct.pack(">ii", ABSENT, 0))
        return b"".join(out)


__all__ = [
    "NetCDFDataset", "NetCDFDimension", "NetCDFVariable",
    "read_netcdf", "read_variable", "write_netcdf",
    "NC_BYTE", "NC_CHAR", "NC_SHORT", "NC_INT", "NC_FLOAT", "NC_DOUBLE",
    "TYPE_NAMES",
]
