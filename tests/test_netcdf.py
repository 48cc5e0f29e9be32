"""P1 — tests for the pure-Python NetCDF classic codec."""

import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetCDFError
from repro.io.netcdf import (
    NC_DOUBLE,
    NC_INT,
    read_netcdf,
    read_variable,
    write_netcdf,
)
from repro.objects.array import Array
from repro.system.session import Session


@pytest.fixture()
def nc(tmp_path):
    def make(name="data.nc", **kwargs):
        path = str(tmp_path / name)
        write_netcdf(path, **kwargs)
        return path
    return make


class TestHeader:
    def test_magic_and_version(self, nc):
        path = nc(dimensions={"x": 2}, variables={
            "v": ("int", ("x",), [1, 2])})
        with open(path, "rb") as handle:
            assert handle.read(4) == b"CDF\x01"

    def test_version2_magic(self, tmp_path):
        path = str(tmp_path / "v2.nc")
        write_netcdf(path, {"x": 2}, {"v": ("int", ("x",), [1, 2])},
                     version=2)
        with open(path, "rb") as handle:
            assert handle.read(4) == b"CDF\x02"
        assert read_variable(path, "v") == Array((2,), [1, 2])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nc"
        path.write_bytes(b"HDF5....")
        with pytest.raises(NetCDFError):
            read_netcdf(str(path))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.nc"
        path.write_bytes(b"CDF\x01\x00\x00")
        with pytest.raises(NetCDFError):
            read_netcdf(str(path))

    def test_dimensions_decoded(self, nc):
        path = nc(dimensions={"lat": 3, "lon": 4},
                  variables={"v": ("int", ("lat", "lon"), list(range(12)))})
        ds = read_netcdf(path)
        assert ds.dimensions["lat"].length == 3
        assert ds.dimensions["lon"].length == 4

    def test_global_attributes(self, nc):
        path = nc(dimensions={"x": 1},
                  variables={"v": ("int", ("x",), [0])},
                  attributes={"title": "t", "n": 4, "f": 2.5,
                              "xs": [1, 2, 3]})
        attrs = read_netcdf(path).attributes
        assert attrs == {"title": "t", "n": 4, "f": 2.5, "xs": [1, 2, 3]}


class TestDataTypes:
    @pytest.mark.parametrize("type_name,values", [
        ("byte", [-2, 0, 3]),
        ("short", [-300, 0, 900]),
        ("int", [-70000, 0, 70000]),
        ("float", [1.5, -2.5, 0.0]),
        ("double", [1.25e10, -3.5, 0.0]),
    ])
    def test_roundtrip(self, nc, type_name, values):
        path = nc(dimensions={"x": len(values)},
                  variables={"v": (type_name, ("x",), values)})
        assert list(read_variable(path, "v").flat) == values

    def test_char_variable(self, nc):
        path = nc(dimensions={"x": 3},
                  variables={"v": ("char", ("x",), ["a", "b", "c"])})
        assert list(read_variable(path, "v").flat) == ["a", "b", "c"]

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(NetCDFError):
            write_netcdf(str(tmp_path / "x.nc"), {"x": 1},
                         {"v": ("quux", ("x",), [0])})


class TestLayout:
    def test_row_major(self, nc):
        path = nc(dimensions={"a": 2, "b": 3},
                  variables={"v": ("int", ("a", "b"), list(range(6)))})
        arr = read_variable(path, "v")
        assert arr[1, 0] == 3

    def test_multiple_fixed_variables(self, nc):
        path = nc(
            dimensions={"x": 2, "y": 3},
            variables={
                "a": ("int", ("x",), [1, 2]),
                "b": ("double", ("y",), [0.5, 1.5, 2.5]),
                "c": ("short", ("x", "y"), list(range(6))),
            },
        )
        assert read_variable(path, "a") == Array((2,), [1, 2])
        assert read_variable(path, "b") == Array((3,), [0.5, 1.5, 2.5])
        assert read_variable(path, "c").dims == (2, 3)

    def test_padding_of_odd_sized_variables(self, nc):
        # a 3-byte variable must pad to 4 so the next starts aligned
        path = nc(dimensions={"x": 3, "y": 2},
                  variables={"small": ("byte", ("x",), [1, 2, 3]),
                             "next": ("int", ("y",), [7, 8])})
        assert list(read_variable(path, "next").flat) == [7, 8]

    def test_scalar_variable(self, nc):
        path = nc(dimensions={"x": 1}, variables={"s": ("int", (), [42])})
        assert read_variable(path, "s") == Array((1,), [42])


class TestRecordVariables:
    def test_single_record_variable(self, nc):
        path = nc(dimensions={"t": None},
                  variables={"v": ("double", ("t",), [1.0, 2.0, 3.0])})
        ds = read_netcdf(path)
        assert ds.numrecs == 3
        assert ds.variables["v"].is_record
        assert list(ds.read("v").flat) == [1.0, 2.0, 3.0]

    def test_record_with_inner_dims(self, nc):
        path = nc(dimensions={"t": None, "x": 2},
                  variables={"v": ("int", ("t", "x"), list(range(6)))})
        arr = read_variable(path, "v")
        assert arr.dims == (3, 2)
        assert arr[2, 1] == 5

    def test_multiple_record_variables_interleaved(self, nc):
        path = nc(
            dimensions={"t": None, "x": 2},
            variables={
                "a": ("int", ("t",), [1, 2, 3]),
                "b": ("double", ("t", "x"), [float(i) for i in range(6)]),
            },
        )
        assert list(read_variable(path, "a").flat) == [1, 2, 3]
        assert read_variable(path, "b")[2, 1] == 5.0

    def test_record_and_fixed_mixed(self, nc):
        path = nc(
            dimensions={"t": None, "x": 2},
            variables={
                "fixed": ("int", ("x",), [10, 20]),
                "rec": ("int", ("t",), [1, 2]),
            },
        )
        assert list(read_variable(path, "fixed").flat) == [10, 20]
        assert list(read_variable(path, "rec").flat) == [1, 2]

    def test_record_dim_must_come_first(self, tmp_path):
        with pytest.raises(NetCDFError):
            write_netcdf(str(tmp_path / "x.nc"), {"x": 2, "t": None},
                         {"v": ("int", ("x", "t"), [1, 2])})

    def test_two_unlimited_dims_rejected(self, tmp_path):
        with pytest.raises(NetCDFError):
            write_netcdf(str(tmp_path / "x.nc"), {"t": None, "u": None}, {})


class TestSubslabs:
    def test_contiguous_tail(self, nc):
        path = nc(dimensions={"x": 5},
                  variables={"v": ("int", ("x",), [0, 1, 2, 3, 4])})
        assert list(read_variable(path, "v", (2,), (3,)).flat) == [2, 3, 4]

    def test_inner_block(self, nc):
        path = nc(dimensions={"a": 4, "b": 4},
                  variables={"v": ("int", ("a", "b"), list(range(16)))})
        sub = read_variable(path, "v", (1, 1), (2, 2))
        assert sub == Array((2, 2), [5, 6, 9, 10])

    def test_record_subslab(self, nc):
        path = nc(dimensions={"t": None, "x": 3},
                  variables={"v": ("int", ("t", "x"), list(range(12)))})
        sub = read_variable(path, "v", (1, 0), (2, 3))
        assert list(sub.flat) == [3, 4, 5, 6, 7, 8]

    def test_out_of_bounds_rejected(self, nc):
        path = nc(dimensions={"x": 3},
                  variables={"v": ("int", ("x",), [1, 2, 3])})
        with pytest.raises(NetCDFError):
            read_variable(path, "v", (2,), (5,))

    def test_rank_mismatch_rejected(self, nc):
        path = nc(dimensions={"x": 3},
                  variables={"v": ("int", ("x",), [1, 2, 3])})
        with pytest.raises(NetCDFError):
            read_variable(path, "v", (0, 0), (1, 1))

    def test_zero_count(self, nc):
        path = nc(dimensions={"x": 3},
                  variables={"v": ("int", ("x",), [1, 2, 3])})
        assert read_variable(path, "v", (1,), (0,)).size == 0


class TestWriterValidation:
    def test_data_length_mismatch(self, tmp_path):
        with pytest.raises(NetCDFError):
            write_netcdf(str(tmp_path / "x.nc"), {"x": 3},
                         {"v": ("int", ("x",), [1, 2])})

    def test_unknown_dimension(self, tmp_path):
        with pytest.raises(NetCDFError):
            write_netcdf(str(tmp_path / "x.nc"), {"x": 1},
                         {"v": ("int", ("y",), [1])})

    def test_missing_variable_lookup(self, nc):
        path = nc(dimensions={"x": 1}, variables={"v": ("int", ("x",), [1])})
        with pytest.raises(NetCDFError):
            read_variable(path, "nope")

    def test_accepts_repro_array_input(self, nc):
        arr = Array((2, 2), [1.5, 2.5, 3.5, 4.5])
        path = nc(dimensions={"a": 2, "b": 2},
                  variables={"v": ("double", ("a", "b"), arr)})
        assert read_variable(path, "v") == arr

    def test_accepts_nested_lists(self, nc):
        path = nc(dimensions={"a": 2, "b": 2},
                  variables={"v": ("int", ("a", "b"), [[1, 2], [3, 4]])})
        assert read_variable(path, "v") == Array((2, 2), [1, 2, 3, 4])


class TestPropertyRoundtrip:
    @staticmethod
    def _roundtrip(type_name, values):
        import os
        import tempfile

        handle, path = tempfile.mkstemp(suffix=".nc")
        os.close(handle)
        try:
            write_netcdf(path, {"x": len(values)},
                         {"v": (type_name, ("x",), values)})
            return list(read_variable(path, "v").flat)
        finally:
            os.remove(path)

    @given(st.lists(st.integers(-2**31 + 1, 2**31 - 1),
                    min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_int_roundtrip(self, values):
        assert self._roundtrip("int", values) == values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32),
                    min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_double_roundtrip(self, values):
        got = self._roundtrip("double", values)
        assert got == [float(v) for v in values]


class TestVariableAttributes:
    def test_roundtrip(self, nc):
        path = nc(
            dimensions={"x": 2},
            variables={"v": ("double", ("x",), [1.0, 2.0],
                             {"units": "degF", "scale": 0.5,
                              "valid": [0, 100]})},
        )
        attrs = read_netcdf(path).variables["v"].attributes
        assert attrs == {"units": "degF", "scale": 0.5, "valid": [0, 100]}

    def test_mixed_with_and_without(self, nc):
        path = nc(
            dimensions={"x": 1},
            variables={
                "a": ("int", ("x",), [1], {"units": "m"}),
                "b": ("int", ("x",), [2]),
            },
        )
        ds = read_netcdf(path)
        assert ds.variables["a"].attributes == {"units": "m"}
        assert ds.variables["b"].attributes == {}

    def test_data_layout_unaffected(self, nc):
        path = nc(
            dimensions={"x": 3},
            variables={"v": ("short", ("x",), [7, 8, 9],
                             {"long_name": "a longer description text"})},
        )
        assert list(read_variable(path, "v").flat) == [7, 8, 9]


# ---------------------------------------------------------------------------
# slabs: one description, two gathers
# ---------------------------------------------------------------------------

#: external type -> (cell value at flat position i, Python carrier)
CELLS = {
    "byte": (lambda i: i % 251 - 125, int),
    "char": (lambda i: chr(97 + i % 26), str),
    "short": (lambda i: i * 7 - 300, int),
    "int": (lambda i: i * 70001 - 10 ** 6, int),
    "float": (lambda i: i * 0.5 - 3.0, float),
    "double": (lambda i: i * 1.1e10 - 0.1, float),
}


def _nested(shape, cell, origin=0):
    """The nested list of ``shape`` whose row-major cell i is ``cell(i)``."""
    if not shape:
        return cell(origin)
    inner = 1
    for extent in shape[1:]:
        inner *= extent
    return [_nested(shape[1:], cell, origin + k * inner)
            for k in range(shape[0])]


def _slice(nested, start, count):
    """Row-major cells of the ``start``/``count`` slab of a nested list."""
    if not start:
        return [nested]
    return [cell for row in nested[start[0]:start[0] + count[0]]
            for cell in _slice(row, start[1:], count[1:])]


@st.composite
def slab_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    start, count = [], []
    for extent in shape:
        origin = draw(st.integers(0, extent))
        start.append(origin)
        count.append(draw(st.integers(0, extent - origin)))
    cut = draw(st.sampled_from(["random", "full", "column", "cell"]))
    if cut == "full":
        start, count = [0] * len(shape), list(shape)
    elif cut == "column":  # every row of one inner position: strided
        start = [0] + [draw(st.integers(0, e - 1)) for e in shape[1:]]
        count = [shape[0]] + [1] * (len(shape) - 1)
    elif cut == "cell":
        start = [draw(st.integers(0, e - 1)) for e in shape]
        count = [1] * len(shape)
    return (shape, tuple(start), tuple(count),
            draw(st.sampled_from(sorted(CELLS))),
            draw(st.sampled_from(["fixed", "record", "interleaved"])),
            draw(st.sampled_from([1, 2])))


class TestSlabProperty:
    """A slab read equals slicing the nested list the file was written
    from — for every external type, layout and format version.  Numeric
    types decode into a dense block when the store is on and through
    struct otherwise; ``char`` always decodes through struct."""

    @given(slab_cases())
    @settings(max_examples=200, deadline=None)
    def test_slab_equals_nested_slice(self, case):
        shape, start, count, type_name, layout, version = case
        cell, carrier = CELLS[type_name]
        nested = _nested(shape, cell)
        names = tuple(f"d{axis}" for axis in range(len(shape)))
        dimensions = {"pad": 3}
        dimensions.update(zip(names, shape))
        variables = {"lead": ("byte", ("pad",), [1, 2, 3])}
        if layout != "fixed":
            dimensions[names[0]] = None
        if layout == "interleaved":
            # a second record variable: records of "v" are no longer
            # adjacent, and each is padded to four bytes
            variables["w"] = ("short", (names[0],),
                              list(range(shape[0])))
        variables["v"] = (type_name, names, nested)
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "slab.nc")
            write_netcdf(path, dimensions, variables, version=version)
            got = read_variable(path, "v", start, count)
            whole = read_variable(path, "v")
        want = _slice(nested, start, count)
        assert got.dims == count
        assert list(got.flat) == want
        assert all(type(v) is carrier for v in got.flat)
        assert whole.dims == shape
        assert list(whole.flat) == _slice(nested, (0,) * len(shape), shape)


def _raw_file(shape, nc_type, payload, version=1):
    """A single-variable classic file built by hand, so the header can
    claim anything about the ``payload`` that follows it."""
    def named(text):
        raw = text.encode()
        return struct.pack(">I", len(raw)) + raw + b"\0" * (-len(raw) % 4)

    rank = len(shape)
    head = (b"CDF" + bytes([version]) + struct.pack(">I", 0)
            + struct.pack(">II", 0x0A, rank)
            + b"".join(named(f"d{axis}") + struct.pack(">I", extent)
                       for axis, extent in enumerate(shape))
            + struct.pack(">II", 0, 0)
            + struct.pack(">II", 0x0B, 1) + named("v")
            + struct.pack(f">I{rank}I", rank, *range(rank))
            + struct.pack(">II", 0, 0)
            + struct.pack(">II", nc_type, 0))
    width = 4 if version == 1 else 8
    begin = struct.pack(">I" if version == 1 else ">q", len(head) + width)
    return head + begin + payload


class TestTouchesOnlyTheRegion:
    """The paper's "subslab of the given variable": a read needs the
    bytes of its own region and nothing else — shown without a clock."""

    @pytest.mark.parametrize("type_name", ["double", "char"])
    def test_slab_inside_surviving_bytes(self, nc, tmp_path, type_name):
        cell, _ = CELLS[type_name]
        nested = _nested((10, 4), cell)
        path = nc(dimensions={"a": 10, "b": 4},
                  variables={"v": (type_name, ("a", "b"), nested)})
        width = 8 if type_name == "double" else 1
        with open(path, "rb") as handle:
            raw = handle.read()
        cut = str(tmp_path / "cut.nc")
        with open(cut, "wb") as handle:
            handle.write(raw[:len(raw) - 2 * 4 * width])  # last two rows
        head = read_variable(cut, "v", (0, 0), (8, 4))
        assert list(head.flat) == _slice(nested, (0, 0), (8, 4))
        column = read_variable(cut, "v", (2, 1), (6, 1))
        assert list(column.flat) == _slice(nested, (2, 1), (6, 1))
        with pytest.raises(NetCDFError, match="file ends at offset"):
            read_variable(cut, "v")
        with pytest.raises(NetCDFError, match="file ends at offset"):
            read_variable(cut, "v", (7, 3), (2, 1))

    @pytest.mark.parametrize("version", [1, 2])
    def test_lying_header_fails_typed_and_immediately(self, tmp_path,
                                                      version):
        path = tmp_path / "huge.nc"
        path.write_bytes(_raw_file((2 ** 31, 2 ** 31), NC_DOUBLE,
                                   struct.pack(">2d", 1.5, 2.5), version))
        dataset = read_netcdf(str(path))
        assert dataset.variables["v"].shape == (2 ** 31, 2 ** 31)
        with pytest.raises(NetCDFError, match="file ends at offset"):
            dataset.read("v")
        with pytest.raises(NetCDFError, match="file ends at offset"):
            dataset.read("v", (0, 0), (2, 1))  # second row: 16 GiB away
        # the two cells that do exist are still served
        assert list(dataset.read("v", (0, 0), (1, 2)).flat) == [1.5, 2.5]

    @pytest.mark.parametrize("version", [1, 2])
    def test_lying_rank_three_header_serves_what_exists(self, tmp_path,
                                                        version):
        # the outer stride is 2**65 bytes: past any machine integer, and
        # never multiplied by anything but the zero it starts at
        path = tmp_path / "huge3.nc"
        path.write_bytes(_raw_file((2 ** 31,) * 3, NC_DOUBLE,
                                   struct.pack(">2d", 1.5, 2.5), version))
        session = Session()
        (out,) = session.run(f'readval \\T using NETCDF3 at ("{path}", '
                             '"v", (0, 0, 0), (0, 0, 1));')
        assert out.value == Array((1, 1, 2), [1.5, 2.5])
        with pytest.raises(NetCDFError, match="file ends at offset"):
            session.run(f'readval \\T using NETCDF3 at ("{path}", "v", '
                        '(0, 0, 0), (1, 0, 0));')

    def test_record_size_smaller_than_slab_rejected(self, nc, tmp_path):
        # two record variables whose vsize fields claim 0 bytes: records
        # would alias each other, so numrecs could be anything
        path = nc(dimensions={"t": None, "x": 2},
                  variables={"a": ("int", ("t", "x"), [1, 2, 3, 4]),
                             "b": ("int", ("t",), [5, 6])})
        raw = bytearray(Path(path).read_bytes())
        for name in (b"a", b"b"):
            at = raw.index(struct.pack(">I", 1) + name + b"\0\0\0")
            # ... dimension ids, no attributes, NC_INT, then vsize
            vsize = raw.index(struct.pack(">III", 0, 0, NC_INT), at) + 12
            raw[vsize:vsize + 4] = struct.pack(">I", 0)
        bad = tmp_path / "alias.nc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(NetCDFError, match="per record"):
            read_netcdf(str(bad))


class TestCorruptHeaders:
    """No host exception from a corrupt file: every header read goes
    through one bounds-checked ``_take``."""

    @staticmethod
    def _file_with_attributes(nc):
        return nc(
            dimensions={"x": 3},
            variables={"v": ("short", ("x",), [7, 8, 9],
                             {"units": "degF", "scale": 0.5,
                              "valid": [0, 100]})},
            attributes={"title": "truncate me", "n": 4, "xs": [1.5, 2.5]},
        )

    def test_truncation_at_every_byte(self, nc, tmp_path):
        raw = Path(self._file_with_attributes(nc)).read_bytes()
        session = Session()
        cut = tmp_path / "cut.nc"
        served = []
        for length in range(len(raw) + 1):
            cut.write_bytes(raw[:length])
            try:
                (out,) = session.run(
                    f'readval \\V using NETCDF at ("{cut}", "v");')
            except NetCDFError as exc:
                assert str(cut) in str(exc) and "offset" in str(exc)
            else:
                served.append(length)
                assert list(out.value.flat) == [7, 8, 9]
        # 3 shorts = 6 data bytes + 2 of padding no read needs
        assert served == [len(raw) - 2, len(raw) - 1, len(raw)]

    def test_non_utf8_name(self, nc, tmp_path):
        raw = Path(self._file_with_attributes(nc)).read_bytes()
        bad = tmp_path / "name.nc"
        bad.write_bytes(raw.replace(b"units", b"un\xff\xfes"))
        with pytest.raises(NetCDFError, match="not UTF-8"):
            read_netcdf(str(bad))

    def test_bad_variable_type(self, tmp_path):
        bad = tmp_path / "type.nc"
        bad.write_bytes(_raw_file((2,), 9, b"\0" * 8))
        with pytest.raises(NetCDFError, match="bad variable type 9"):
            read_netcdf(str(bad))

    def test_negative_begin(self, tmp_path):
        raw = bytearray(_raw_file((2,), NC_INT, b"\0" * 8, version=2))
        raw[-16:-8] = struct.pack(">q", -8)
        bad = tmp_path / "begin.nc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(NetCDFError, match="negative data offset"):
            read_netcdf(str(bad))
