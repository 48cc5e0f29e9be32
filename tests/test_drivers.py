"""Tests for the reader/writer driver registry (Section 4.1)."""

import pytest

from repro.errors import RegistrationError, SessionError
from repro.io.drivers import DriverRegistry, default_registry, make_netcdf_reader
from repro.io.netcdf import write_netcdf
from repro.io.sqlreader import make_sql_reader
from repro.objects.array import Array
from repro.objects.bag import Bag


@pytest.fixture()
def registry():
    return default_registry()


@pytest.fixture()
def june_file(tmp_path):
    path = str(tmp_path / "temp.nc")
    write_netcdf(
        path,
        dimensions={"time": None, "lat": 2, "lon": 2},
        variables={"temp": ("double", ("time", "lat", "lon"),
                            [float(i) for i in range(3 * 2 * 2)])},
    )
    return path


class TestRegistry:
    def test_default_readers_present(self, registry):
        for name in ("NETCDF1", "NETCDF2", "NETCDF3", "NETCDF", "CO", "CSV"):
            assert name in registry.reader_names()

    def test_default_writers_present(self, registry):
        for name in ("CO", "CSV", "NETCDFW"):
            assert name in registry.writer_names()

    def test_register_new_reader(self, registry):
        registry.register_reader("CONST", lambda args: 42)
        assert registry.reader("CONST")("ignored") == 42

    def test_duplicate_rejected_unless_replace(self, registry):
        with pytest.raises(RegistrationError):
            registry.register_reader("CO", lambda a: None)
        registry.register_reader("CO", lambda a: "new", replace=True)
        assert registry.reader("CO")("x") == "new"

    def test_unknown_reader(self, registry):
        with pytest.raises(SessionError):
            registry.reader("NOPE")

    def test_unknown_writer(self, registry):
        with pytest.raises(SessionError):
            registry.writer("NOPE")

    def test_empty_registry(self):
        assert DriverRegistry().reader_names() == []


class TestNetCDFReaders:
    def test_netcdf3_inclusive_subslab(self, registry, june_file):
        # "the subslab of the given variable bounded by the given indices"
        arr = registry.reader("NETCDF3")(
            (june_file, "temp", (0, 0, 0), (1, 1, 1))
        )
        assert arr.dims == (2, 2, 2)

    def test_netcdf3_single_cell(self, registry, june_file):
        arr = registry.reader("NETCDF3")(
            (june_file, "temp", (2, 1, 1), (2, 1, 1))
        )
        assert arr.dims == (1, 1, 1)
        assert arr[0, 0, 0] == 11.0

    def test_netcdf1_uses_bare_nats(self, registry, tmp_path):
        path = str(tmp_path / "one.nc")
        write_netcdf(path, {"x": 5},
                     {"v": ("int", ("x",), [0, 10, 20, 30, 40])})
        arr = registry.reader("NETCDF1")((path, "v", 1, 3))
        assert arr == Array((3,), [10, 20, 30])

    def test_whole_variable_reader(self, registry, june_file):
        arr = registry.reader("NETCDF")((june_file, "temp"))
        assert arr.dims == (3, 2, 2)

    def test_bad_arity_rejected(self, registry, june_file):
        with pytest.raises(SessionError):
            registry.reader("NETCDF3")((june_file, "temp"))

    def test_bounds_order_validated(self, registry, june_file):
        with pytest.raises(SessionError):
            registry.reader("NETCDF3")(
                (june_file, "temp", (1, 0, 0), (0, 1, 1))
            )

    def test_rank_of_bounds_validated(self, registry, june_file):
        with pytest.raises(SessionError):
            registry.reader("NETCDF3")((june_file, "temp", 0, 1))

    def test_netcdf_writer_roundtrip(self, registry, tmp_path):
        path = str(tmp_path / "out.nc")
        arr = Array((2, 3), [1.5 * i for i in range(6)])
        registry.writer("NETCDFW")(arr, (path, "v"))
        assert registry.reader("NETCDF")((path, "v")) == arr

    def test_netcdf_writer_int_arrays(self, registry, tmp_path):
        path = str(tmp_path / "out.nc")
        arr = Array((3,), [1, 2, 3])
        registry.writer("NETCDFW")(arr, (path, "v"))
        assert registry.reader("NETCDF")((path, "v")) == arr

    def test_make_reader_other_rank(self, tmp_path):
        path = str(tmp_path / "four.nc")
        write_netcdf(path, {"a": 2, "b": 2, "c": 2, "d": 2},
                     {"v": ("int", ("a", "b", "c", "d"), list(range(16)))})
        reader = make_netcdf_reader(4)
        arr = reader((path, "v", (0, 0, 0, 0), (1, 1, 1, 1)))
        assert arr.dims == (2, 2, 2, 2)


class TestCODriver:
    def test_roundtrip(self, registry, tmp_path):
        path = str(tmp_path / "v.co")
        value = frozenset({(1, Array((2,), [1.5, 2.5])), (2, Bag([1, 1]))})
        registry.writer("CO")(value, path)
        assert registry.reader("CO")(path) == value

    def test_reader_wants_filename(self, registry):
        with pytest.raises(SessionError):
            registry.reader("CO")(42)


class TestCSVDriver:
    def test_read_typed_rows(self, registry, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,qty,price\nwidget,3,1.5\ngadget,7,0.25\n")
        rows = registry.reader("CSV")(str(path))
        assert rows == frozenset({
            ("widget", 3, 1.5), ("gadget", 7, 0.25),
        })

    def test_no_header_mode(self, registry, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n")
        rows = registry.reader("CSV")((str(path), False))
        assert rows == frozenset({(1, 2), (3, 4)})

    def test_single_column_becomes_scalars(self, registry, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n5\n6\n")
        assert registry.reader("CSV")(str(path)) == frozenset({5, 6})

    def test_write_then_read(self, registry, tmp_path):
        path = str(tmp_path / "out.csv")
        value = frozenset({(1, "a"), (2, "b")})
        registry.writer("CSV")(value, path)
        assert registry.reader("CSV")((path, False)) == value

    def test_writer_rejects_non_sets(self, registry, tmp_path):
        with pytest.raises(SessionError):
            registry.writer("CSV")(42, str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("field, typed", [
        ("7", 7), ("7.5", 7.5), ("-3", -3), ("1e3", 1000.0), ("x", "x")])
    def test_csv_and_sql_type_a_field_alike(self, registry, tmp_path,
                                            field, typed):
        """int, else float, else the text: one typing for both readers."""
        path = tmp_path / "t.csv"
        path.write_text(f"c\n{field}\n")
        csv_rows = registry.reader("CSV")(str(path))
        sql_rows = make_sql_reader({"t": str(path)})("select c from t")
        assert csv_rows == sql_rows == frozenset({typed})
        (found,) = csv_rows
        assert type(found) is type(next(iter(sql_rows))) is type(typed)
