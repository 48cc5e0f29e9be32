"""Tests for the fragment-of-SQL driver (the §4.1 'planned' Sybase-style
reader, implemented)."""

import pytest

from repro.errors import SessionError
from repro.io.sqlreader import make_sql_reader
from repro.system.session import Session


@pytest.fixture()
def tables(tmp_path):
    emp = tmp_path / "emp.csv"
    emp.write_text(
        "name,dept,salary\n"
        "ada,eng,120\n"
        "grace,eng,130\n"
        "edsger,math,110\n"
    )
    dept = tmp_path / "dept.csv"
    dept.write_text(
        "dept,floor\n"
        "eng,3\n"
        "math,5\n"
    )
    return {"emp": str(emp), "dept": str(dept)}


@pytest.fixture()
def reader(tables):
    return make_sql_reader(tables)


class TestSelect:
    def test_select_star(self, reader):
        rows = reader("select * from emp")
        assert rows == frozenset({
            ("ada", "eng", 120), ("grace", "eng", 130),
            ("edsger", "math", 110),
        })

    def test_select_columns(self, reader):
        assert reader("select name, salary from emp") == frozenset({
            ("ada", 120), ("grace", 130), ("edsger", 110),
        })

    def test_single_column_yields_scalars(self, reader):
        assert reader("select name from emp") == \
            frozenset({"ada", "grace", "edsger"})

    def test_where_numeric(self, reader):
        assert reader("select name from emp where salary >= 120") == \
            frozenset({"ada", "grace"})

    def test_where_string_literal(self, reader):
        assert reader("select name from emp where dept = 'math'") == \
            frozenset({"edsger"})

    def test_where_conjunction(self, reader):
        got = reader(
            "select name from emp where dept = 'eng' and salary > 120"
        )
        assert got == frozenset({"grace"})

    def test_join_via_cross_and_equality(self, reader):
        got = reader(
            "select name, floor from emp, dept "
            "where emp.dept = dept.dept"
        )
        assert got == frozenset({
            ("ada", 3), ("grace", 3), ("edsger", 5),
        })

    def test_qualified_columns(self, reader):
        got = reader("select emp.name from emp, dept "
                     "where emp.dept = dept.dept and dept.floor = 5")
        assert got == frozenset({"edsger"})

    def test_case_insensitive_keywords(self, reader):
        assert reader("SELECT name FROM emp WHERE salary < 115") == \
            frozenset({"edsger"})


class TestErrors:
    def test_unknown_table(self, reader):
        with pytest.raises(SessionError):
            reader("select * from nope")

    def test_unknown_column(self, reader):
        with pytest.raises(SessionError):
            reader("select wat from emp")

    def test_ambiguous_column(self, reader):
        with pytest.raises(SessionError):
            reader("select dept from emp, dept")

    def test_trailing_garbage(self, reader):
        with pytest.raises(SessionError):
            reader("select name from emp order")

    def test_non_string_argument(self, reader):
        with pytest.raises(SessionError):
            reader(42)

    def test_bad_token(self, reader):
        with pytest.raises(SessionError):
            reader("select name from emp where salary ~ 1")


class TestInsideAQL:
    def test_registered_as_reader(self, tables, session):
        session.env.drivers.register_reader(
            "SQL", make_sql_reader(tables)
        )
        session.run(
            "readval \\rows using SQL at "
            "\"select name, salary from emp where dept = 'eng'\";"
        )
        # relational data now flows through ordinary AQL comprehensions
        assert session.query_value(
            "{n | (\\n, \\s) <- rows, s > 125};"
        ) == frozenset({"grace"})

    def test_join_result_feeds_array_code(self, tables, session):
        session.env.drivers.register_reader(
            "SQL", make_sql_reader(tables)
        )
        session.run('readval \\sal using SQL at '
                    '"select salary from emp";')
        # rank salaries into an array using the Section 6 machinery
        from repro.expressiveness.rank import set_to_array_by_rank
        from repro.core import ast
        expr = set_to_array_by_rank(ast.Const(session.env.get_val("sal")))
        from repro.core import evaluate
        from repro.objects.array import Array
        assert evaluate(expr) == Array.from_list([110, 120, 130])
