"""Tests for the interactive REPL loop (driven through fake stdin)."""

import builtins

import pytest

from repro.system import repl


def drive(monkeypatch, capsys, lines):
    """Feed ``lines`` to the REPL and return everything it printed."""
    feed = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr(builtins, "input", fake_input)
    code = repl.main([])  # empty argv = interactive mode
    captured = capsys.readouterr().out
    return code, captured


class TestBasics:
    def test_banner_and_eof_exit(self, monkeypatch, capsys):
        code, out = drive(monkeypatch, capsys, [])
        assert code == 0
        assert "AQL" in out

    def test_quit_command(self, monkeypatch, capsys):
        code, out = drive(monkeypatch, capsys, [":quit"])
        assert code == 0

    def test_query_evaluates(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, ["1 + 2;"])
        assert "typ it : nat" in out
        assert "val it = 3" in out

    def test_multiline_statement(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, [
            "val \\x =", "  41", "  + 1;", "x;",
        ])
        assert "val x = 42" in out
        assert "val it = 42" in out

    def test_paper_style_array_echo(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, ["[[0, 31, 28]];"])
        assert "val it = [[(0):0, (1):31, (2):28]]" in out


class TestCommands:
    def test_macros_listing(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, [":macros"])
        assert "zip" in out
        assert "transpose" in out

    def test_readers_writers(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, [":readers", ":writers"])
        assert "NETCDF3" in out
        assert "CO" in out

    def test_opt_toggle(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, [":noopt", "1;", ":opt", "1;"])
        assert "optimizer off" in out
        assert "optimizer on" in out

    def test_unknown_command(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, [":wat", ":setops off"])
        assert "unknown command ':wat'" in out
        # no command switches a fast path
        assert "unknown command ':setops off'" in out

    def test_cache_reports_hits(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, ["1 + 1;", "1 + 1;", ":cache"])
        assert "plan cache" in out
        assert "hits 1" in out

    def test_cache_clear(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys,
                       ["1 + 1;", ":cache clear", ":cache"])
        assert "plan cache cleared" in out
        assert "plan cache: 0/" in out


class TestErrorRecovery:
    def test_parse_error_reported_and_loop_continues(self, monkeypatch,
                                                     capsys):
        _, out = drive(monkeypatch, capsys, ["1 +;", "2;"])
        assert "error:" in out
        assert "val it = 2" in out

    def test_type_error_reported(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, ["1 + true;", "7;"])
        assert "error:" in out
        assert "val it = 7" in out

    def test_runtime_bottom_reported(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, ["get!{};", "8;"])
        assert "error:" in out
        assert "val it = 8" in out

    def test_state_survives_errors(self, monkeypatch, capsys):
        _, out = drive(monkeypatch, capsys, [
            "val \\x = 5;", "x + ;", "x;",
        ])
        assert "val it = 5" in out


class TestScriptExecution:
    def test_run_file_batch_mode(self, tmp_path, capsys):
        script = tmp_path / "demo.aql"
        script.write_text(
            "val \\x = [[1, 2, 3]];\n"
            "reverse!x;\n"
        )
        code = repl.main([str(script)])
        out = capsys.readouterr().out
        assert code == 0
        assert "(0):3, (1):2, (2):1" in out

    def test_batch_mode_missing_file(self, capsys):
        code = repl.main(["/nonexistent/path.aql"])
        assert code == 1
        assert "cannot read" in capsys.readouterr().out

    def test_batch_mode_error_in_script(self, tmp_path, capsys):
        script = tmp_path / "bad.aql"
        script.write_text("1 + true;\n")
        code = repl.main([str(script)])
        assert code == 1
        assert "error:" in capsys.readouterr().out

    def test_load_command(self, tmp_path, monkeypatch, capsys):
        script = tmp_path / "lib.aql"
        script.write_text("macro \\triple = fn \\x => x * 3;\n")
        _, out = drive(monkeypatch, capsys, [
            f":load {script}", "triple!7;",
        ])
        assert "registered as macro" in out
        assert "val it = 21" in out
