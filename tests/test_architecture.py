"""F3 — Figure 3 architecture: the open-system flow, end to end.

The paper's architecture demo is dynamic customization: register an
external primitive, a data reader, and an optimization rule — then use
all three from AQL without restarting anything.
"""

import ast as pyast
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.core import ast
from repro.core.fastpath import DispatchConfig
from repro.errors import SessionError
from repro.objects.array import Array
from repro.optimizer.engine import Rule
from repro.system.session import Session
from repro.types.types import TArrow, TNat, TReal, TSet


class TestDynamicPrimitive:
    def test_register_then_query(self, session):
        session.register_co("cube", lambda v: v ** 3,
                            TArrow(TNat(), TNat()))
        assert session.query_value("cube!3;") == 27

    def test_primitive_visible_to_macros_defined_later(self, session):
        session.register_co("cube", lambda v: v ** 3,
                            TArrow(TNat(), TNat()))
        session.run("macro \\cubes = fn \\S => {cube!x | \\x <- S};")
        assert session.query_value("cubes!(gen!3);") == frozenset({0, 1, 8})


class TestDynamicReader:
    def test_register_reader_and_readval(self, session, tmp_path):
        # a reader for a toy "one number per line" format
        path = tmp_path / "numbers.txt"
        path.write_text("3\n1\n4\n")

        def lines_reader(args):
            with open(args, "r", encoding="utf-8") as handle:
                return Array.from_list(
                    [int(line) for line in handle if line.strip()]
                )

        session.env.drivers.register_reader("LINES", lines_reader)
        session.run(f'readval \\V using LINES at "{path}";')
        assert session.query_value("rng!V;") == frozenset({3, 1, 4})

    def test_register_writer_and_writeval(self, session, tmp_path):
        collected = {}

        def spy_writer(value, args):
            collected["value"] = value
            collected["args"] = args

        session.env.drivers.register_writer("SPY", spy_writer)
        session.run('writeval {1, 2} using SPY at "target";')
        assert collected == {"value": frozenset({1, 2}), "args": "target"}


class TestDynamicRule:
    def test_register_rule_changes_plans(self, session):
        fired = []

        def trace_double(expr):
            if isinstance(expr, ast.Arith) and expr.op == "*" \
                    and expr.right == ast.NatLit(2):
                fired.append(True)
                return ast.Arith("+", expr.left, expr.left)
            return None

        session.env.register_rule(
            "normalize", Rule("user-strength-reduce", trace_double)
        )
        session.run("val \\x = 3;")  # a Const, so arith-fold stays out
        assert session.query_value("x * 2;") == 6
        assert fired  # the injected rule participated in the plan


class TestQueryPipeline:
    """parse → desugar → resolve → typecheck → optimize → evaluate."""

    def test_each_stage_observable(self, session):
        from repro.surface.parser import parse_expression
        from repro.surface.desugar import desugar_expression

        surface = parse_expression("{x * x | \\x <- gen!4}")
        core = desugar_expression(surface)
        resolved = session.env.resolve(core)
        inferred = session.env.typechecker().check(resolved)
        assert str(inferred) == "{nat}"
        optimized = session.env.optimizer.optimize(resolved)
        value = session.env.evaluator().run(optimized)
        assert value == frozenset({0, 1, 4, 9})

    def test_macros_substituted_before_optimization(self, session):
        session.run("macro \\idmap = fn \\A => maparr!(fn \\x => x, A);")
        core = session.env.resolve(
            desugared := __import__(
                "repro.surface.desugar", fromlist=["desugar_expression"]
            ).desugar_expression(
                __import__(
                    "repro.surface.parser", fromlist=["parse_expression"]
                ).parse_expression("idmap!V")
            )
        )
        # after macro substitution + optimization the identity map is η^p-
        # collapsed to the bare variable
        optimized = session.env.optimizer.optimize(core)
        assert optimized == ast.Var("V")


class TestTwoViews:
    """The SML-view (Python API) and the AQL-view cooperate (Section 4)."""

    def test_python_builds_values_aql_queries_them(self, session):
        session.env.set_val("M", Array((2, 2), [1.0, 2.0, 3.0, 4.0]))
        assert session.query_value("transpose!M;") == \
            Array((2, 2), [1.0, 3.0, 2.0, 4.0])

    def test_aql_defines_python_reads_back(self, session):
        session.run("val \\S = {x * 10 | \\x <- gen!3};")
        assert session.env.get_val("S") == frozenset({0, 10, 20})

    def test_round_trips_through_exchange_format(self, session, tmp_path):
        path = str(tmp_path / "v.co")
        session.run(f'writeval transpose!([[2,2; 1,2,3,4]]) '
                    f'using CO at "{path}";')
        session.run(f'readval \\back using CO at "{path}";')
        assert session.env.get_val("back") == Array((2, 2), [1, 3, 2, 4])


SRC = Path(repro.__file__).parent
PHYSICAL = ("kernels", "parallel", "setops")


def _module_file(name):
    """The source file of dotted module ``name`` under ``repro``, if any."""
    path = SRC.joinpath(*name.split(".")[1:]).with_suffix(".py")
    return path if path.is_file() else None


def _imports(path):
    """Dotted ``repro`` modules a source file imports, at any depth of
    nesting (``from pkg import mod`` counts as ``pkg.mod``)."""
    found = set()
    for node in pyast.walk(pyast.parse(path.read_text())):
        if isinstance(node, pyast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, pyast.ImportFrom) and node.module:
            for alias in node.names:
                nested = f"{node.module}.{alias.name}"
                found.add(nested if _module_file(nested) else node.module)
    return {name for name in found if name.startswith("repro.")}


class TestOneEngine:
    """One production engine makes every physical choice; the reference
    semantics stays free of them so it can serve as the oracle."""

    def test_reference_evaluator_imports_no_physical_layer(self):
        seen, frontier = set(), {"repro.core.eval"}
        while frontier:
            name = frontier.pop()
            seen.add(name)
            path = _module_file(name)
            if path is not None:
                frontier |= _imports(path) - seen
        banned = {f"repro.core.{name}"
                  for name in PHYSICAL + ("fastpath", "compile")}
        assert not seen & banned

    def test_exactly_one_class_dispatches_to_the_fast_paths(self):
        dispatchers = {}
        for path in SRC.rglob("*.py"):
            for node in pyast.walk(pyast.parse(path.read_text())):
                if not isinstance(node, pyast.ClassDef):
                    continue
                used = {sub.value.id for sub in pyast.walk(node)
                        if isinstance(sub, pyast.Attribute)
                        and isinstance(sub.value, pyast.Name)
                        and sub.value.id in PHYSICAL}
                if used:
                    dispatchers[node.name] = used
        assert dispatchers == {"Compiler": set(PHYSICAL)}

    def test_array_layout_stays_in_objects(self):
        """The code generator's rank-specialised subscripts go through
        ``Array``'s own readers: nothing under ``core/`` touches the
        backing store or the stride arithmetic."""
        private = {"_flat", "_dims", "_strides", "_block"}
        offenders = [
            f"{path.name}:{node.lineno} .{node.attr}"
            for path in (SRC / "core").rglob("*.py")
            for node in pyast.walk(pyast.parse(path.read_text()))
            if isinstance(node, pyast.Attribute) and node.attr in private
        ]
        assert not offenders


class TestKnobCensus:
    """Every option is counted here, so adding one is a decision that
    has to edit this test (and README's knob table) to land."""

    KNOBS = {"REPRO_MIN_CELLS", "REPRO_PARALLEL_WORKERS",
             "REPRO_NO_VECTORIZE", "REPRO_NO_PARALLEL", "REPRO_NO_SETOPS",
             "REPRO_NO_DENSE"}

    def test_environment_variables(self):
        named, reads = set(), 0
        for path in SRC.rglob("*.py"):
            text = path.read_text()
            named.update(re.findall(r"REPRO_[A-Z_]+", text))
            reads += sum(
                1 for node in pyast.walk(pyast.parse(text))
                if isinstance(node, pyast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, pyast.Name)
                and node.value.id == "os")
        assert named == self.KNOBS
        assert reads <= 5

    def test_session_and_dispatch_config_surface(self):
        parameters = list(inspect.signature(Session.__init__).parameters)
        assert parameters[1:] == [
            "env", "optimize", "plan_cache_capacity", "parallel_workers",
            "parallel_backend", "min_cells", "setops"]
        assert set(DispatchConfig.__slots__) == {
            "min_cells", "workers", "setops"}

    @pytest.mark.parametrize("removed", [{"adaptive": True},
                                         {"cost": "active"},
                                         {"kernel_min_cells": 1}])
    def test_removed_session_keywords_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            Session(**removed)

    def test_removed_thread_backend_is_a_named_session_error(self):
        """``parallel_backend`` survives only because the benchmark
        suite passes ``"process"``; it selects nothing."""
        with pytest.raises(SessionError, match="removed"):
            Session(parallel_backend="thread")
        with pytest.raises(TypeError):
            DispatchConfig(backend="thread")
        assert repr(Session(parallel_backend="process").env.parallel) == \
            repr(Session().env.parallel)

    def test_the_sharded_executor_has_no_thread_backend(self):
        """``threading`` serves the pool and segment registries' two
        locks and nothing else."""
        text = (SRC / "core" / "parallel.py").read_text()
        assert "ThreadPoolExecutor" not in text
        assert re.findall(r"threading\.(\w+)", text) == ["Lock", "Lock"]

    def test_core_does_not_import_the_cost_estimator(self):
        importers = [path.name for path in (SRC / "core").rglob("*.py")
                     if "repro.optimizer.cost" in _imports(path)]
        assert not importers
