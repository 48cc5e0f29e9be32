"""F3 — Figure 3 architecture: the open-system flow, end to end.

The paper's architecture demo is dynamic customization: register an
external primitive, a data reader, and an optimization rule — then use
all three from AQL without restarting anything.
"""

import ast as pyast
import inspect
import linecache
import re
from collections import Counter, OrderedDict
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

from conftest import val_bindings


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
PHYSICAL = ("kernels", "setops")


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

    def test_only_the_code_generator_compiles_source(self):
        """Builtin ``compile``/``exec`` — turning text into code — is
        called in exactly one module."""
        callers = {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            for node in pyast.walk(pyast.parse(path.read_text()))
            if isinstance(node, pyast.Call)
            and isinstance(node.func, pyast.Name)
            and node.func.id in ("compile", "exec", "eval")
        }
        assert callers == {"core/compile.py"}

    def test_every_comprehension_is_one_loop(self):
        """Figure 1's ⋃, Σ and tabulation and Section 6's ⊎, ⋃_r and ⊎_r
        are emitted by one method, with no loop emitter of tabulation's
        own, and a plan calls no run-time loop of its own per construct
        (``bag_ext``, ``ext_rank`` …)."""
        from repro.core import runtime
        from repro.core.compile import Compiler

        assert len({Compiler._NODES[kind]
                    for kind in (*ast.LOOP_NODES, ast.Tabulate)}) == 1
        assert not {"_tabulate", "_loop_body"} & set(vars(Compiler))
        constructs = {re.sub(r"(?<!^)(?=[A-Z])", "_", kind.__name__).lower()
                      for kind in ast.LOOP_NODES}
        helpers = {name.lstrip("_") for name in runtime.NAMES} | {
            getattr(value, "__name__", "") for value in runtime.NAMES.values()}
        assert not constructs & helpers

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

    def test_numpy_is_imported_by_the_dense_store_and_kernels_only(self):
        importers = {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            for node in pyast.walk(pyast.parse(path.read_text()))
            if isinstance(node, pyast.Import) and any(
                alias.name.split(".")[0] == "numpy" for alias in node.names)
            or isinstance(node, pyast.ImportFrom)
            and (node.module or "").split(".")[0] == "numpy"
        }
        assert importers == {"objects/dense.py", "core/kernels.py"}

    def test_int_widths_are_chosen_in_one_place(self):
        """The kernel library names an int width only through
        ``dense.int_dtype``, except for ``total``'s int64 accumulator,
        and gives every ufunc of ``_int_arith`` its ``dtype=``, so no
        int result depends on numpy's promotion rules."""
        widths = {"int8", "int16", "int32", "int64", "intp", "int_"}
        tree = pyast.parse((SRC / "core" / "kernels.py").read_text())
        named = [
            (function.name, node.attr if isinstance(node, pyast.Attribute)
             else getattr(node, "id", getattr(node, "value", None)))
            for function in tree.body
            if isinstance(function, pyast.FunctionDef)
            for node in pyast.walk(function)
            if isinstance(node, pyast.Attribute) and node.attr in widths
            or isinstance(node, pyast.Name) and node.id in widths
            or isinstance(node, pyast.Constant) and node.value in widths]
        assert named == [("total", "int64")]
        (arith,) = [node for node in tree.body
                    if isinstance(node, pyast.FunctionDef)
                    and node.name == "_int_arith"]
        ufuncs = [node for node in pyast.walk(arith)
                  if isinstance(node, pyast.Call)
                  and isinstance(node.func, pyast.Attribute)
                  and isinstance(node.func.value, pyast.Name)
                  and node.func.value.id == "_np"]
        assert len(ufuncs) == 6
        assert all("dtype" in {keyword.arg for keyword in call.keywords}
                   for call in ufuncs)

    def test_kernel_library_imports_nothing_from_core(self):
        """The kernel helpers are a run-time library over values: the
        emitter is the only reader of the AST."""
        imported = _imports(SRC / "core" / "kernels.py")
        assert not {name for name in imported
                    if name.startswith("repro.core")}

    @pytest.mark.parametrize("text", [
        r"[[ x*y+x | \x < 400, \y < 400 ]]",
        r"summap(fn \i => i % 7)!(gen!100000)",
        r"matmul!(M, N)",
    ])
    def test_kernel_plans_have_one_representation(self, session, text):
        """A kernel is emitted code: no slot the plan closes over — nor a
        slot of the functions it defines — holds an AST node."""
        from repro.core import kernels
        from repro.core.compile import CompiledEvaluator

        if not kernels.available():
            pytest.skip("kernels are emitted only with numpy present")
        from repro.surface.desugar import desugar_expression
        from repro.surface.parser import parse_expression

        grid = Array((30, 30), [k % 7 for k in range(900)])
        session.env.set_val("M", grid)
        session.env.set_val("N", grid)
        core, _ = session.env.compile(desugar_expression(
            parse_expression(text)))
        evaluator = CompiledEvaluator(session.env._prim_impls,
                                      vals=val_bindings(session.env, core))
        held = _slots(evaluator.prepare(core))
        assert "_kgrids(" in evaluator.source
        assert not [value for value in held if _holds_ast(value)]

    def test_join_plans_have_one_representation(self, session, monkeypatch):
        """A hash join is emitted code as well: its plan closes over no
        AST node or join shape, a plain run compiles one factory, and
        each explain emits its probed plan once."""
        from repro.core import compile as codegen
        from repro.core.compile import CompiledEvaluator
        from repro.core.setops import JoinShape
        from repro.surface.desugar import desugar_expression
        from repro.surface.parser import parse_expression

        session.env.set_val("R", frozenset((k, k * 7 % 10)
                                           for k in range(30)))
        session.env.set_val("S", frozenset(((k * 11) % 30, k % 5)
                                           for k in range(30)))
        text = r"{(a, b, c) | (\a, \b) <- R, (\a2, \c) <- S, a = a2}"
        core, _ = session.env.compile(desugar_expression(
            parse_expression(text)))
        evaluator = CompiledEvaluator(session.env._prim_impls,
                                      vals=val_bindings(session.env, core))
        held = _slots(evaluator.prepare(core))
        assert "_cfg.wants_hash_join(" in evaluator.source
        assert not [value for value in held
                    if _holds_ast(value) or isinstance(value, JoinShape)]

        # an empty memo, and a linecache whose new entries die with it
        monkeypatch.setattr(codegen, "_FACTORIES", OrderedDict())
        monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
        emitted, module = [], codegen.Compiler._module
        monkeypatch.setattr(codegen.Compiler, "_module", lambda self, *args:
                            emitted.append(args[0]) or module(self, *args))
        session.query_value(text + ";")
        assert len(codegen._FACTORIES) == 1
        for explains in (1, 2, 3):
            metrics = session.explain(text + ";").to_dict()["metrics"]
            assert metrics["joins_hashed"] == 1
            assert len(emitted) == 1 + explains


def _slots(code):
    """Every value a plan function closes over, and those of the plan
    functions it defines, transitively."""
    frontier, held = [code], []
    while frontier:
        for cell in frontier.pop().__closure__ or ():
            value = cell.cell_contents
            held.append(value)
            if getattr(getattr(value, "__code__", None), "co_filename",
                       "").startswith("<plan"):
                frontier.append(value)
    return held


def _holds_ast(value):
    """``value`` is an AST node or a tuple or dataclass holding one."""
    if isinstance(value, ast.Expr):
        return True
    if isinstance(value, tuple):
        return any(_holds_ast(part) for part in value)
    fields = getattr(value, "__dataclass_fields__", ())
    return any(_holds_ast(getattr(value, name)) for name in fields)


class TestKnobCensus:
    """Every option is counted here, so adding one is a decision that
    has to edit this test (and README's knob table) to land."""

    KNOBS: set = set()

    def test_environment_variables(self):
        named, reads = set(), 0
        for path in SRC.rglob("*.py"):
            text = path.read_text()
            named.update(re.findall(r"REPRO[_][A-Z_]+", text))
            reads += sum(
                1 for node in pyast.walk(pyast.parse(text))
                if isinstance(node, pyast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, pyast.Name)
                and node.value.id == "os")
        assert named == self.KNOBS
        assert reads == 0

    def test_session_and_dispatch_config_surface(self):
        parameters = list(inspect.signature(Session.__init__).parameters)
        assert parameters[1:] == [
            "env", "optimize", "plan_cache_capacity", "parallel_workers",
            "parallel_backend", "min_cells"]
        assert DispatchConfig.__slots__ == ("min_cells",)

    @pytest.mark.parametrize("removed", [{"adaptive": True},
                                         {"cost": "active"},
                                         {"kernel_min_cells": 1},
                                         {"setops": False}])
    def test_removed_session_keywords_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            Session(**removed)

    def test_rejected_keywords_leave_a_shared_environment_untouched(
            self, env):
        with pytest.raises(TypeError):
            Session(env=env, min_cells=8, setops="yes")
        with pytest.raises(SessionError):
            Session(env=env, min_cells=-1)
        assert env.dispatch.min_cells == 64

    def test_removed_thread_backend_is_a_named_session_error(self):
        """``parallel_backend`` survives only because the benchmark
        suite passes ``"process"``; it selects nothing."""
        with pytest.raises(SessionError, match="removed"):
            Session(parallel_backend="thread")
        with pytest.raises(TypeError):
            DispatchConfig(backend="thread")
        assert repr(Session(parallel_backend="process").env.dispatch) == \
            repr(Session().env.dispatch)

    def test_core_does_not_import_the_optimizer(self):
        """``core/`` sits below the optimizer: not even a function-level
        import reaches up into it."""
        importers = [path.name for path in (SRC / "core").rglob("*.py")
                     if any(name.startswith("repro.optimizer")
                            for name in _imports(path))]
        assert not importers


def _uses_outside(node, names, allowed, inside=False):
    """Line numbers of the references to ``names`` under ``node`` that no
    function named in ``allowed`` encloses."""
    if isinstance(node, pyast.FunctionDef) and node.name in allowed:
        inside = True
    found = []
    if not inside and (isinstance(node, pyast.Name) and node.id in names
                       or isinstance(node, pyast.Attribute)
                       and node.attr in names):
        found.append(node.lineno)
    for child in pyast.iter_child_nodes(node):
        found += _uses_outside(child, names, allowed, inside)
    return found


def test_strict_side_conditions_go_through_two_guards():
    """The rule modules ask the three side-condition analyses only
    through ``analysis.discardable`` and ``analysis.substituted``, so
    answering them another way (a fact record, say) changes two
    functions, not every rule."""
    analyses = {"is_error_free", "effective_occurrences",
                "is_duplication_safe"}
    offenders = [
        f"{name}:{line}"
        for name in ("rules_nrc.py", "rules_arith.py", "rules_arrays.py")
        for line in _uses_outside(
            pyast.parse((SRC / "optimizer" / name).read_text()), analyses,
            {"discardable", "substituted"})
    ]
    assert not offenders
    guards = pyast.parse((SRC / "optimizer" / "analysis.py").read_text())
    assert {"discardable", "substituted"} <= {
        node.name for node in guards.body
        if isinstance(node, pyast.FunctionDef)}


def test_every_top_level_definition_is_referenced():
    """Every top-level ``def``/``class`` under ``src/repro`` is named
    somewhere in ``src/``, ``tests/`` or ``examples/`` besides its own
    definition: code nothing calls is deleted, not kept."""
    root = SRC.parent.parent
    words = Counter()
    for folder in ("src", "tests", "examples"):
        for path in (root / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text("utf-8")))
    definitions = Counter()
    where = {}
    for path in SRC.rglob("*.py"):
        for node in pyast.parse(path.read_text("utf-8")).body:
            if isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef,
                                 pyast.ClassDef)):
                definitions[node.name] += 1
                where[node.name] = f"{path.relative_to(root)}:{node.lineno}"
    unreferenced = sorted(f"{where[name]} {name}" for name in definitions
                          if words[name] <= definitions[name])
    assert not unreferenced
