"""The top-level environment: dynamic registration and name resolution.

This is the openness story of Section 4.1: "new external functions, data
readers/writers, and optimization rules can all be added dynamically to
the AQL top-level environment by calling appropriate registration
routines provided in the environment module."

The environment holds four name spaces:

* **primitives** — native functions with type schemes (``RegisterCO``);
* **macros** — AQL queries registered under a name, typechecked at
  declaration and *substituted into* queries before optimization (as
  their normal form, computed once, when the query is optimised);
* **vals** — complex-object values (from ``val`` declarations and
  ``readval``): a query's plan parameters, a macro's captured constants;
* **drivers** — the reader/writer registry.

plus the optimizer, whose rule bases are extensible through
:meth:`TopEnv.register_rule`.

Registrations bump :attr:`TopEnv.generation`; a val (re)binding drops
that name's memoized scheme, so :meth:`TopEnv.val_scheme` answers with a
new object.  A plan cache reads both when next accessed
(``repro.system.plan_cache``): nothing here refers to a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core import ast
from repro.core.compile import CompiledEvaluator, NativePrim
from repro.core.fastpath import DispatchConfig
from repro.core.typecheck import TypeChecker
from repro.errors import RegistrationError, TypeCheckError
from repro.io.drivers import DriverRegistry, default_registry
from repro.obs import Observability
from repro.optimizer.engine import Optimizer, Rule, default_optimizer
from repro.types.types import Type, TypeScheme, type_of_value
from repro.types.unify import generalize


@dataclass
class Macro:
    """A registered macro: its resolved body as written, the scheme
    inferred for it at registration, and the body's normal form under
    the ``normalize`` phase with the rule-base version it was computed
    under (``None`` until the first optimising use)."""

    body: ast.Expr
    scheme: TypeScheme
    normal: Optional[ast.Expr] = None
    normal_version: Optional[int] = None


class TopEnv:
    """The customizable AQL top-level environment."""

    def __init__(self,
                 drivers: Optional[DriverRegistry] = None,
                 optimizer: Optional[Optimizer] = None):
        self._prim_impls: Dict[str, NativePrim] = {}
        self._prim_schemes: Dict[str, TypeScheme] = {}
        self._macros: Dict[str, Macro] = {}
        #: ``id(body) -> (body, scheme)`` for every raw and normal macro
        #: body: typecheckers share it by reference and instantiate the
        #: scheme of a body they meet instead of inferring it again
        self._macro_schemes: Dict[int, Tuple[ast.Expr, TypeScheme]] = {}
        self._vals: Dict[str, Any] = {}
        #: ``name -> generalize(type_of_value(val))``, once per binding:
        #: a new object exactly when :meth:`set_val` has rebound the name
        self._val_schemes: Dict[str, TypeScheme] = {}
        self.drivers = drivers if drivers is not None else default_registry()
        self.optimizer = (optimizer if optimizer is not None
                          else default_optimizer())
        #: fast-path gating shared by every evaluator this environment
        #: builds (kernels, hash joins); handed out by reference, so
        #: Session-level tuning retunes live engines — including
        #: evaluators resident in a plan cache
        self.dispatch = DispatchConfig()
        #: always None; read only by the two ``env.cost`` guards of
        #: benchmarks/suite/layers.py until ROADMAP item 0 removes them
        self.cost = None
        #: the observability switch threaded through the whole pipeline
        #: (Section 4.1's openness applied to measurement); disabled
        #: until ``:profile``, so every instrument is the zero-cost null
        self.obs = Observability()
        #: bumped by every structural registration (primitive, macro,
        #: optimization rule); a val (re)binding renews its scheme
        self.generation = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def standard(cls) -> "TopEnv":
        """The stock environment: builtins + the AQL standard library."""
        from repro.env.primitives import builtin_primitives
        from repro.env.stdlib import STDLIB_SOURCE
        from repro.surface.parser import parse_program
        from repro.surface.sast import MacroDecl
        from repro.surface.desugar import Desugarer

        env = cls()
        for name, (impl, sig) in builtin_primitives().items():
            env.register_primitive(name, impl, sig)
        desugarer = Desugarer()
        for statement in parse_program(STDLIB_SOURCE):
            if not isinstance(statement, MacroDecl):  # pragma: no cover
                raise RegistrationError("stdlib may only contain macros")
            env.register_macro(statement.name,
                               desugarer.desugar(statement.expr))
        return env

    # -- val schemes (plan-cache validity) --------------------------------------

    def val_scheme(self, name: str) -> Optional[TypeScheme]:
        """The scheme of ``name``'s val (None if unbound), computed once
        per binding: the same object until :meth:`set_val` rebinds the
        name, so a cache compares a name's scheme only when it is new."""
        scheme = self._val_schemes.get(name)
        if scheme is None and name in self._vals:
            try:
                found = type_of_value(self._vals[name])
            except (TypeError, TypeCheckError) as exc:
                raise TypeCheckError(f"val {name!r} has no type: {exc}") \
                    from None
            scheme = self._val_schemes[name] = generalize(found, {})
        return scheme

    # -- registration (Section 4.1) ------------------------------------------------

    def register_primitive(self, name: str,
                           impl: NativePrim,
                           signature: TypeScheme | Type,
                           replace: bool = False) -> None:
        """Register a native primitive (``impl(value, evaluator)``)."""
        if name in self._prim_impls and not replace:
            raise RegistrationError(f"primitive {name!r} already registered")
        if isinstance(signature, Type):
            signature = generalize(signature, {})
        self._prim_impls[name] = impl
        self._prim_schemes[name] = signature
        self.generation += 1

    def register_co(self, name: str, fn: Callable[[Any], Any],
                    signature: TypeScheme | Type,
                    replace: bool = False) -> None:
        """The paper's ``RegisterCO``: lift a plain complex-object
        function into a primitive whose results are checked against the
        declared result type's kind."""
        from repro.env.primitives import simple_prim

        self.register_primitive(name, simple_prim(fn, name, signature),
                                signature, replace)

    def register_macro(self, name: str, body: ast.Expr,
                       replace: bool = False) -> TypeScheme:
        """Register a macro: resolve, typecheck, generalize, store.

        Returns the inferred scheme (the paper's ``typ`` echo line).
        """
        if name in self._macros and not replace:
            raise RegistrationError(f"macro {name!r} already registered")
        resolved = self._resolve(body, frozenset(), False, True)
        try:
            sig = self.typechecker().check_scheme(resolved)
        except TypeCheckError as exc:
            raise TypeCheckError(f"in macro {name!r}: {exc}") from exc
        self._macros[name] = Macro(resolved, sig)
        self._index_macros()
        self.generation += 1
        return sig

    def _normal_body(self, macro: Macro) -> ast.Expr:
        """The macro's body in normal form under the current
        ``normalize`` rules, derived on first use and again whenever
        that rule base's version has moved since; the raw body when the
        optimizer has no ``normalize`` phase.  The body is closed, so
        its normal form is the one every use would reach."""
        phase = next((p for p in self.optimizer.phases
                      if p.name == "normalize"), None)
        if phase is None:
            return macro.body
        if macro.normal_version != phase.rules.version:
            # a throwaway Phase over the same rules: the live phase's
            # stats keep describing the last optimize call
            macro.normal = type(phase)(phase.name,
                                       phase.rules).run(macro.body)
            macro.normal_version = phase.rules.version
            self._index_macros()
        return macro.normal

    def _index_macros(self) -> None:
        table = self._macro_schemes
        table.clear()
        for macro in self._macros.values():
            for body in (macro.body, macro.normal):
                if body is not None:
                    table[id(body)] = (body, macro.scheme)

    def register_rule(self, phase: str, rule: Rule) -> None:
        """Inject an optimization rule into a named phase."""
        self.optimizer.register_rule(phase, rule)
        self.generation += 1

    def set_val(self, name: str, value: Any) -> None:
        """Bind a complex-object value (``val``/``readval`` declarations)."""
        self._vals[name] = value
        self._val_schemes.pop(name, None)

    def get_val(self, name: str) -> Any:
        """The value bound to ``name`` (KeyError if unbound)."""
        return self._vals[name]

    def has_val(self, name: str) -> bool:
        """Whether a value is bound to ``name``."""
        return name in self._vals

    def macro_names(self):
        """Sorted names of all registered macros."""
        return sorted(self._macros)

    def macro_scheme(self, name: str) -> TypeScheme:
        """The inferred type scheme of a registered macro."""
        return self._macros[name].scheme

    # -- name resolution -----------------------------------------------------------

    def resolve(self, expr: ast.Expr, optimize: bool = True) -> ast.Expr:
        """Resolve free variables: macros are substituted in, primitives
        become ``Prim`` nodes, vals stay free (the plan's parameters).

        Section 4.1's pipeline: "in preparation for optimization, any
        macros defined in the top-level environment are substituted in."
        A macro is spliced as its cached normal form when the query is
        to be optimised, and as its body as written otherwise.
        """
        return self._resolve(expr, frozenset(), optimize, False)

    def _resolve(self, expr: ast.Expr, bound: frozenset,
                 optimize: bool, capture: bool) -> ast.Expr:
        if isinstance(expr, ast.Var):
            if expr.name in bound:
                return expr
            macro = self._macros.get(expr.name)
            if macro is not None:
                return self._normal_body(macro) if optimize else macro.body
            if expr.name in self._vals:  # a macro captures the value
                return ast.Const(self._vals[expr.name]) if capture else expr
            if expr.name in self._prim_impls:
                return ast.Prim(expr.name)
            return expr
        return expr.with_parts([
            self._resolve(child, bound | frozenset(names), optimize, capture)
            for child, names in expr.parts()])

    # -- compilation services --------------------------------------------------------

    def typechecker(self) -> TypeChecker:
        """A typechecker primed with this environment's primitive, macro
        and val schemes (shared by reference, not copied)."""
        return TypeChecker(self._prim_schemes, self._macro_schemes,
                           self.val_scheme)

    def node_types(self, core: ast.Expr) -> Optional[Dict[int, Any]]:
        """``id(node) -> type`` over an optimized ``core``, typed without
        macro schemes so that every node is reached (the record of
        :meth:`TypeChecker.check`), or ``None`` if it fails to check."""
        table: Dict[int, Any] = {}
        try:
            TypeChecker(self._prim_schemes, None, self.val_scheme).check(
                core, record=table)
        except (TypeCheckError, RecursionError):
            return None
        return table

    def evaluator(self) -> CompiledEvaluator:
        """The execution engine (``run(expr, bindings)`` and
        ``apply_function``), reporting into the environment's metrics
        while observability is on."""
        probe = self.obs.metrics if self.obs.enabled else None
        return CompiledEvaluator(self._prim_impls, probe=probe,
                                 dispatch=self.dispatch, vals=self._vals)

    def plan_evaluator(self) -> CompiledEvaluator:
        """An *uninstrumented* engine suitable for keeping inside a
        query plan: it holds on to the code it generates, so running
        the plan again skips code generation.  Deliberately built
        without a probe — an observed run generates probed code through
        :meth:`evaluator` instead, so instrumentation never leaks into
        the fast path.
        """
        return CompiledEvaluator(self._prim_impls, dispatch=self.dispatch,
                                 vals=self._vals)

    def compile(self, expr: ast.Expr,
                optimize: bool = True) -> Tuple[ast.Expr, Type]:
        """The query-processing pipeline of Section 4.1 after desugaring:
        resolve → typecheck → optimize.  Macro uses are typed by their
        schemes, as Figure 3 typechecks before macro expansion.

        Each stage runs inside a tracer span (the zero-cost null when
        observability is off); the optimize span nests one child span
        per optimizer phase.
        """
        tracer = self.obs.tracer
        with tracer.span("resolve"):
            resolved = self.resolve(expr, optimize)
        with tracer.span("typecheck"):
            inferred = self.typechecker().check(resolved)
        if optimize:
            with tracer.span("optimize"):
                resolved = self.optimizer.optimize(resolved, tracer=tracer)
        return resolved, inferred

    def evaluate(self, expr: ast.Expr, optimize: bool = True) -> Any:
        """Compile and run a core expression to a complex-object value."""
        compiled, _ = self.compile(expr, optimize)
        return self.evaluator().run(compiled)


__all__ = ["Macro", "TopEnv"]
