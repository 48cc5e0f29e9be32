"""The execution engine: each core NRCA plan → one generated Python function.

The paper's pipeline ends in a *code generator* (Section 3; Section 4.1
compiles the optimized query before running it).  :meth:`Compiler.compile`
emits the Python source of a whole expression — a factory
``_factory(_c, _cfg, _P, _V, _k0, …)`` over the compiler, its dispatch
config, the probe, the val table ``_plan`` first reads its vals from and
the plan's *slots* (every literal, ``Const``, primitive and val name),
returning ``_plan(env)`` — and returns that function.  No value and
no user text enters the source, so it depends only on the plan's shape
(and the types a kept plan is emitted with): compiled factories are
memoised by it, each registered with :mod:`linecache` as ``<plan N>``.
Inside ``_plan`` variables are locals, loops are ``for`` statements and
straight-line bodies are expressions that guard on exact host types,
unless a type proves them, before the one general routine, which owns
every error (:mod:`repro.core.runtime`).  Ahead of its loop, a kernel-shaped
tabulation or ``Σ`` body is numpy lines over :mod:`repro.core.kernels`
and a recognised equi-join a hash-index block (:mod:`repro.core.setops`);
each asks the live :class:`~.fastpath.DispatchConfig`.  A probe
makes the same program plus counter lines.  The semantics are those of
the reference tree-walker (:mod:`repro.core.eval`); DESIGN.md "Code
generation" has the rules.
"""

from __future__ import annotations

import linecache
import threading
from collections import OrderedDict, namedtuple
from itertools import count
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core import ast, kernels, runtime, setops
from repro.core.fastpath import DEFAULT_CONFIG, DispatchConfig
from repro.errors import BottomError, EvalError
from repro.objects.array import cell_text, dim_text
from repro.objects.ordering import COMPARISONS
from repro.objects.values import ARITH_HOST
from repro.types.types import HOST_TYPES, TArray, TArrow, TNat, TProduct, \
    TSet

#: a compiled expression: environment list -> value
Code = Callable[[List[Any]], Any]

#: native primitives receive ``(argument_value, evaluator)`` so that
#: higher-order primitives (e.g. ``summap``) can apply AQL functions
#: through ``evaluator.apply_function``
NativePrim = Callable[[Any, Any], Any]

#: compiled factories kept, keyed by their source text (plan shapes)
FACTORY_CAPACITY = 256

#: expression nesting at which a subexpression is spilled into a local
#: (the host parser refuses 200 nested parentheses); indentation and
#: loop nesting at which a construct moves into a helper ``def`` (the
#: host refuses 100 indentation levels and 20 nested blocks)
_SPILL_DEPTH, _LIFT_LEVEL, _LIFT_LOOPS = 12, 40, 8

#: per comprehension (Figure 1's ⋃ and Σ, Section 6's ⊎, ⋃_r and ⊎_r)
#: and tabulation: the accumulator's start, the walk of the source (a
#: tabulation walks its index domain), how one body's value joins the
#: accumulator (``None``: ``Compiler._add`` adds a set body's statements)
#: and the construct's value (``{1}``: a tabulation's extents).  Σ walks
#: in canonical order, NOT frozenset hash order: float addition is
#: non-associative, so a hash-ordered Σ over reals would differ between
#: runs and platforms (a range is in that order already); a ranked walk
#: gives a bag's equal elements consecutive ranks
_COMPREHENSIONS = {
    ast.Ext: ("set()", "{}", None, "frozenset({})"),
    ast.ExtRank: ("set()", "rank_elements({})", None, "frozenset({})"),
    ast.Sum: ("0", "canonical_elements({})", "{0} = {0} + {1}", "{}"),
    ast.BagExt: ("Bag()", "{}", "{0} = {0}.union({1})", "{}"),
    ast.BagExtRank: ("Bag()", "rank_elements({})", "{0} = {0}.union({1})",
                     "{}"),
    ast.Tabulate: ("[]", "{}", "{0}.append({1})", "Array({1}, {0})"),
}
_LOOPS = frozenset(_COMPREHENSIONS)
#: a join's match body (m of a body {m}) in its loops: a call of its def
_Call = namedtuple("_Call", "number binders")
#: kinds whose value may be a set or bag: a probe counts it as one
_COLLECTIONS = frozenset((
    ast.EmptySet, ast.Singleton, ast.Ext, ast.Gen, ast.ExtRank, ast.EmptyBag,
    ast.SingletonBag, ast.BagExt, ast.BagExtRank, ast.Var, ast.Const, ast.App,
    ast.If, ast.Proj, ast.Get, ast.Subscript, ast.Union, ast.BagUnion))


def _group_sum(fn: ast.Lam, arg: ast.Expr) -> Optional[int]:
    """``e`` of ``(λA. [[ Σ{e | x ∈ A[i…]} | i… < dim_k(A) ]])(index_k(P))``
    with ``e`` a nat literal and ``A`` read nowhere else (the strict
    pipeline keeps the cell bound: ``(λS. Σ{e | x ∈ S})(A[i…])``), whose
    Σs ``index_k``'s grouping pass computes; else ``None``."""
    table, name = fn.body, ast.Var(fn.param)
    if type(arg) is not ast.IndexSet or type(table) is not ast.Tabulate \
            or fn.param in table.vars:
        return None
    body = table.body
    if type(body) is ast.App and type(body.fn) is ast.Lam \
            and type(body.fn.body) is ast.Sum \
            and body.fn.body.source == ast.Var(body.fn.param):
        body = ast.Sum(body.fn.body.var, body.fn.body.body, body.arg)
    if type(body) is ast.Sum and type(body.body) is ast.NatLit \
            and body.source == ast.Subscript(name, tuple(map(ast.Var,
                                                             table.vars))) \
            and table.bounds == ast.extents(name, arg.rank):
        return body.body.value
    return None


class Compiler:
    """Compiles core expressions against a primitive registry.

    ``probe`` (an :class:`~repro.obs.metrics.EvalProbe`) makes the
    generated code self-instrumenting — the same program plus counter
    lines, chosen once per compile — so uninstrumented code (the
    default) carries no runtime checks.  ``compile`` emits through a
    private copy of the compiler, which makes it re-entrant.
    """

    def __init__(self, prims: Optional[Mapping[str, NativePrim]] = None,
                 probe: Any = None,
                 dispatch: Optional[DispatchConfig] = None,
                 vals: Optional[Mapping[str, Any]] = None):
        #: the primitive table, held by reference: an environment builds
        #: an engine per statement and per cached plan, so a copy would
        #: cost the whole table each time; a later registration bumps
        #: the environment's generation, which drops the cached plans
        self.prims: Mapping[str, NativePrim] = \
            prims if prims is not None else {}
        self.probe = probe
        #: fast-path gating, held by reference so session-level
        #: mutation retunes already-emitted code
        self.dispatch = dispatch if dispatch is not None else DEFAULT_CONFIG
        #: the live val table a plan reads its free variables from
        self.vals: Mapping[str, Any] = vals if vals is not None else {}

    @staticmethod
    def apply_function(fn_value: Any, argument: Any) -> Any:
        """Apply a compiled function value (a plain Python callable) to
        an argument: how native primitives, handed the compiler as their
        evaluator, apply AQL functions.  A ⊥-mapping boundary like
        :meth:`CompiledEvaluator.run` (host ``ValueError`` → ⊥)."""
        if callable(fn_value):
            try:
                return fn_value(argument)
            except ValueError as exc:
                raise BottomError(f"host value error: {exc}") from exc
        raise EvalError(f"not a function: {fn_value!r}")

    def compile(self, expr: ast.Expr, scope: Tuple[str, ...] = (),
                types: Optional[Mapping[int, Any]] = None) -> Code:
        """Compile ``expr`` (with free variables in ``scope``, bound by
        position in the environment list) to its plan function;
        ``types`` (``id(node) -> type``, from ``TypeChecker.check``'s
        record) drops each guard a node's type proves."""
        emission = Compiler(self.prims, self.probe, self.dispatch, self.vals)
        emission._owner, emission._types = self, types or {}
        source = emission._module(expr, scope)
        return _compiled(source)(self, self.dispatch, self.probe, self.vals,
                                 *emission._consts)

    #: the fast-path entry points, bound into every plan's globals
    RUNTIME = {"_HashKey": setops.HashKey, "_Fallback": kernels._Fallback,
               "_quiet": kernels.quiet, "_ksum": kernels.total, **{
                   f"_k{name}": getattr(kernels, name) for name in (
                       "grids", "scalar", "extent", "bound", "gather",
                       "arith", "publish")}}

    # -- emission: statements, spills, nested blocks and helpers --------------

    def _module(self, expr: ast.Expr, scope: Tuple[str, ...]) -> str:
        self._consts: List[Any] = []
        self._helpers: List[str] = []
        self._next, self._reads, self._lines = 0, set(), []
        # val -> its local; the variables subscripted; the last one read
        self._params: Dict[str, int] = {}
        self._boxed, self._last = set(), None
        # an empty Σ is the nat 0 whatever its body's type: unless every
        # Σ is proven nat, a real type proves no float
        self._reals = bool(self._types) and all(
            self._types.get(id(node)) == TNat()
            for node in ast.subterms(expr) if type(node) is ast.Sum)
        probed = self.probe is not None
        self._level, self._loops, self._depth = 3 if probed else 2, 0, 0
        numbers = [self._bind() for _ in scope]
        bound = dict(zip(scope, numbers))
        self._line(f"return {self._emit(expr, bound)}")
        head = ["    def _plan(env):"]
        if scope:
            head.append("        " + "".join(
                f"v{n}, " if bound[name] == n else "_, "
                for name, n in zip(scope, numbers)) + "= env")
        for name, number in self._params.items():  # each val, read once
            read = f"_V[{self._const(name)}]"
            head.append(f"        v{number} = " + (
                f"_boxed({read})" if number in self._boxed else read))
        if probed:
            head = ["    _on = _P.on_node", *head, "        try:"]
            self._lines += ["        except BottomError as exc:",
                            "            _counted_bottom(_P, exc)",
                            "            raise"]
        slots = "".join(f", _k{slot}" for slot in range(len(self._consts)))
        return "\n".join([f"def _factory(_c, _cfg, _P, _V{slots}):",
                          *self._helpers, *head, *self._lines,
                          "    return _plan", ""])

    def _bind(self) -> int:
        number, self._next = self._next, self._next + 1
        return number

    def _fresh(self, prefix: str = "t") -> str:
        return f"{prefix}{self._bind()}"

    def _const(self, value: Any) -> str:
        self._consts.append(value)
        return f"_k{len(self._consts) - 1}"

    def _line(self, text: str, deeper: int = 0, at: Optional[int] = None):
        self._lines.insert(len(self._lines) if at is None else at,
                           "    " * (self._level + deeper) + text)

    def _spill(self, text: str) -> str:
        if text.isidentifier():
            return text
        name = self._fresh()
        self._line(f"{name} = {text}")
        return name

    def _named(self, text: str) -> Tuple[str, str]:
        """``(name, binding)`` for a value read more than once: ``text``
        itself if it is a name, else a temporary and its walrus."""
        if text.isidentifier():
            return text, text
        name = self._fresh()
        return name, f"{name} := {text}"

    def _emit(self, expr: ast.Expr, scope: Dict[str, int]) -> str:
        """The text of ``expr``'s value; statements it needs first are
        appended to the current block."""
        kind = type(expr)
        if kind is _Call:  # counted by the def it calls
            self._reads.add(expr.number)
            return f"v{expr.number}(" + ", ".join(
                f"v{scope[name]}" for name in expr.binders) + ")"
        if self._depth >= _SPILL_DEPTH:
            depth, self._depth = self._depth, 0
            text = self._spill(self._emit(expr, scope))
            self._depth = depth
            return text
        strict, method = self._STRICT.get(kind), self._NODES.get(kind)
        if strict is None and method is None:
            raise EvalError(f"cannot compile {kind.__name__}")
        if strict is None and (self._level > _LIFT_LEVEL or (
                kind in _LOOPS and self._loops >= _LIFT_LOOPS)):
            return self._lift(expr, scope)
        mark = len(self._lines)
        self._depth += 1
        if strict is not None:
            parts, build = strict(self, expr)
            texts = self._seq(parts, scope)
            text = build.format(*texts) if type(build) is str \
                else build(*texts)
        else:
            text = method(self, expr, scope)
        self._depth -= 1
        if self.probe is None:
            return text
        text = self._counted(kind.__name__, mark, text)
        return f"_seen(_P, {text})" if kind in _COLLECTIONS else text

    def _counted(self, kind: str, mark: int, text: str) -> str:
        """``text`` after counting one ``kind`` node: a statement at
        ``mark`` if the node needed statements, else inline."""
        if len(self._lines) == mark:
            return f"(_on({kind!r}) or {text})"
        self._line(f"_on({kind!r})", at=mark)
        return text

    def _seq(self, parts, scope) -> List[str]:
        """The texts of ``parts``, evaluated left to right.  A part is a
        node or ``(node, check)``, ``check`` wrapping its text; when a
        part needs statements, the texts before it are spilled ahead of
        them, so that they still run first."""
        texts: List[str] = []
        for part in parts:
            node, check = part if type(part) is tuple else (part, None)
            mark = len(self._lines)
            text = self._emit(node, scope)
            if len(self._lines) > mark:
                for position, prior in enumerate(texts):
                    if not prior.isidentifier():
                        texts[position] = self._fresh()
                        self._line(f"{texts[position]} = {prior}", at=mark)
                        mark += 1
            texts.append(check(text) if check is not None else text)
        return texts

    def _nested(self, emit: Callable[[], Any], level: int, start=None,
                function: bool = False, depth: int = 0):
        """Run ``emit()`` into a fresh statement list at ``level``:
        ``(lines, text, free)``, ``free`` the numbers of the variables
        it read that were bound before ``start``."""
        start = self._next if start is None else start
        saved = (self._lines, self._level, self._loops, self._depth,
                 self._reads)
        self._lines, self._level, self._depth, self._reads = \
            [], level, depth, set()
        self._loops = 0 if function else self._loops  # a def counts anew
        text = emit()
        lines, reads = self._lines, self._reads
        (self._lines, self._level, self._loops, self._depth,
         self._reads) = saved
        free = sorted(number for number in reads  # a val is never bound
                      if number < start or number in self._params.values())
        self._reads.update(free)
        return lines, text, free

    def _lift(self, expr: ast.Expr, scope) -> str:
        """``expr`` moved into a helper ``def`` of the factory, called
        with the variables it reads."""
        name = self._fresh("h")
        lines, text, free = self._nested(lambda: self._emit(expr, scope), 2,
                                         function=True)
        params = ", ".join(f"v{number}" for number in free)
        self._helpers += [f"    def {name}({params}):", *lines,
                          f"        return {text}"]
        return f"{name}({params})"

    def _var(self, expr: ast.Var, scope) -> str:
        number = scope.get(expr.name, self._params.get(expr.name))
        if number is None and expr.name in self.vals:  # a plan parameter
            number = self._params[expr.name] = self._bind()
        if number is None:
            raise EvalError(f"unbound variable {expr.name!r} at compile time")
        self._reads.add(number)
        self._last = number
        return f"v{number}"

    def _literal(self, expr, scope) -> str:
        return self._const(expr.value)

    def _native(self, name: str) -> NativePrim:
        native = self.prims.get(name)
        if native is None:
            raise EvalError(f"unknown primitive {name!r}")
        return native

    def _prim(self, expr: ast.Prim, scope) -> str:
        native, owner = self._native(expr.name), self._owner
        return self._const(lambda argument: native(argument, owner))

    def _def(self, names, body: ast.Expr, scope,
             name: Optional[str] = None) -> str:
        """A nested ``def`` of ``names`` evaluating ``body``, binding
        what it reads from outside as defaults, at creation."""
        start = self._next
        params = [self._bind() for _ in names]
        inner = {**scope, **dict(zip(names, params))}
        lines, text, free = self._nested(
            lambda: self._emit(body, inner), self._level + 1, start,
            function=True)
        name = name or self._fresh("f")
        self._line(f"def {name}(" + ", ".join(
            [f"v{n}" for n in params] + [f"v{n}=v{n}" for n in free]) + "):")
        self._lines += lines
        self._line(f"return {text}", 1)
        return name

    def _app(self, expr: ast.App, scope) -> str:
        fn = expr.fn
        if type(fn) is ast.Lam:  # (fn x => body)!arg binds x as a local
            if self.probe is not None:
                self._line("_on('Lam')")
            weight = _group_sum(fn, expr.arg)
            if weight is not None:  # the Σs run in index_k's grouping pass
                return f"_indexed({self._emit(expr.arg.expr, scope)}, " \
                    f"{expr.arg.rank}, _P, {self._const(weight)})"
            argument = self._emit(expr.arg, scope)
            param = self._bind()
            self._line(f"v{param} = {argument}")
            return self._emit(fn.body, {**scope, fn.param: param})
        if type(fn) is ast.Prim:
            native, mark = self._const(self._native(fn.name)), len(self._lines)
            argument = self._emit(expr.arg, scope)
            if self.probe is not None:
                native = self._counted("Prim", mark, native)
            return f"{native}({argument}, _c)"
        check = None if self._proves(fn, TArrow) else \
            lambda text: self._checked(text, "callable({})", "_function({})")
        callee, argument = self._seq(((fn, check), expr.arg), scope)
        return f"{callee}({argument})"

    def _checked(self, text: str, test: str, otherwise: str) -> str:
        """``text``'s value where ``test`` (of its binding ``{0}`` and
        name ``{1}``) holds, else ``otherwise``, which owns the error."""
        name, first = self._named(text)
        return f"({name} if {test.format(first, name)} else " \
            f"{otherwise.format(name)})"

    # -- what a recorded type proves ------------------------------------------

    def _proves(self, node: ast.Expr, kind: type) -> bool:
        """Whether ``node``'s recorded type is a ``kind`` (any rank)."""
        return type(self._types.get(id(node))) is kind

    def _host(self, *nodes: ast.Expr) -> Optional[type]:
        """The one host type every node's recorded base type proves:
        ``bool``, ``int`` (a nat, maybe negative), ``float`` or ``str``."""
        hosts = {HOST_TYPES.get(type(self._types.get(id(node))))
                 for node in nodes} if self._types else ()
        host = hosts.pop() if len(hosts) == 1 else None
        return None if host is float and not self._reals else host

    def _as_natural(self, node: ast.Expr, text: str, message: str) -> str:
        """``text`` checked a natural (else ⊥ ``message``): where ``node``
        is proven a nat only its sign is left to test."""
        if self._host(node) is not int:
            return f"_natural({text}, {message})"
        name, first = self._named(text)
        return f"({name} if ({first}) >= 0 else _natural({name}, {message}))"

    def _bare(self, op: str, host: type, left: str, right: str) -> str:
        """Arithmetic on two proven ``host`` operands: the host text, but
        for the zero test of ``/`` and ``%`` (nat ``-`` still clamps: a
        nat may be negative)."""
        (text,) = [text for types, text in ARITH_HOST[op] if host in types]
        if op not in "/%" and (op, host) != ("-", int):
            return f"({text.format(a=left, b=right)})"
        a, b = self._spill(left), self._spill(right)  # each read twice
        text = text.format(a=a, b=b)
        return f"({text} if {b} else _arith({op!r}, {a}, {b}))" \
            if op in "/%" else text

    # -- straight-line nodes: (parts, build) ----------------------------------

    def _guarded(self, table, general: str, divides: bool,
                 left: str, right: str) -> str:
        """A binary operator: each host expression of ``table`` under
        its exact-type guard, else ``general``, which owns every error."""
        (a, first), (b, second) = self._named(left), self._named(right)
        operands, text = f"type({first}) is type({second})", "("
        for types, host in table:
            guard = f"is {types[0].__name__}" if len(types) == 1 \
                else f"in {runtime.TYPESETS[types]}"
            nonzero = f" and {b}" if divides else ""
            text += f"{host.format(a=a, b=b)} if {operands} {guard}" \
                    f"{nonzero} else "
            operands = f"type({a}) is type({b})"
        return text + general.format(a=a, b=b) + ")"

    def _arith(self, expr: ast.Arith):
        host = self._host(expr.left, expr.right)
        if host in (int, float):
            return (expr.left, expr.right), lambda left, right: self._bare(
                expr.op, host, left, right)
        return (expr.left, expr.right), lambda left, right: self._guarded(
            ARITH_HOST[expr.op], f"_arith({expr.op!r}, {{a}}, {{b}})",
            expr.op in ("/", "%"), left, right)

    def _cmp(self, expr: ast.Cmp):
        if self._host(expr.left, expr.right) is not None:
            host = COMPARISONS[expr.op][0][0][1]
            return (expr.left, expr.right), \
                lambda left, right: f"({host.format(a=left, b=right)})"
        return (expr.left, expr.right), lambda left, right: self._guarded(
            COMPARISONS[expr.op][0],
            runtime.COMPARE_NAMES[expr.op] + "({a}, {b})", False, left, right)

    def _subscript(self, expr: ast.Subscript):
        arity, boxed = len(expr.indices), []
        read = f".at{arity}({{}})" if arity <= 3 else "[({},)]"
        cells = self._proves(expr.array, TArray) \
            and self._host(*expr.indices) is int
        def operand(text: str) -> str:
            if type(expr.array) is ast.Var:
                self._boxed.add(self._last)  # a val read cell by cell
                boxed.append(self._last in self._params.values())
            if cells:  # evaluated first, ahead of the bounds test
                return self._spill(text)
            return self._checked(text, "type({}) is Array", "_array({})")
        if cells:  # the indices too, each read twice
            return ((expr.array, operand), *((index, self._spill)
                                             for index in expr.indices)), \
                lambda array, *index: cell_text(array, index, self._fresh(),
                                                any(boxed))
        return ((expr.array, operand), *expr.indices), \
            lambda array, *index: array + read.format(", ".join(index))

    def _proj(self, expr: ast.Proj):
        arity = expr.arity
        if self._proves(expr.expr, TProduct):
            return (expr.expr,), f"{{}}[{expr.index - 1}]"
        return (expr.expr,), lambda text: self._checked(
            text, f"type({{0}}) is tuple and len({{1}}) == {arity}",
            f"_tuple({{}}, {arity})") + f"[{expr.index - 1}]"

    #: kind -> ``(self, node) -> (parts, build)``: ``build`` formats the
    #: parts' texts (a template or a function of them)
    _STRICT = {
        ast.TupleE: lambda self, e: (
            e.items, "({})".format(", ".join(["{}"] * len(e.items)))),
        ast.Proj: _proj, ast.Cmp: _cmp, ast.Arith: _arith,
        ast.Subscript: _subscript,
        ast.EmptySet: lambda self, e: ((), "_EMPTY"),
        ast.Singleton: lambda self, e: ((e.expr,), "frozenset(({},))"),
        ast.Union: lambda self, e: ((e.left, e.right), "({} | {})"),
        ast.Gen: lambda self, e: (
            (e.expr,), lambda text: f"frozenset(range("
            f"{self._as_natural(e.expr, text, '_GEN')}))"),
        ast.Dim: lambda self, e: ((e.expr,), dim_text(e.rank) if self._proves(
            e.expr, TArray) else f"_dim({{}}, {e.rank})"),
        ast.IndexSet: lambda self, e: (
            (e.expr,), f"_indexed({{}}, {e.rank}, _P)"),
        ast.Get: lambda self, e: ((e.expr,), "_get({})"),
        ast.Bottom: lambda self, e: (
            (), f"_bottom({self._const(e.reason)})"),
        ast.EmptyBag: lambda self, e: ((), "Bag()"),
        ast.SingletonBag: lambda self, e: ((e.expr,), "Bag(({},))"),
        ast.BagUnion: lambda self, e: ((e.left, e.right), "{}.union({})"),
    }

    def _if(self, expr: ast.If, scope) -> str:
        cond, level, depth = self._emit(expr.cond, scope), self._level, \
            self._depth
        then_lines, then, _ = self._nested(
            lambda: self._emit(expr.then, scope), level + 1, depth=depth)
        else_lines, orelse, _ = self._nested(
            lambda: self._emit(expr.orelse, scope), level + 1, depth=depth)
        if not then_lines and not else_lines:
            return f"({then} if {cond} else {orelse})"
        result, pad = self._fresh(), "    " * level
        self._lines += [f"{pad}if {cond}:", *then_lines,
                        f"{pad}    {result} = {then}", f"{pad}else:",
                        *else_lines, f"{pad}    {result} = {orelse}"]
        return result

    def _mk_array(self, expr: ast.MkArray, scope) -> str:
        dims = self._seq([(dim, lambda text, dim=dim: self._as_natural(
            dim, text, "_DIMENSION")) for dim in expr.dims], scope)
        shape = self._spill(  # checked before any item is evaluated
            f"_dims(({', '.join(dims)},), {len(expr.items)}, _P)")
        return f"Array({shape}, [{', '.join(self._seq(expr.items, scope))}])"

    # -- loops ----------------------------------------------------------------

    def _elements(self, source: ast.Expr, scope, spill: bool = False):
        """``(elements, size)``: what a loop ranges over, and for
        ``gen!n``, which is ``range(n)`` counted as the ``Gen`` node and
        its set when probed, the text of ``n`` (a local if ``spill``)."""
        if type(source) is not ast.Gen:
            return self._emit(source, scope), None
        mark = len(self._lines)
        size = self._as_natural(source.expr, self._emit(source.expr, scope),
                                "_GEN")
        size = self._spill(size) if spill else size
        elements = f"range({size})"
        if self.probe is None:
            return elements, size
        return f"_seen(_P, {self._counted('Gen', mark, elements)})", size

    def _loop(self, expr, scope) -> str:
        """Every comprehension and tabulation, by :data:`_COMPREHENSIONS`:
        the accumulator's start, ``for`` statements over the walk of the
        source (a tabulation's index domain) joining each body into it,
        and its value.  A recognised equi-join's hash block or a kernel
        comes first, and the loop runs if it leaves the result ``None``."""
        kind, probed = type(expr), self.probe is not None
        start, walk, join, value = _COMPREHENSIONS[kind]
        depth, self._depth, guard, extents = self._depth, 0, None, None
        shape = kind is ast.Ext and setops.recognize_join(expr)
        gen = kind is ast.Sum and type(expr.source) is ast.Gen
        if kind is ast.Tabulate:
            dims = [self._spill(text) for text in self._seq(
                [(bound, lambda text, bound=bound: self._as_natural(
                    bound, text, "_BOUND")) for bound in expr.bounds], scope)]
            extents, size = f"({', '.join(dims)},)", \
                self._spill(" * ".join(dims))
            heads = [((var,), f"range({dim})")
                     for var, dim in zip(expr.vars, dims)]
            if len(heads) > 2:  # one loop over the product, not one per axis
                heads = [(expr.vars, "_product(" + ", ".join(
                    elements for _, elements in heads) + ")")]
            if len(dims) > 1:  # an empty domain is not walked at all
                guard = size
            # a kernel's finish, its value on an empty grid and its count
            vector = f"_kpublish({{}}, {extents})", f"Array({extents}, [])", \
                "{}.size"
        elif shape:  # S evaluated once, and e emitted once: a def of (x, y)
            # that the hash block and the loop both call in e's place; of
            # e = {m} it is m, so that both still add m as a plain ⋃ does
            elements = self._spill(self._emit(expr.source, scope))
            body, inner = shape.match_body, expr.body
            member = body.expr if type(body) is ast.Singleton else body
            call = _Call(self._bind(), (shape.outer_var, shape.inner_var))
            self._def(call.binders, member, scope, f"v{call.number}")
            body = call if member is body else ast.Singleton(call)
            expr = ast.Ext(expr.var, ast.Ext(inner.var, ast.If(
                inner.body.cond, body, inner.body.orelse), inner.source),
                expr.source)
        elif type(expr.source) is ast.Singleton and kind in (ast.Ext, ast.Sum):
            elements = expr.source  # _for binds its element
        else:  # a kernel needs its size first
            elements, size = self._elements(expr.source, scope, gen)
        if gen:
            extents, vector = f"({size},)", (f"_ksum({{}}, {size})", "0", size)
        if kind is not ast.Tabulate:  # a literal Σ body adds exactly
            literal = gen or type(elements) is ast.Singleton \
                or kind is ast.Sum and type(expr.body) is ast.NatLit
            names = expr.parts()[-1][1]  # bound around the body
            heads = [(names, elements if literal else walk.format(elements))]
        kernel = extents and self._kernel(
            [name for names, _ in heads for name in names], expr.body, extents)
        acc = self._fresh("s" if join is None else "t")  # a set or a value
        fast = int(bool(shape) or kernel is not None)
        result = self._fresh() if fast and value != "{}" else acc

        def loop():
            self._line(f"{acc} = {start}")
            self._for(heads, scope, lambda inner: self._add(
                expr.body, inner, acc) if join is None else self._line(
                    join.format(acc, self._emit(expr.body, inner))), guard)
            if probed and kind is ast.Tabulate:
                self._line(f"_P.on_cells(len({acc}))")

        outer, self._boxed = self._boxed, set()
        lines = self._nested(loop, self._level + fast)[0]
        boxed, self._boxed = self._boxed, outer
        if shape:
            state = self._join(expr, shape, body, scope, elements, acc,
                               result)
        elif kernel is not None:
            self._vectorized(kernel, scope, size, result, *vector)
        if fast:
            self._line(f"if {result} is None:")
            if shape and probed:
                self._line(f"_P.restore({state})", 1)
        if kernel is None:
            outer |= boxed
        else:  # a kernel's fallback boxes the vals it subscripts
            for number in sorted(boxed & set(self._params.values())):
                self._line(f"_boxed(v{number})", 1)
        self._lines += lines
        self._depth = depth
        if result == acc:
            return value.format(acc, extents)
        self._line(f"{result} = {value.format(acc, extents)}", 1)
        return result

    def _for(self, heads, scope, body, guard: Optional[str] = None) -> None:
        """Nested ``for`` statements binding each head's binders to its
        elements (``v = e`` for elements ``{e}``; ``v, = {e}``, counting
        the set, when probed), under ``if guard:`` if given, with
        ``body(scope)`` emitting the innermost body."""
        level, loops, probed = self._level, self._loops, self.probe is not None
        if guard is not None:  # a nested block, counted as a loop
            self._line(f"if {guard}:")
            self._level, self._loops = level + 1, loops + 1
        for names, elements in heads:
            numbers = [self._bind() for _ in names]
            targets = ", ".join(f"v{n}" for n in numbers)
            if type(elements) is ast.Singleton:
                self._line(f"{targets}{',' * probed} = " + self._emit(
                    elements if probed else elements.expr, scope))
            else:
                self._line(f"for {targets} in {elements}:")
                self._level, self._loops = self._level + 1, self._loops + 1
            scope = {**scope, **dict(zip(names, numbers))}
        body(scope)
        self._level, self._loops = level, loops

    def _join(self, expr: ast.Ext, shape: setops.JoinShape, body, scope,
              source: str, acc: str, result: str):
        """The hash equi-join block (docs/SETOPS.md): index T by κ'(y),
        probe it with κ(x) per x in ``source`` and add e (``body``) per
        matching pair into ``acc``, setting ``result``.  It stays ``None`` when
        the config declines or anything raises, and a probe is then to
        be restored to the snapshot this returns.  A source proven a set
        skips its test, and keys proven free of reals (NaN, -0.0) hash
        raw."""
        probed, level, loops = self.probe is not None, self._level, \
            self._loops
        state, index, bucket, matched = (self._fresh() for _ in range(4))
        x, y = self._bind(), self._bind()
        self._line(f"{result} = None")
        if probed:
            self._line(f"{state} = _P.snapshot()")
        test = lambda node, text: "" if self._proves(node, TSet) \
            else f"isinstance({text}, frozenset) and "  # noqa: E731
        wrap = "" if all(setops.hashes_raw(self._types.get(id(key))) for key
                         in (shape.outer_key, shape.inner_key)) else "_HashKey"
        self._line(f"if {test(expr.source, source)}len({source}) >= 2:")
        self._line("try:", 1)
        self._level, self._loops = level + 2, loops + 1
        inner = self._spill(self._emit(shape.inner_source, scope))
        pairs = f"len({source}) * len({inner})"
        self._line(f"if {test(shape.inner_source, inner)}"
                   f"_cfg.wants_hash_join({pairs}, len({inner})):")
        self._line(f"{index} = {{}}", 1)
        self._line(f"for v{y} in {inner}:", 1)
        self._level, self._loops = level + 4, loops + 2
        key = self._emit(shape.inner_key, {**scope, shape.inner_var: y})
        self._line(f"{index}.setdefault({wrap}({key}), []).append(v{y})")
        self._line(f"{acc} = set()", -1)
        if probed:
            self._line(f"{matched} = 0", -1)
        self._line(f"for v{x} in {source}:", -1)
        key = self._emit(shape.outer_key, {**scope, shape.outer_var: x})
        self._line(f"{bucket} = {index}.get({wrap}({key}))")
        self._line(f"if {bucket}:")
        if probed:
            self._line(f"{matched} += len({bucket})", 1)
        self._line(f"for v{y} in {bucket}:", 1)
        self._level, self._loops = level + 6, loops + 3
        self._add(body, {**scope, shape.outer_var: x, shape.inner_var: y},
                  acc)
        self._level, self._loops = level + 3, loops
        if probed:
            self._line(f"_P.on_join({matched}, {pairs} - {matched})")
        self._line(f"{result} = frozenset({acc})")
        self._line("except Exception:", -2)
        self._line("pass", -1)
        self._level = level
        return state

    def _add(self, body: ast.Expr, scope, acc: str) -> None:
        """Statements adding the set ``body`` into ``acc``.  ``{m}`` and
        an ``ext`` under any number of ``if c then … else {}`` add into
        ``acc`` under ``if`` statements; a probe counts what the unfused
        plan would."""
        conds, member = [], body
        while type(member) is ast.If and type(member.orelse) is ast.EmptySet:
            conds.append(member.cond)
            member = member.then
        kind, probed, level = type(member), self.probe is not None, \
            self._level
        nested = kind is ast.Ext and self._loops < _LIFT_LOOPS \
            and level <= _LIFT_LEVEL \
            and not setops.recognize_join(member)
        if kind is not ast.Singleton and not nested:
            self._line(f"{acc} |= {self._emit(body, scope)}")
            return
        for cond in conds:
            if probed:
                self._line("_on('If')")
            self._line(f"if {self._emit(cond, scope)}:")
            self._level += 1
        size = "1"
        if kind is ast.Singleton:
            if probed:
                self._line("_on('Singleton')")
            self._line(f"{acc}.add({self._emit(member.expr, scope)})")
        else:
            into = self._fresh("s") if probed else acc
            if probed:  # the nested ext's own set, for its count
                self._line("_on('Ext')")
                self._line(f"{into} = set()")
            source = member.source
            self._for([((member.var,), source if type(source) is ast.Singleton
                        else self._elements(source, scope)[0])],
                      scope, lambda inner: self._add(member.body, inner, into))
            if probed:
                self._line(f"{acc} |= {into}")
                size = f"len({into})"
        if probed:
            self._line(f"_filtered(_P, {size}, {len(conds)})")
            for levels in range(len(conds), 0, -1):
                self._line("else:", -1)
                self._line(f"_filtered(_P, None, {levels})")
                self._level -= 1
        self._level = level

    # -- kernels: a recognised body as numpy lines ----------------------------

    def _kernel(self, names, body: ast.Expr, extents: str):
        """One walk that checks a tabulation or ``Σ`` body against the
        kernel grammar (docs/VECTOR_BACKEND.md) and emits it over the
        grid of ``extents``: ``(leaves, lines, value)``, or ``None`` when
        numpy is absent or some node is outside the grammar."""
        if not kernels.available():
            return None
        slots, self._kleaves = len(self._consts), {}
        grids = [self._fresh("g") for _ in names]
        lines = [(0, "".join(f"{g}, " for g in grids) +
                  f"= _kgrids({extents})")]
        value = self._kvec(body, dict(zip(names, grids)), lines, 0)
        if value is None:
            del self._consts[slots:]
            return None
        return self._kleaves, lines, value

    def _kvec(self, expr: ast.Expr, index: Dict[str, str], lines,
              level: int) -> Optional[str]:
        """The text of ``expr``'s term ``(value, lo, hi, owned)``, its
        statements appended to ``lines`` at ``level``; ``index`` names
        the terms of the index variables in scope."""
        kind = type(expr)
        if kind is ast.Var and expr.name in index:
            return index[expr.name]
        if kind in (ast.Var, ast.Const):
            return f"_kscalar({self._kleaf(expr, index)})"
        if kind is ast.NatLit:  # statically past the guard: no kernel
            return None if expr.value > kernels.INT_GUARD else \
                self._const((expr.value, expr.value, expr.value, False))
        if kind is ast.RealLit:
            return self._const((float(expr.value), None, None, False))
        if kind is ast.Arith:
            left = self._kvec(expr.left, index, lines, level)
            right = left and self._kvec(expr.right, index, lines, level)
            text = right and f"_karith({expr.op!r}, {left}, {right})"
        elif kind is ast.Subscript:
            operand = self._kleaf(expr.array, index)
            keys = [self._kvec(key, index, lines, level)
                    for key in expr.indices]
            text = None if operand is None or None in keys else \
                f"_kgather({operand}, ({', '.join(keys)},))"
        elif kind is ast.Proj and type(expr.expr) is ast.Dim \
                and expr.expr.rank == expr.arity:  # an extent π_j(dim_r(a))
            operand = self._kleaf(expr.expr.expr, index)
            text = operand and \
                f"_kextent({operand}, {expr.arity}, {expr.index})"
        elif kind is not ast.Sum or type(expr.source) is not ast.Gen \
                or level >= _LIFT_LOOPS \
                or not ast.free_vars(expr.source.expr).isdisjoint(index):
            return None
        else:  # Σ{body | v ∈ gen!b}: the slices at v = 0, 1, … in order
            size = self._kvec(expr.source.expr, index, lines, level)
            if size is None:
                return None
            total, var = self._fresh(), self._bind()
            lines += [(level, f"{total} = (0, 0, 0, False)"),
                      (level, f"for v{var} in range(_kbound({size})):")]
            body = self._kvec(expr.body, {**index, expr.var: f"(v{var}, "
                                          f"v{var}, v{var}, False)"},
                              lines, level + 1)
            if body is not None:
                lines.append((level + 1,
                              f"{total} = _karith('+', {total}, {body})"))
            return body and total
        if text is None:
            return None
        name = self._fresh()
        lines.append((level, f"{name} = {text}"))
        return name

    def _kleaf(self, expr: ast.Expr, index) -> Optional[str]:
        """The name a var (not an index: that is a nat) or const leaf is
        bound to before the block, once per distinct leaf."""
        if type(expr) is not ast.Const and (type(expr) is not ast.Var
                                            or expr.name in index):
            return None
        if expr not in self._kleaves:
            self._kleaves[expr] = self._fresh()
        return self._kleaves[expr]

    def _vectorized(self, kernel, scope, size: str, result: str,
                    finish: str, empty: str, count: str) -> None:
        """The kernel block: ``result`` is ``None`` unless the live config
        wants a kernel of ``size`` cells; then bind the leaves and set it
        to ``finish`` of the numpy lines' value (``empty`` on an empty
        grid), counting ``count`` cells (``{}``: of ``result``).  A
        ``_Fallback`` leaves it ``None``, for the loop after it."""
        leaves, lines, value = kernel
        depth, self._depth = self._depth, 0
        block = [(0, f"{result} = None"),
                 (0, f"if _cfg.wants_kernel({size}):"),
                 *((1, f"{name} = {self._emit(leaf, scope)}")
                   for leaf, name in leaves.items()),
                 (1, f"if {size}:"), (2, "try:"), (3, "with _quiet():"),
                 *((4 + deeper, text) for deeper, text in lines),
                 (4, f"{result} = {finish.format(value)}"),
                 (2, "except _Fallback:"), (3, "pass"), (1, "else:"),
                 (2, f"{result} = {empty}")]
        self._depth = depth
        if self.probe is not None:
            block.append((1, f"if {result} is not None: "
                             f"_P.on_cells_vectorized("
                             f"{count.format(result)})"))
        for deeper, text in block:
            self._line(text, deeper)

    _NODES = {
        ast.Var: _var, ast.App: _app, **dict.fromkeys(_LOOPS, _loop),
        ast.Lam: lambda self, e, scope: self._def((e.param,), e.body, scope),
        **dict.fromkeys((ast.BoolLit, ast.NatLit, ast.RealLit, ast.StrLit,
                         ast.Const), _literal),
        ast.If: _if, ast.MkArray: _mk_array, ast.Prim: _prim,
    }


#: the globals of every emitted plan: no value of any plan lives here
_GLOBALS = {**runtime.NAMES, **Compiler.RUNTIME}

#: source text -> compiled factory, least recently used first
_FACTORIES: "OrderedDict[str, Callable[..., Code]]" = OrderedDict()
_FACTORIES_LOCK = threading.Lock()
_PLAN_NUMBERS = count()


def _compiled(source: str) -> Callable[..., Code]:
    """The factory ``source`` defines, compiled on first sight."""
    with _FACTORIES_LOCK:
        factory = _FACTORIES.get(source)
        if factory is not None:
            _FACTORIES.move_to_end(source)
            return factory
    filename = f"<plan {next(_PLAN_NUMBERS)}>"
    defined: Dict[str, Any] = {}
    exec(compile(source, filename, "exec"), _GLOBALS, defined)
    factory = defined["_factory"]
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    with _FACTORIES_LOCK:
        _FACTORIES[source] = factory
        while len(_FACTORIES) > FACTORY_CAPACITY:
            _, evicted = _FACTORIES.popitem(last=False)
            linecache.cache.pop(evicted.__code__.co_filename, None)
    return factory


class CompiledEvaluator:
    """Generates code for an expression and runs it.

    The code is kept for the most recent expression only, together with
    the node itself: a bare ``id`` key would be recycled by the
    allocator once a node dies and serve one expression's code for
    another.
    """

    def __init__(self, prims: Optional[Mapping[str, NativePrim]] = None,
                 probe: Any = None,
                 dispatch: Optional[DispatchConfig] = None,
                 vals: Optional[Mapping[str, Any]] = None):
        self.compiler = Compiler(prims, probe, dispatch, vals)
        self._prepared: Optional[Tuple[ast.Expr, Tuple[str, ...], Code]] = None

    def prepare(self, expr: ast.Expr, names: Tuple[str, ...] = (),
                types: Optional[Mapping[int, Any]] = None) -> Code:
        """Generate (or reuse) the code for ``expr`` and return it, so
        a plan cache can account code generation apart from running;
        ``types`` as for :meth:`Compiler.compile`."""
        prepared = self._prepared
        if prepared is not None and prepared[0] is expr \
                and prepared[1] == names:
            return prepared[2]
        try:
            code = self.compiler.compile(expr, names, types)
        except (RecursionError, SyntaxError, MemoryError):
            raise EvalError(
                "expression nesting exceeds the evaluator depth limit"
            ) from None
        self._prepared = (expr, names, code)
        return code

    @property
    def source(self) -> str:
        """The emitted source of the prepared plan (``""`` before one)."""
        return "" if self._prepared is None else "".join(
            linecache.getlines(self._prepared[2].__code__.co_filename))

    def run(self, expr: ast.Expr,
            bindings: Optional[Mapping[str, Any]] = None) -> Any:
        """Evaluate ``expr`` with optional top-level value bindings.

        Host failures are mapped at this boundary: a stray ``ValueError``
        from complex-object code becomes ⊥, and blowing the host stack —
        while generating code or running it — the depth-limit
        :class:`~repro.errors.EvalError`."""
        names = tuple(sorted(bindings)) if bindings else ()
        code = self.prepare(expr, names)
        try:
            env = [bindings[name] for name in names] if bindings else []
            return code(env)
        except RecursionError:
            raise EvalError(
                "expression nesting exceeds the evaluator depth limit"
            ) from None
        except ValueError as exc:
            raise BottomError(f"host value error: {exc}") from exc

    def apply_function(self, fn_value: Any, argument: Any) -> Any:
        """Apply a compiled function value to an argument."""
        return self.compiler.apply_function(fn_value, argument)


def evaluate(expr: ast.Expr,
             bindings: Optional[Mapping[str, Any]] = None,
             prims: Optional[Mapping[str, NativePrim]] = None) -> Any:
    """One-shot compile-and-run."""
    return CompiledEvaluator(prims).run(expr, bindings)


__all__ = ["Compiler", "CompiledEvaluator", "NativePrim", "evaluate", "Code",
           "FACTORY_CAPACITY"]
