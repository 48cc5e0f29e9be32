"""The execution engine: core NRCA expressions → Python closures.

The paper's pipeline ends in a *code generator* ("The first reason is to
make the primitive known to the code generator so a more efficient query
plan can be generated", Section 3; Section 4.1 compiles the optimized
query before running it).  This module compiles the AST **once** into
nested Python closures with slot-indexed environments — the Python
analogue of the prototype's compilation into SML — and every query a
:class:`~repro.system.session.Session` or
:class:`~repro.env.environment.TopEnv` runs goes through it.

It is also the one place physical choices are made: the emitted code
for ``Tabulate``, ``Σ``, ``Ext`` and ``index_k`` dispatches to
:mod:`repro.core.kernels`, :mod:`repro.core.parallel` and
:mod:`repro.core.setops` under the live
:class:`~repro.core.fastpath.DispatchConfig` and falls through to the
naive loop.  The semantics are those of the reference tree-walker
(:mod:`repro.core.eval`), which the test suite checks it against.

Each emitted closure is specialised on what is static at codegen time —
operator, arity, rank, loop shape — guards on *exact* host types
(``type(x) is int``), and falls through to the one general routine,
which owns every error.  Loops allocate one frame per invocation, inside
``run``: the same code is re-entered recursively.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.core import ast
from repro.core import kernels
from repro.core import parallel
from repro.core import setops
from repro.core.fastpath import DEFAULT_CONFIG, DispatchConfig
from repro.errors import BottomError, EvalError
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.ordering import (
    COMPARISONS,
    canonical_elements,
    rank_elements,
    sort_values,
)
from repro.objects.values import ARITH_HOST, apply_arith

#: a compiled expression: environment stack -> value
Code = Callable[[List[Any]], Any]

#: native primitives receive ``(argument_value, evaluator)`` so that
#: higher-order primitives (e.g. ``summap``) can apply AQL functions
#: through ``evaluator.apply_function``
NativePrim = Callable[[Any, Any], Any]


def _binary(left: Code, right: Code,
            host: Mapping[type, Callable[[Any, Any], Any]],
            general: Callable[[Any, Any], Any]) -> Code:
    """Code for a binary operator: the host operator tabled for the
    operands' type when both have exactly that type (``type(x) is``:
    no ``bool`` as ``int``, no ``numpy.float64`` as ``float``), else
    ``general``, which owns every error — a zero divisor included."""
    host_for = host.get

    def run(env):
        a = left(env)
        b = right(env)
        kind = type(a)
        fast = host_for(kind)
        if fast is not None and type(b) is kind:
            try:
                return fast(a, b)
            except ZeroDivisionError:
                pass
        return general(a, b)

    return run


class Compiler:
    """Compiles core expressions against a primitive registry.

    ``probe`` (an :class:`~repro.obs.metrics.EvalProbe`) makes the
    generated code self-instrumenting: each node's closure is wrapped
    with a counting shim *at compile time*, so uninstrumented
    compilation (the default) emits exactly the original closures with
    no runtime checks.
    """

    def __init__(self, prims: Optional[Mapping[str, NativePrim]] = None,
                 probe: Any = None,
                 parallel: Optional[DispatchConfig] = None):
        #: the primitive table, held by reference: an environment builds
        #: an engine per statement and per cached plan, so a copy would
        #: cost the whole table each time; a later registration bumps
        #: the environment's generation, which drops the cached plans
        self.prims: Mapping[str, NativePrim] = \
            prims if prims is not None else {}
        self.probe = probe
        #: fast-path gating, held by reference so session-level
        #: mutation retunes already-emitted code
        self.parallel = parallel if parallel is not None else DEFAULT_CONFIG

    @staticmethod
    def apply_function(fn_value: Any, argument: Any) -> Any:
        """Apply a compiled function value (a plain Python callable) to
        an argument; the protocol native primitives, which are handed
        the compiler as their evaluator, apply AQL functions through.

        A ⊥-mapping boundary like :meth:`CompiledEvaluator.run`: a
        primitive-triggered ``Array`` size mismatch (host ``ValueError``)
        must surface as the calculus's undefined, not a Python crash.
        """
        if callable(fn_value):
            try:
                return fn_value(argument)
            except ValueError as exc:
                raise BottomError(f"host value error: {exc}") from exc
        raise EvalError(f"not a function: {fn_value!r}")

    def compile(self, expr: ast.Expr,
                scope: Tuple[str, ...] = ()) -> Code:
        """Compile ``expr`` (with free variables in ``scope``) to code."""
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise EvalError(f"cannot compile {type(expr).__name__}")
        code = method(self, expr, scope)
        probe = self.probe
        if probe is None:
            return code
        kind = type(expr).__name__

        def probed(env, _code=code, _kind=kind, _probe=probe):
            _probe.on_node(_kind)
            try:
                result = _code(env)
            except BottomError as exc:
                if not getattr(exc, "_obs_counted", False):
                    exc._obs_counted = True
                    _probe.on_bottom(exc.reason)
                raise
            if isinstance(result, (frozenset, Bag)):
                _probe.on_collection(len(result))
            return result

        return probed

    # -- variables and functions ------------------------------------------------

    def _slot(self, scope: Tuple[str, ...], name: str) -> int:
        """Absolute environment-stack slot of ``name`` (innermost wins)."""
        for position in range(len(scope) - 1, -1, -1):
            if scope[position] == name:
                return position
        raise EvalError(f"unbound variable {name!r} at compile time")

    def _var(self, expr: ast.Var, scope) -> Code:
        slot = self._slot(scope, expr.name)
        return lambda env: env[slot]

    def _lam(self, expr: ast.Lam, scope) -> Code:
        body = self.compile(expr.body, scope + (expr.param,))
        depth = len(scope)

        def make(env):
            prefix = env[:depth]  # snapshot the captured environment

            def closure(argument):
                return body(prefix + [argument])

            return closure

        return make

    def _app(self, expr: ast.App, scope) -> Code:
        fn_code = self.compile(expr.fn, scope)
        arg_code = self.compile(expr.arg, scope)

        def run(env):
            fn_value = fn_code(env)
            if not callable(fn_value):
                raise EvalError(f"not a function: {fn_value!r}")
            return fn_value(arg_code(env))

        return run

    # -- data constructors ---------------------------------------------------------

    def _tuple(self, expr: ast.TupleE, scope) -> Code:
        items = [self.compile(item, scope) for item in expr.items]
        if len(items) == 2:
            first, second = items
            return lambda env: (first(env), second(env))
        if len(items) == 3:
            first, second, third = items
            return lambda env: (first(env), second(env), third(env))
        return lambda env: tuple([code(env) for code in items])

    def _proj(self, expr: ast.Proj, scope) -> Code:
        target = self.compile(expr.expr, scope)
        index, arity = expr.index - 1, expr.arity

        def run(env):
            value = target(env)
            if not isinstance(value, tuple) or len(value) != arity:
                raise EvalError(f"π applied to {value!r}")
            return value[index]

        return run

    def _empty_set(self, expr, scope) -> Code:
        empty = frozenset()
        return lambda env: empty

    def _singleton(self, expr: ast.Singleton, scope) -> Code:
        inner = self.compile(expr.expr, scope)
        return lambda env: frozenset((inner(env),))

    def _union(self, expr: ast.Union, scope) -> Code:
        left = self.compile(expr.left, scope)
        right = self.compile(expr.right, scope)
        return lambda env: left(env) | right(env)

    def _ext(self, expr: ast.Ext, scope) -> Code:
        # join recognition happens once, at compile time (the kill
        # switch is compile-time too: it cannot be un-thrown within a
        # process); the emitted code still gates per run on the live
        # config and falls through to the naive loop
        shape = setops.recognize_join(expr) if setops.ENABLED else None
        # the hash join needs the set; the naive loop only its elements
        source = self._elements(expr.source, scope) if shape is None \
            else self.compile(expr.source, scope)
        loop = self._ext_loop(expr, scope)
        if shape is None:
            return lambda env: loop(env, source(env))
        pieces = None
        if self.probe is None:
            try:
                pieces = setops.compile_join_pieces(self, expr, shape, scope)
            except Exception:
                shape = None  # compile like the naive loop would
        config = self.parallel

        def run_join(env):
            src = source(env)
            if (shape is not None and isinstance(src, frozenset)
                    and len(src) >= 2 and setops.available(config)):
                result = setops.hash_join(
                    self, expr, shape, scope, pieces, env, src)
                if result is not None:
                    return result
            return loop(env, src)

        return run_join

    def _ext_loop(self, expr: ast.Ext, scope):
        """The naive loop ``(env, elements) -> set``, by body shape:
        ``{e}`` and ``if c then {e} else {}`` — every desugared
        comprehension — add ``e`` instead of building and unioning a
        singleton per element.  A probe counts the nodes that fuses
        away, so probed code keeps the general shape."""
        inner = scope + (expr.var,)
        depth = len(scope)
        test, body = None, expr.body
        if isinstance(body, ast.If) and isinstance(body.orelse, ast.EmptySet):
            test, body = body.cond, body.then
        if self.probe is None and isinstance(body, ast.Singleton):
            cond = self.compile(test, inner) if test is not None else None
            member = self.compile(body.expr, inner)

            def run_adding(env, elements):
                out: set = set()
                frame = env + [None]
                for element in elements:
                    frame[depth] = element
                    if cond is None or cond(frame):
                        out.add(member(frame))
                return frozenset(out)

            return run_adding
        body_code = self.compile(expr.body, inner)

        def run(env, elements):
            out: set = set()
            frame = env + [None]
            for element in elements:
                frame[depth] = element
                out |= body_code(frame)
            return frozenset(out)

        return run

    def _elements(self, source: ast.Expr, scope) -> Code:
        """Code for the collection a loop ranges over.  A source that is
        syntactically ``gen!n`` is ``range(n)``, no set built; a probe
        counts the ``Gen`` node and its result, so probed code runs it."""
        if self.probe is None and isinstance(source, ast.Gen):
            bound = self._gen_bound(source, scope)
            return lambda env: range(bound(env))
        return self.compile(source, scope)

    # -- literals, booleans and conditionals ---------------------------------------------

    def _literal(self, expr, scope) -> Code:
        """``BoolLit``/``NatLit``/``RealLit``/``StrLit``/``Const``."""
        value = expr.value
        return lambda env: value

    def _if(self, expr: ast.If, scope) -> Code:
        cond = self.compile(expr.cond, scope)
        then = self.compile(expr.then, scope)
        orelse = self.compile(expr.orelse, scope)
        return lambda env: then(env) if cond(env) else orelse(env)

    def _cmp(self, expr: ast.Cmp, scope) -> Code:
        return _binary(self.compile(expr.left, scope),
                       self.compile(expr.right, scope),
                       *COMPARISONS[expr.op])

    # -- naturals -------------------------------------------------------------------------

    def _arith(self, expr: ast.Arith, scope) -> Code:
        return _binary(self.compile(expr.left, scope),
                       self.compile(expr.right, scope),
                       ARITH_HOST[expr.op], partial(apply_arith, expr.op))

    def _gen_bound(self, expr: ast.Gen, scope) -> Code:
        inner = self.compile(expr.expr, scope)

        def run(env):
            bound = inner(env)
            if not isinstance(bound, int) or isinstance(bound, bool) \
                    or bound < 0:
                raise BottomError(f"gen of non-natural {bound!r}")
            return bound

        return run

    def _gen(self, expr: ast.Gen, scope) -> Code:
        bound = self._gen_bound(expr, scope)
        return lambda env: frozenset(range(bound(env)))

    def _sum(self, expr: ast.Sum, scope) -> Code:
        source = self._elements(expr.source, scope)
        body = self.compile(expr.body, scope + (expr.var,))
        config = self.parallel
        depth = len(scope)

        def run(env):
            # canonical order, NOT frozenset hash order: float addition
            # is non-associative, so a hash-ordered Σ over reals would
            # differ between runs and platforms
            elements = canonical_elements(source(env))
            if parallel.available(config) \
                    and config.wants_shards(len(elements)):
                sharded = parallel.shard_sum(self, expr, scope, env,
                                             elements)
                if sharded is not None:
                    return sharded[0]
            total: Any = 0
            frame = env + [None]
            for element in elements:
                frame[depth] = element
                total = total + body(frame)
            return total

        return run

    # -- arrays ------------------------------------------------------------------------------

    def _tabulate(self, expr: ast.Tabulate, scope) -> Code:
        bounds = [self.compile(bound, scope) for bound in expr.bounds]
        body = self.compile(expr.body, scope + expr.vars)
        rank = expr.rank
        probe = self.probe
        # kernel recognition happens once, at compile time; the emitted
        # code still decides per run (numpy may be toggled, extents and
        # input values vary) and falls through to the scalar loop
        kernel = kernels.recognize(expr)
        input_codes: List[Code] = []
        if kernel is not None:
            input_codes = [self.compile(leaf, scope) for leaf in kernel.inputs]
        config = self.parallel
        depth = len(scope)

        def run(env):
            extents = []
            total = 1
            for code in bounds:
                value = code(env)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    raise BottomError(
                        f"tabulation bound {value!r} is not natural"
                    )
                extents.append(value)
                total *= value
            if kernel is not None and config.wants_kernel(total) \
                    and kernels.available():
                inputs = [code(env) for code in input_codes]
                result = kernels.execute(kernel, extents, inputs)
                if result is not None:
                    if probe is not None:
                        probe.on_cells_vectorized(result.size)
                    return result
            # vectorization wins when the body is kernel-shaped;
            # otherwise shard the domain by flat cell ranges
            if parallel.available(config) and config.wants_shards(total):
                result = parallel.shard_tabulate(
                    self, expr, scope, env, extents, total
                )
                if result is not None:
                    return result
            values: list = []
            frame = env + [None] * rank
            if rank == 1:
                for i in range(extents[0]):
                    frame[depth] = i
                    values.append(body(frame))
            elif total:  # product() would unroll every axis up front
                for index in product(*map(range, extents)):
                    frame[depth:] = index
                    values.append(body(frame))
            if probe is not None:
                probe.on_cells(len(values))
            return Array(extents, values)

        return run

    def _subscript(self, expr: ast.Subscript, scope) -> Code:
        array_code = self.compile(expr.array, scope)
        index_codes = [self.compile(index, scope) for index in expr.indices]

        def general(array, env):
            if not isinstance(array, Array):
                raise EvalError(f"subscript into non-array {array!r}")
            return array[tuple([code(env) for code in index_codes])]

        # the arity is static: ranks 1-3 evaluate their indices into
        # arguments of the array's reader for that rank, which ends in
        # the same ``array[(i, j, ...)]`` as the general code
        if len(index_codes) == 1:
            (first,) = index_codes

            def run(env):
                array = array_code(env)
                if type(array) is Array:
                    return array.at1(first(env))
                return general(array, env)
        elif len(index_codes) == 2:
            first, second = index_codes

            def run(env):
                array = array_code(env)
                if type(array) is Array:
                    return array.at2(first(env), second(env))
                return general(array, env)
        elif len(index_codes) == 3:
            first, second, third = index_codes

            def run(env):
                array = array_code(env)
                if type(array) is Array:
                    return array.at3(first(env), second(env), third(env))
                return general(array, env)
        else:
            def run(env):
                return general(array_code(env), env)

        return run

    def _dim(self, expr: ast.Dim, scope) -> Code:
        inner = self.compile(expr.expr, scope)
        rank = expr.rank

        def run(env):
            array = inner(env)
            if not isinstance(array, Array) or array.rank != rank:
                raise BottomError(f"dim_{rank} of {array!r}")
            return array.dims[0] if rank == 1 else array.dims

        return run

    def _index(self, expr: ast.IndexSet, scope) -> Code:
        inner = self.compile(expr.expr, scope)
        rank = expr.rank
        probe = self.probe
        config = self.parallel
        if probe is None:
            return lambda env: setops.index_set_dispatch(inner(env), rank,
                                                         config)[0]

        def run(env):
            source = inner(env)
            result, groups, max_group, sorted_used = \
                setops.index_set_dispatch(source, rank, config)
            probe.on_index(result.size, groups, len(source),
                           max_group=max_group, sorted_path=sorted_used)
            return result

        return run

    def _get(self, expr: ast.Get, scope) -> Code:
        inner = self.compile(expr.expr, scope)

        def run(env):
            value = inner(env)
            if not isinstance(value, frozenset) or len(value) != 1:
                raise BottomError(
                    f"get of non-singleton ({len(value)} elements)"
                )
            (element,) = value
            return element

        return run

    def _bottom(self, expr, scope) -> Code:
        def run(env):
            raise BottomError("explicit bottom")

        return run

    def _mk_array(self, expr: ast.MkArray, scope) -> Code:
        dim_codes = [self.compile(dim, scope) for dim in expr.dims]
        item_codes = [self.compile(item, scope) for item in expr.items]
        probe = self.probe

        def run(env):
            dims = []
            for code in dim_codes:
                value = code(env)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    raise BottomError(
                        f"array dimension {value!r} is not natural"
                    )
                dims.append(value)
            expected = 1
            for extent in dims:
                expected *= extent
            if expected != len(item_codes):
                raise BottomError(
                    f"array literal has {len(item_codes)} values "
                    f"for dims {dims}"
                )
            if probe is not None:
                probe.on_cells(len(item_codes))
            return Array(dims, [code(env) for code in item_codes])

        return run

    def _prim(self, expr: ast.Prim, scope) -> Code:
        native = self.prims.get(expr.name)
        if native is None:
            raise EvalError(f"unknown primitive {expr.name!r}")

        def as_callable(argument):
            return native(argument, self)

        return lambda env: as_callable

    # -- Section 6 extensions ---------------------------------------------------------------------

    def _empty_bag(self, expr, scope) -> Code:
        return lambda env: Bag()

    def _singleton_bag(self, expr: ast.SingletonBag, scope) -> Code:
        inner = self.compile(expr.expr, scope)
        return lambda env: Bag((inner(env),))

    def _bag_union(self, expr: ast.BagUnion, scope) -> Code:
        left = self.compile(expr.left, scope)
        right = self.compile(expr.right, scope)
        return lambda env: left(env).union(right(env))

    def _bag_ext(self, expr: ast.BagExt, scope) -> Code:
        source = self.compile(expr.source, scope)
        body = self.compile(expr.body, scope + (expr.var,))

        def run(env):
            out = Bag()
            for element in source(env):
                out = out.union(body(env + [element]))
            return out

        return run

    def _ext_rank(self, expr: ast.ExtRank, scope) -> Code:
        source = self.compile(expr.source, scope)
        body = self.compile(expr.body, scope + (expr.var, expr.idx))

        def run(env):
            out: set = set()
            for element, position in rank_elements(source(env)):
                out |= body(env + [element, position])
            return frozenset(out)

        return run

    def _bag_ext_rank(self, expr: ast.BagExtRank, scope) -> Code:
        source = self.compile(expr.source, scope)
        body = self.compile(expr.body, scope + (expr.var, expr.idx))

        def run(env):
            out = Bag()
            ordered = sort_values(source(env))
            for position, element in enumerate(ordered, start=1):
                out = out.union(body(env + [element, position]))
            return out

        return run

    _DISPATCH = {
        ast.Var: _var,
        ast.Lam: _lam,
        ast.App: _app,
        ast.TupleE: _tuple,
        ast.Proj: _proj,
        ast.EmptySet: _empty_set,
        ast.Singleton: _singleton,
        ast.Union: _union,
        ast.Ext: _ext,
        ast.BoolLit: _literal,
        ast.If: _if,
        ast.Cmp: _cmp,
        ast.NatLit: _literal,
        ast.RealLit: _literal,
        ast.StrLit: _literal,
        ast.Arith: _arith,
        ast.Gen: _gen,
        ast.Sum: _sum,
        ast.Tabulate: _tabulate,
        ast.Subscript: _subscript,
        ast.Dim: _dim,
        ast.IndexSet: _index,
        ast.Get: _get,
        ast.Bottom: _bottom,
        ast.MkArray: _mk_array,
        ast.Prim: _prim,
        ast.Const: _literal,
        ast.EmptyBag: _empty_bag,
        ast.SingletonBag: _singleton_bag,
        ast.BagUnion: _bag_union,
        ast.BagExt: _bag_ext,
        ast.ExtRank: _ext_rank,
        ast.BagExtRank: _bag_ext_rank,
    }


class CompiledEvaluator:
    """Generates code for an expression and runs it.

    The generated code is kept for the most recent expression only, and
    together with the node itself: a plan-cache entry's evaluator runs
    one core over and over without regenerating, while a bare ``id``
    key would be recycled by the allocator once a node dies and serve
    one expression's code for another.
    """

    def __init__(self, prims: Optional[Mapping[str, NativePrim]] = None,
                 probe: Any = None,
                 parallel: Optional[DispatchConfig] = None):
        self.compiler = Compiler(prims, probe, parallel=parallel)
        self._prepared: Optional[Tuple[ast.Expr, Tuple[str, ...], Code]] = None

    def prepare(self, expr: ast.Expr,
                names: Tuple[str, ...] = ()) -> Code:
        """Generate (or reuse) the code for ``expr`` and return it.

        ``run`` does this on demand; ``prepare`` exists so the plan
        cache can account code generation separately from execution.
        """
        prepared = self._prepared
        if prepared is not None and prepared[0] is expr \
                and prepared[1] == names:
            return prepared[2]
        try:
            code = self.compiler.compile(expr, names)
        except RecursionError:
            raise EvalError(
                "expression nesting exceeds the evaluator depth limit"
            ) from None
        self._prepared = (expr, names, code)
        return code

    def run(self, expr: ast.Expr,
            bindings: Optional[Mapping[str, Any]] = None) -> Any:
        """Evaluate ``expr`` with optional top-level value bindings.

        Host-level failures are mapped at this boundary so callers only
        ever see the calculus's own errors: a stray ``ValueError`` from
        complex-object code (e.g. :class:`~repro.objects.array.Array`
        construction inside a primitive) becomes ⊥, and blowing the host
        stack on a deeply nested expression — while generating code or
        while running it — surfaces as :class:`~repro.errors.EvalError`
        instead of a bare ``RecursionError``.
        """
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


__all__ = ["Compiler", "CompiledEvaluator", "NativePrim", "evaluate", "Code"]
