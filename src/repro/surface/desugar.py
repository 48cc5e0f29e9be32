"""The Figure 2 translations: surface AQL → core NRCA.

"The translation consists of eliminating comprehensions, patterns, blocks
and other syntactic sugar" (Section 4.1).  Concretely:

* set/bag comprehensions become ``⋃``/``⊎`` nests with conditionals
  (first table of Figure 2);
* patterns compile to projections, equality checks and fresh binders
  (second table of Figure 2);
* ``let`` blocks become β-redexes ``(λP'.e2)(e1)``;
* array generators ``[P1 : P2] <- e`` expand to generators over the
  array's domain and a singleton of the subscripted value;
* the special forms ``gen``, ``get``, ``len``, ``dim_k``, ``index_k`` and
  ``summap`` map to their core constructs when applied (and η-expand when
  used as bare function values).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core import ast as C
from repro.errors import DesugarError
from repro.surface import sast as S

#: how many trailing dimensions the ``dim_k``/``index_k`` family supports
MAX_RANK = 9


class Desugarer:
    """Translates surface AST into the core calculus."""

    def desugar(self, expr: S.SExpr) -> C.Expr:
        """Translate one surface expression into the core calculus."""
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise DesugarError(f"cannot desugar {type(expr).__name__}")
        return method(self, expr)

    # -- literals and simple forms ------------------------------------------------

    def _var(self, expr: S.SVar) -> C.Expr:
        special = _SPECIAL_ETA.get(expr.name)
        if special is not None:
            return special()
        return C.Var(expr.name)

    def _nat(self, expr: S.SNat) -> C.Expr:
        return C.NatLit(expr.value)

    def _real(self, expr: S.SReal) -> C.Expr:
        return C.RealLit(expr.value)

    def _str(self, expr: S.SStr) -> C.Expr:
        return C.StrLit(expr.value)

    def _bool(self, expr: S.SBool) -> C.Expr:
        return C.BoolLit(expr.value)

    def _bottom(self, expr: S.SBottom) -> C.Expr:
        return C.Bottom()

    def _tuple(self, expr: S.STuple) -> C.Expr:
        return C.TupleE(tuple(self.desugar(item) for item in expr.items))

    def _set_lit(self, expr: S.SSetLit) -> C.Expr:
        """``{e1,...,en}`` is ``{e1} ∪ ... ∪ {en}`` (Section 3)."""
        out: C.Expr = C.EmptySet()
        for item in expr.items:
            singleton = C.Singleton(self.desugar(item))
            out = singleton if isinstance(out, C.EmptySet) \
                else C.Union(out, singleton)
        return out

    def _bag_lit(self, expr: S.SBagLit) -> C.Expr:
        out: C.Expr = C.EmptyBag()
        for item in expr.items:
            singleton = C.SingletonBag(self.desugar(item))
            out = singleton if isinstance(out, C.EmptyBag) \
                else C.BagUnion(out, singleton)
        return out

    def _array_lit(self, expr: S.SArrayLit) -> C.Expr:
        """``[[e1,...,en]]`` — implemented with the efficient row-major
        construct (the monoid form it abbreviates is O(n²); Section 3)."""
        items = tuple(self.desugar(item) for item in expr.items)
        return C.MkArray((C.NatLit(len(items)),), items)

    def _array_row_major(self, expr: S.SArrayRowMajor) -> C.Expr:
        dims = tuple(self.desugar(d) for d in expr.dims)
        items = tuple(self.desugar(i) for i in expr.items)
        return C.MkArray(dims, items)

    def _tabulate(self, expr: S.STabulate) -> C.Expr:
        names = tuple(name for name, _ in expr.binders)
        bounds = tuple(self.desugar(bound) for _, bound in expr.binders)
        return C.Tabulate(names, bounds, self.desugar(expr.body))

    def _subscript(self, expr: S.SSubscript) -> C.Expr:
        return C.Subscript(
            self.desugar(expr.array),
            tuple(self.desugar(index) for index in expr.indices),
        )

    def _if(self, expr: S.SIf) -> C.Expr:
        return C.If(self.desugar(expr.cond), self.desugar(expr.then),
                    self.desugar(expr.orelse))

    def _not(self, expr: S.SNot) -> C.Expr:
        return C.If(self.desugar(expr.expr), C.BoolLit(False), C.BoolLit(True))

    def _in(self, expr: S.SIn) -> C.Expr:
        # e ∈ S  ⇒  Σ{ if x = e then 1 else 0 | x ∈ S } > 0
        item = self.desugar(expr.item)
        source = self.desugar(expr.source)
        x = C.fresh_var("x")
        hit = C.If(C.Cmp("=", C.Var(x), item), C.NatLit(1), C.NatLit(0))
        return C.Cmp(">", C.Sum(x, hit, source), C.NatLit(0))

    def _binop(self, expr: S.SBinop) -> C.Expr:
        left = self.desugar(expr.left)
        right = self.desugar(expr.right)
        if expr.op in C.ARITH_OPS:
            return C.Arith(expr.op, left, right)
        if expr.op in C.CMP_OPS:
            return C.Cmp(expr.op, left, right)
        if expr.op == "union":
            return C.Union(left, right)
        if expr.op == "bunion":
            return C.BagUnion(left, right)
        if expr.op == "and":
            return C.If(left, right, C.BoolLit(False))
        if expr.op == "or":
            return C.If(left, C.BoolLit(True), right)
        raise DesugarError(f"unknown operator {expr.op!r}")

    # -- application and special forms -----------------------------------------------

    def _app(self, expr: S.SApp) -> C.Expr:
        # summap(f)!(e)  ⇒  Σ{ f(x) | x ∈ e }
        if isinstance(expr.fn, S.SCall) and isinstance(expr.fn.fn, S.SVar) \
                and expr.fn.fn.name == "summap":
            if len(expr.fn.args) != 1:
                raise DesugarError("summap takes exactly one function")
            fn_core = self.desugar(expr.fn.args[0])
            source = self.desugar(expr.arg)
            x = C.fresh_var("x")
            return C.Sum(x, C.App(fn_core, C.Var(x)), source)
        if isinstance(expr.fn, S.SVar):
            special = _SPECIAL_APPLIED.get(expr.fn.name)
            if special is not None:
                return special(self.desugar(expr.arg))
        return C.App(self.desugar(expr.fn), self.desugar(expr.arg))

    def _call(self, expr: S.SCall) -> C.Expr:
        if isinstance(expr.fn, S.SVar) and expr.fn.name == "summap":
            raise DesugarError("summap(f) must be applied: summap(f)!(e)")
        if not expr.args:
            raise DesugarError("calls need at least one argument")
        if len(expr.args) == 1:
            argument = self.desugar(expr.args[0])
        else:
            argument = C.TupleE(tuple(self.desugar(a) for a in expr.args))
        if isinstance(expr.fn, S.SVar):
            special = _SPECIAL_APPLIED.get(expr.fn.name)
            if special is not None:
                return special(argument)
        return C.App(self.desugar(expr.fn), argument)

    # -- lambdas, lets -----------------------------------------------------------------

    def _lam(self, expr: S.SLam) -> C.Expr:
        body = self.desugar(expr.body)
        param, body = self._compile_lambda_pattern(expr.pattern, body)
        return C.Lam(param, body)

    def _let(self, expr: S.SLet) -> C.Expr:
        """``let val P = e1 in e2 end ≡ (λP'.e2)(e1)``, right-nested."""
        body = self.desugar(expr.body)
        for pattern, bound in reversed(expr.bindings):
            param, body = self._compile_lambda_pattern(pattern, body)
            body = C.App(C.Lam(param, body), self.desugar(bound))
        return body

    def _compile_lambda_pattern(self, pattern: S.Pattern,
                                body: C.Expr) -> Tuple[str, C.Expr]:
        """Compile a lambda pattern ``P' ::= (P'1,...,P'n) | _ | \\x``.

        Returns the binder name and the body with component references
        replaced by projections (Figure 2, second table).
        """
        if isinstance(pattern, S.PBind):
            return pattern.name, body
        if isinstance(pattern, S.PWild):
            return C.fresh_var("w"), body
        if isinstance(pattern, S.PTuple):
            binder = C.fresh_var("z")
            bindings: Dict[str, C.Expr] = {}
            self._tuple_projections(pattern, C.Var(binder), bindings)
            return binder, C.substitute(body, bindings)
        raise DesugarError(
            "lambda patterns may only contain \\x, _ and tuples"
        )

    def _tuple_projections(self, pattern: S.PTuple, root: C.Expr,
                           out: Dict[str, C.Expr]) -> None:
        arity = len(pattern.items)
        for position, item in enumerate(pattern.items, start=1):
            path = C.Proj(position, arity, root)
            if isinstance(item, S.PBind):
                if item.name in out:
                    raise DesugarError(
                        f"duplicate binder {item.name!r} in pattern"
                    )
                out[item.name] = path
            elif isinstance(item, S.PWild):
                continue
            elif isinstance(item, S.PTuple):
                self._tuple_projections(item, path, out)
            else:
                raise DesugarError(
                    "lambda patterns may only contain \\x, _ and tuples"
                )

    # -- comprehensions ------------------------------------------------------------------

    def _set_comp(self, expr: S.SSetComp) -> C.Expr:
        return self._comprehension(expr.head, expr.qualifiers, bag=False)

    def _bag_comp(self, expr: S.SBagComp) -> C.Expr:
        return self._comprehension(expr.head, expr.qualifiers, bag=True)

    def _comprehension(self, head: S.SExpr,
                       qualifiers: Tuple[S.GenFilter, ...],
                       bag: bool) -> C.Expr:
        """The first table of Figure 2, processed right-to-left."""
        if bag:
            empty: Callable[[], C.Expr] = C.EmptyBag
            single: Callable[[C.Expr], C.Expr] = C.SingletonBag
            ext = C.BagExt
        else:
            empty = C.EmptySet
            single = C.Singleton
            ext = C.Ext
        accumulated = single(self.desugar(head))
        for qualifier in reversed(qualifiers):
            if isinstance(qualifier, S.GFilter):
                accumulated = C.If(
                    self.desugar(qualifier.expr), accumulated, empty()
                )
            elif isinstance(qualifier, S.GGen):
                accumulated = self._generator(
                    qualifier.pattern, self.desugar(qualifier.source),
                    accumulated, empty, ext,
                )
            elif isinstance(qualifier, S.GBind):
                # P :== e  is  P <- {e}
                accumulated = self._generator(
                    qualifier.pattern, single(self.desugar(qualifier.expr)),
                    accumulated, empty, ext,
                )
            elif isinstance(qualifier, S.GArrayGen):
                accumulated = self._array_generator(
                    qualifier, accumulated, empty, ext
                )
            else:  # pragma: no cover
                raise DesugarError(f"unknown qualifier {qualifier!r}")
        return accumulated

    def _generator(self, pattern: S.Pattern, source: C.Expr, body: C.Expr,
                   empty: Callable[[], C.Expr],
                   ext: Callable[..., C.Expr]) -> C.Expr:
        """``⋃{ body | P <- source }`` with full pattern matching.

        Implements the Figure 2 pattern translation: each constant or
        non-binding variable occurrence becomes an equality condition,
        each binder becomes a projection of a fresh element variable.
        """
        element = C.fresh_var("z")
        conditions: List[C.Expr] = []
        bindings: Dict[str, C.Expr] = {}
        self._match(pattern, C.Var(element), conditions, bindings)
        inner = C.substitute(body, bindings) if bindings else body
        for condition in reversed(conditions):
            inner = C.If(condition, inner, empty())
        return ext(element, inner, source)

    def _match(self, pattern: S.Pattern, path: C.Expr,
               conditions: List[C.Expr], bindings: Dict[str, C.Expr]) -> None:
        if isinstance(pattern, S.PBind):
            if pattern.name in bindings:
                raise DesugarError(
                    f"duplicate binder {pattern.name!r} in pattern"
                )
            bindings[pattern.name] = path
        elif isinstance(pattern, S.PWild):
            return
        elif isinstance(pattern, S.PVarEq):
            conditions.append(C.Cmp("=", path, C.Var(pattern.name)))
        elif isinstance(pattern, S.PConst):
            conditions.append(C.Cmp("=", path, _const_expr(pattern.value)))
        elif isinstance(pattern, S.PTuple):
            arity = len(pattern.items)
            for position, item in enumerate(pattern.items, start=1):
                self._match(item, C.Proj(position, arity, path),
                            conditions, bindings)
        else:  # pragma: no cover
            raise DesugarError(f"unknown pattern {pattern!r}")

    def _array_generator(self, gen: S.GArrayGen, body: C.Expr,
                         empty: Callable[[], C.Expr],
                         ext: Callable[..., C.Expr]) -> C.Expr:
        """``[P1 : P2] <- A``: iterate the domain, match index and value.

        Expands to nested generators over ``gen(dim_j(A))`` (one per
        dimension, so no intermediate index-tuple set is built) and a
        generator over ``{A[i1,...,ik]}`` for the value.  The rank is the
        arity of the index pattern.
        """
        if isinstance(gen.index_pattern, S.PTuple):
            rank = len(gen.index_pattern.items)
            index_patterns = list(gen.index_pattern.items)
        else:
            rank = 1
            index_patterns = [gen.index_pattern]
        array_var = C.fresh_var("a")
        array = C.Var(array_var)
        index_vars = [C.fresh_var("i") for _ in range(rank)]

        conditions: List[C.Expr] = []
        bindings: Dict[str, C.Expr] = {}
        for sub_pattern, index_var in zip(index_patterns, index_vars):
            self._match(sub_pattern, C.Var(index_var), conditions, bindings)
        inner = C.substitute(body, bindings) if bindings else body
        for condition in reversed(conditions):
            inner = C.If(condition, inner, empty())

        subscript = C.Subscript(array, tuple(C.Var(v) for v in index_vars))
        inner = self._generator(
            gen.value_pattern, C.Singleton(subscript), inner, empty, ext
        )
        # note: the value generator runs over a singleton *set* even inside
        # bag comprehensions — wrap consistently with the requested monad
        for axis in range(rank, 0, -1):
            if rank == 1:
                bound: C.Expr = C.Dim(array, 1)
            else:
                bound = C.Proj(axis, rank, C.Dim(array, rank))
            inner = ext(index_vars[axis - 1], inner, C.Gen(bound))
        return C.App(C.Lam(array_var, inner), self.desugar(gen.source))

    _DISPATCH = {
        S.SVar: _var,
        S.SNat: _nat,
        S.SReal: _real,
        S.SStr: _str,
        S.SBool: _bool,
        S.SBottom: _bottom,
        S.STuple: _tuple,
        S.SSetLit: _set_lit,
        S.SBagLit: _bag_lit,
        S.SSetComp: _set_comp,
        S.SBagComp: _bag_comp,
        S.SArrayLit: _array_lit,
        S.SArrayRowMajor: _array_row_major,
        S.STabulate: _tabulate,
        S.SApp: _app,
        S.SCall: _call,
        S.SSubscript: _subscript,
        S.SLam: _lam,
        S.SIf: _if,
        S.SLet: _let,
        S.SBinop: _binop,
        S.SNot: _not,
        S.SIn: _in,
    }


def _const_expr(value) -> C.Expr:
    if isinstance(value, bool):
        return C.BoolLit(value)
    if isinstance(value, int):
        return C.NatLit(value)
    if isinstance(value, float):
        return C.RealLit(value)
    if isinstance(value, str):
        return C.StrLit(value)
    raise DesugarError(f"bad constant pattern {value!r}")


# -- the special forms ---------------------------------------------------------

def _special_applied() -> Dict[str, Callable[[C.Expr], C.Expr]]:
    table: Dict[str, Callable[[C.Expr], C.Expr]] = {
        "gen": lambda e: C.Gen(e),
        "get": lambda e: C.Get(e),
        "len": lambda e: C.Dim(e, 1),
        "dim": lambda e: C.Dim(e, 1),
        "index": lambda e: C.IndexSet(e, 1),
    }
    for rank in range(2, MAX_RANK + 1):
        table[f"dim_{rank}"] = (lambda e, r=rank: C.Dim(e, r))
        table[f"index_{rank}"] = (lambda e, r=rank: C.IndexSet(e, r))
    return table


def _special_eta() -> Dict[str, Callable[[], C.Expr]]:
    """Bare uses of the special forms η-expand to lambdas."""
    out: Dict[str, Callable[[], C.Expr]] = {}
    for name, build in _SPECIAL_APPLIED.items():
        def make(builder=build):
            var = C.fresh_var("x")
            return C.Lam(var, builder(C.Var(var)))
        out[name] = make
    return out


_SPECIAL_APPLIED = _special_applied()
_SPECIAL_ETA = _special_eta()


def desugar_expression(expr: S.SExpr) -> C.Expr:
    """One-shot desugaring of a surface expression."""
    return Desugarer().desugar(expr)


__all__ = ["Desugarer", "desugar_expression", "MAX_RANK"]
