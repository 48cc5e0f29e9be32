"""The typing rules of Figure 1, implemented with unification.

AQL has no type annotations (``fn \\x => e``), so the checker infers types
Hindley–Milner style: every binder gets a fresh type variable, the rules of
Figure 1 become unification constraints, and the result is the zonked
type.  Macros and primitives are looked up as type *schemes* and
instantiated per use (Section 4.1's ``typ`` lines come from
``generalize`` at declaration time).  A macro is recognised by the
identity of its spliced body, so a query is typed as Figure 3 orders it:
before macro expansion, with each use an instance of the macro's scheme.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core import ast
from repro.errors import TypeCheckError, UnificationError
from repro.types.types import (
    NUMERIC,
    TArray,
    TArrow,
    TBag,
    TBool,
    TNat,
    TProduct,
    TReal,
    TSet,
    TString,
    Type,
    TypeScheme,
    fresh_tvar,
    type_of_value,
)
from repro.types.unify import Substitution, generalize, instantiate, unify, zonk

TypeEnv = Dict[str, TypeScheme]

#: the collection type each construct builds (the empty, singleton and
#: union forms) or iterates (the loops; Σ sums over a set)
_COLLECTION = {
    ast.EmptySet: TSet, ast.Singleton: TSet, ast.Union: TSet,
    ast.Ext: TSet, ast.ExtRank: TSet, ast.Sum: TSet,
    ast.EmptyBag: TBag, ast.SingletonBag: TBag, ast.BagUnion: TBag,
    ast.BagExt: TBag, ast.BagExtRank: TBag,
}


class TypeChecker:
    """Checks NRCA expressions against the rules of Figure 1.

    Parameters
    ----------
    prim_signatures:
        Type schemes for :class:`~repro.core.ast.Prim` nodes — the
        builtin library plus anything registered dynamically
        (Section 4.1's ``RegisterCO``).
    macro_schemes:
        ``id(body) -> (body, scheme)`` for closed macro bodies whose
        scheme is already known; a node that *is* such a body is typed by
        instantiating the scheme.
    val_scheme:
        ``name -> scheme`` (or ``None``) of the top-level vals, which a
        resolved query reads as free variables.
    All three are used by reference, not copied.
    """

    def __init__(self,
                 prim_signatures: Optional[Mapping[str, TypeScheme]] = None,
                 macro_schemes: Optional[
                     Mapping[int, Tuple[ast.Expr, TypeScheme]]] = None,
                 val_scheme: Optional[
                     Callable[[str], Optional[TypeScheme]]] = None):
        self.prim_signatures: Mapping[str, TypeScheme] = \
            prim_signatures if prim_signatures is not None else {}
        self.macro_schemes = macro_schemes if macro_schemes is not None else {}
        self.val_scheme = val_scheme

    #: ``(node, type)`` for each node inferred, while :meth:`check` records
    _seen: Optional[list] = None

    def check(self, expr: ast.Expr, env: Optional[TypeEnv] = None,
              record: Optional[Dict[int, Optional[Type]]] = None) -> Type:
        """Infer and return the (zonked) type of ``expr``.

        ``record`` receives ``id(node) -> zonked type`` for every node
        the inference reaches; a node reached twice at different types
        (a shared subterm typed at two instances) maps to ``None``.
        Raises :class:`~repro.errors.TypeCheckError` on ill-typed input.
        """
        subst: Substitution = {}
        self._seen = [] if record is not None else None
        try:
            inferred = self._infer(expr, dict(env or {}), subst)
        except UnificationError as exc:
            raise TypeCheckError(str(exc)) from exc
        finally:
            seen, self._seen = self._seen, None
        for node, found in seen or ():
            found = zonk(found, subst)
            if record.setdefault(id(node), found) != found:
                record[id(node)] = None
        return zonk(inferred, subst)

    def check_scheme(self, expr: ast.Expr,
                     env: Optional[TypeEnv] = None) -> TypeScheme:
        """Infer and generalize — used when declaring macros."""
        subst: Substitution = {}
        try:
            inferred = self._infer(expr, dict(env or {}), subst)
        except UnificationError as exc:
            raise TypeCheckError(str(exc)) from exc
        return generalize(inferred, subst)

    # -- the rules ----------------------------------------------------------

    def _infer(self, expr: ast.Expr, env: TypeEnv, subst: Substitution) -> Type:
        macro = self.macro_schemes.get(id(expr))
        if macro is not None and macro[0] is expr:
            return instantiate(macro[1])
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise TypeCheckError(f"no typing rule for {type(expr).__name__}")
        found = method(self, expr, env, subst)
        if self._seen is not None:
            self._seen.append((expr, found))
        return found

    def _var(self, expr: ast.Var, env: TypeEnv, subst: Substitution) -> Type:
        scheme = env.get(expr.name)
        if scheme is None and self.val_scheme is not None:
            scheme = self.val_scheme(expr.name)
        if scheme is None:
            raise TypeCheckError(f"unbound variable {expr.name!r}")
        return instantiate(scheme)

    def _lam(self, expr: ast.Lam, env: TypeEnv, subst: Substitution) -> Type:
        param_type = fresh_tvar()
        inner = dict(env)
        inner[expr.param] = TypeScheme.mono(param_type)
        body_type = self._infer(expr.body, inner, subst)
        return TArrow(param_type, body_type)

    def _app(self, expr: ast.App, env: TypeEnv, subst: Substitution) -> Type:
        fn_type = self._infer(expr.fn, env, subst)
        arg_type = self._infer(expr.arg, env, subst)
        result = fresh_tvar()
        unify(fn_type, TArrow(arg_type, result), subst)
        return result

    def _tuple(self, expr: ast.TupleE, env: TypeEnv, subst: Substitution) -> Type:
        return TProduct(tuple(self._infer(i, env, subst) for i in expr.items))

    def _proj(self, expr: ast.Proj, env: TypeEnv, subst: Substitution) -> Type:
        target = self._infer(expr.expr, env, subst)
        slots = tuple(fresh_tvar() for _ in range(expr.arity))
        unify(target, TProduct(slots), subst)
        return slots[expr.index - 1]

    def _empty(self, expr: ast.Expr, env: TypeEnv,
               subst: Substitution) -> Type:
        return _COLLECTION[type(expr)](fresh_tvar())

    def _singleton(self, expr: ast.Expr, env: TypeEnv,
                   subst: Substitution) -> Type:
        return _COLLECTION[type(expr)](self._infer(expr.expr, env, subst))

    def _union(self, expr: ast.Expr, env: TypeEnv, subst: Substitution) -> Type:
        left = self._infer(expr.left, env, subst)
        right = self._infer(expr.right, env, subst)
        unify(left, _COLLECTION[type(expr)](fresh_tvar()), subst)
        unify(left, right, subst)
        return left

    def _loop(self, expr: ast.Expr, env: TypeEnv, subst: Substitution) -> Type:
        """⋃, ⊎, Σ and the ranked ⋃ and ⊎: the body, typed with the
        element bound (and a ranked loop's nat rank), is the loop's type;
        a Σ body is numeric, any other a collection of the source's kind."""
        kind = _COLLECTION[type(expr)]
        source = self._infer(expr.source, env, subst)
        elem = fresh_tvar()
        unify(source, kind(elem), subst)
        inner = dict(env)
        inner[expr.var] = TypeScheme.mono(elem)
        idx = getattr(expr, "idx", None)
        if idx is not None:
            inner[idx] = TypeScheme.mono(TNat())
        body = self._infer(expr.body, inner, subst)
        if isinstance(expr, ast.Sum):
            unify(body, fresh_tvar(NUMERIC), subst)
        else:
            unify(body, kind(fresh_tvar()), subst)
        return body

    def _bool(self, expr: ast.BoolLit, env: TypeEnv, subst: Substitution) -> Type:
        return TBool()

    def _if(self, expr: ast.If, env: TypeEnv, subst: Substitution) -> Type:
        cond = self._infer(expr.cond, env, subst)
        unify(cond, TBool(), subst)
        then = self._infer(expr.then, env, subst)
        orelse = self._infer(expr.orelse, env, subst)
        unify(then, orelse, subst)
        return then

    def _cmp(self, expr: ast.Cmp, env: TypeEnv, subst: Substitution) -> Type:
        left = self._infer(expr.left, env, subst)
        right = self._infer(expr.right, env, subst)
        unify(left, right, subst)
        resolved = zonk(left, subst)
        if isinstance(resolved, TArrow):
            raise TypeCheckError("cannot compare functions")
        return TBool()

    def _nat(self, expr: ast.NatLit, env: TypeEnv, subst: Substitution) -> Type:
        return TNat()

    def _real(self, expr: ast.RealLit, env: TypeEnv, subst: Substitution) -> Type:
        return TReal()

    def _str(self, expr: ast.StrLit, env: TypeEnv, subst: Substitution) -> Type:
        return TString()

    def _arith(self, expr: ast.Arith, env: TypeEnv, subst: Substitution) -> Type:
        left = self._infer(expr.left, env, subst)
        right = self._infer(expr.right, env, subst)
        if expr.op == "%":
            unify(left, TNat(), subst)
            unify(right, TNat(), subst)
            return TNat()
        numeric = fresh_tvar(NUMERIC)
        unify(left, numeric, subst)
        unify(right, numeric, subst)
        return numeric

    def _gen(self, expr: ast.Gen, env: TypeEnv, subst: Substitution) -> Type:
        unify(self._infer(expr.expr, env, subst), TNat(), subst)
        return TSet(TNat())

    def _tabulate(self, expr: ast.Tabulate, env: TypeEnv,
                  subst: Substitution) -> Type:
        for bound in expr.bounds:
            unify(self._infer(bound, env, subst), TNat(), subst)
        inner = dict(env)
        for var in expr.vars:
            inner[var] = TypeScheme.mono(TNat())
        body = self._infer(expr.body, inner, subst)
        return TArray(body, expr.rank)

    def _subscript(self, expr: ast.Subscript, env: TypeEnv,
                   subst: Substitution) -> Type:
        array = self._infer(expr.array, env, subst)
        elem = fresh_tvar()
        unify(array, TArray(elem, expr.rank), subst)
        for index in expr.indices:
            unify(self._infer(index, env, subst), TNat(), subst)
        return elem

    def _dim(self, expr: ast.Dim, env: TypeEnv, subst: Substitution) -> Type:
        array = self._infer(expr.expr, env, subst)
        unify(array, TArray(fresh_tvar(), expr.rank), subst)
        if expr.rank == 1:
            return TNat()
        return TProduct(tuple(TNat() for _ in range(expr.rank)))

    def _index(self, expr: ast.IndexSet, env: TypeEnv,
               subst: Substitution) -> Type:
        source = self._infer(expr.expr, env, subst)
        value = fresh_tvar()
        if expr.rank == 1:
            key: Type = TNat()
        else:
            key = TProduct(tuple(TNat() for _ in range(expr.rank)))
        unify(source, TSet(TProduct((key, value))), subst)
        return TArray(TSet(value), expr.rank)

    def _get(self, expr: ast.Get, env: TypeEnv, subst: Substitution) -> Type:
        source = self._infer(expr.expr, env, subst)
        elem = fresh_tvar()
        unify(source, TSet(elem), subst)
        return elem

    def _bottom(self, expr: ast.Bottom, env: TypeEnv,
                subst: Substitution) -> Type:
        return fresh_tvar()

    def _mk_array(self, expr: ast.MkArray, env: TypeEnv,
                  subst: Substitution) -> Type:
        for dim in expr.dims:
            unify(self._infer(dim, env, subst), TNat(), subst)
        elem = fresh_tvar()
        for item in expr.items:
            unify(self._infer(item, env, subst), elem, subst)
        return TArray(elem, expr.rank)

    def _prim(self, expr: ast.Prim, env: TypeEnv, subst: Substitution) -> Type:
        scheme = self.prim_signatures.get(expr.name)
        if scheme is None:
            raise TypeCheckError(f"unknown primitive {expr.name!r}")
        return instantiate(scheme)

    def _const(self, expr: ast.Const, env: TypeEnv,
               subst: Substitution) -> Type:
        return type_of_value(expr.value)

    _DISPATCH = {
        ast.Var: _var,
        ast.Lam: _lam,
        ast.App: _app,
        ast.TupleE: _tuple,
        ast.Proj: _proj,
        ast.EmptySet: _empty,
        ast.Singleton: _singleton,
        ast.Union: _union,
        ast.BoolLit: _bool,
        ast.If: _if,
        ast.Cmp: _cmp,
        ast.NatLit: _nat,
        ast.RealLit: _real,
        ast.StrLit: _str,
        ast.Arith: _arith,
        ast.Gen: _gen,
        ast.Tabulate: _tabulate,
        ast.Subscript: _subscript,
        ast.Dim: _dim,
        ast.IndexSet: _index,
        ast.Get: _get,
        ast.Bottom: _bottom,
        ast.MkArray: _mk_array,
        ast.Prim: _prim,
        ast.Const: _const,
        ast.EmptyBag: _empty,
        ast.SingletonBag: _singleton,
        ast.BagUnion: _union,
        **dict.fromkeys(ast.LOOP_NODES, _loop),
    }


def infer_type(expr: ast.Expr,
               env: Optional[TypeEnv] = None,
               prim_signatures: Optional[Mapping[str, TypeScheme]] = None) -> Type:
    """One-shot type inference with an ad-hoc checker."""
    return TypeChecker(prim_signatures).check(expr, env)


__all__ = ["TypeChecker", "TypeEnv", "infer_type"]
