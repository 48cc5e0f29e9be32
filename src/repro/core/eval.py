"""The reference semantics of NRCA: one naive rule per construct.

Queries are *executed* by the code generator (:mod:`repro.core.compile`);
this tree-walker is the oracle the test suite compares it against.  It
makes no physical choice — no kernels, shards, hash joins, dispatch
config or probes — so a rule here is the definition that every fast
path has to reproduce.  Semantics follow Section 2 exactly:

* sets are genuine sets (``⋃`` deduplicates; ``Σ`` sums over *distinct*
  elements, in canonical order);
* ``gen(n) = {0, ..., n-1}``;
* tabulation *materializes*: the defining function is applied at every
  index of the rectangular domain;
* subscripting out of bounds, ``get`` of a non-singleton, the ``Bottom``
  construct, division by zero, and a ``MkArray`` whose value count does
  not match its dimensions are all *undefined*: they raise
  :class:`~repro.errors.BottomError`, which propagates strictly.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Any, Dict, Mapping, Optional

from repro.core import ast
from repro.errors import BottomError, EvalError
from repro.objects.array import Array, index_set, iter_indices
from repro.objects.bag import Bag
from repro.objects.ordering import (
    canonical_elements,
    compare_values,
    rank_elements,
    sort_values,
)
from repro.objects.values import apply_arith, value_equal

_ORDER_TESTS = {"<": operator.lt, "<=": operator.le,
                ">": operator.gt, ">=": operator.ge}


def _is_natural(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


class Evaluator:
    """Interprets NRCA expressions against a primitive registry.

    Environments are dicts copied at every binder and function values
    are host closures: the obvious representations, not fast ones.
    """

    def __init__(self, prims: Optional[Mapping[str, Any]] = None):
        self.prims = prims if prims is not None else {}

    def run(self, expr: ast.Expr,
            bindings: Optional[Mapping[str, Any]] = None) -> Any:
        """Evaluate ``expr`` with optional top-level value bindings.

        Host-level failures are mapped at this boundary exactly as the
        production engine maps them: a stray ``ValueError`` from
        complex-object code becomes ⊥ and host stack exhaustion becomes
        :class:`~repro.errors.EvalError`.
        """
        try:
            return self._eval(expr, dict(bindings or {}))
        except RecursionError:
            raise EvalError(
                "expression nesting exceeds the evaluator depth limit"
            ) from None
        except ValueError as exc:
            raise BottomError(f"host value error: {exc}") from exc

    def apply_function(self, fn_value: Any, argument: Any) -> Any:
        """Apply an AQL function value to an argument; a ⊥-mapping
        boundary like :meth:`run`, because primitives call it without
        passing through there."""
        if not callable(fn_value):
            raise EvalError(f"not a function: {fn_value!r}")
        try:
            return fn_value(argument)
        except ValueError as exc:
            raise BottomError(f"host value error: {exc}") from exc

    def _eval(self, expr: ast.Expr, env: Dict[str, Any]) -> Any:
        strict = self._STRICT.get(type(expr))
        if strict is not None:
            return strict(expr, *[self._eval(child, env)
                                  for child in expr.children()])
        rule = self._BINDING.get(type(expr))
        if rule is None:
            raise EvalError(f"no evaluation rule for {type(expr).__name__}")
        return rule(self, expr, env)

    # -- strict constructs: a function of the construct and its children's
    # -- values, which _eval computes left to right in the current env

    def _proj(expr: ast.Proj, value):
        if not isinstance(value, tuple) or len(value) != expr.arity:
            raise EvalError(f"π applied to {value!r}")
        return value[expr.index - 1]

    def _cmp(expr: ast.Cmp, left, right):
        if expr.op in ("=", "<>"):
            return value_equal(left, right) == (expr.op == "=")
        return _ORDER_TESTS[expr.op](compare_values(left, right), 0)

    def _gen(expr: ast.Gen, bound):
        if not _is_natural(bound):
            raise BottomError(f"gen of non-natural {bound!r}")
        return frozenset(range(bound))

    def _subscript(expr: ast.Subscript, array, *index):
        if not isinstance(array, Array):
            raise EvalError(f"subscript into non-array {array!r}")
        return array[index]  # Array raises BottomError when out of bounds

    def _dim(expr: ast.Dim, array):
        if not isinstance(array, Array) or array.rank != expr.rank:
            raise BottomError(f"dim_{expr.rank} of {array!r}")
        return array.dims[0] if expr.rank == 1 else array.dims

    def _get(expr: ast.Get, source):
        if not isinstance(source, frozenset) or len(source) != 1:
            raise BottomError(f"get of non-singleton ({len(source)} elements)")
        (element,) = source
        return element

    _STRICT = {
        **dict.fromkeys((ast.BoolLit, ast.NatLit, ast.RealLit, ast.StrLit,
                         ast.Const), lambda expr: expr.value),
        ast.TupleE: lambda expr, *items: items,
        ast.Proj: _proj,
        ast.EmptySet: lambda expr: frozenset(),
        ast.Singleton: lambda expr, value: frozenset((value,)),
        ast.Union: lambda expr, left, right: left | right,
        ast.Cmp: _cmp,
        ast.Arith: lambda expr, left, right: apply_arith(expr.op, left, right),
        ast.Gen: _gen,
        ast.Subscript: _subscript,
        ast.Dim: _dim,
        ast.IndexSet: lambda expr, pairs: index_set(pairs, expr.rank),
        ast.Get: _get,
        ast.EmptyBag: lambda expr: Bag(),
        ast.SingletonBag: lambda expr, value: Bag((value,)),
        ast.BagUnion: lambda expr, left, right: left.union(right),
    }

    # -- constructs that bind variables or choose what to evaluate ------------

    def _var(self, expr: ast.Var, env):
        if expr.name not in env:
            raise EvalError(
                f"unbound variable {expr.name!r} at evaluation time")
        return env[expr.name]

    def _lam(self, expr: ast.Lam, env):
        return lambda argument: self._eval(expr.body,
                                           {**env, expr.param: argument})

    def _app(self, expr: ast.App, env):
        fn_value = self._eval(expr.fn, env)
        return self.apply_function(fn_value, self._eval(expr.arg, env))

    def _if(self, expr: ast.If, env):
        branch = expr.then if self._eval(expr.cond, env) else expr.orelse
        return self._eval(branch, env)

    def _bottom(self, expr: ast.Bottom, env):
        raise BottomError("explicit bottom")

    def _prim(self, expr: ast.Prim, env):
        if expr.name not in self.prims:
            raise EvalError(f"unknown primitive {expr.name!r}")
        native = self.prims[expr.name]
        return lambda argument: native(argument, self)

    def _naturals(self, exprs, env, what: str) -> list:
        values = []
        for expr in exprs:
            value = self._eval(expr, env)
            if not _is_natural(value):
                raise BottomError(f"{what} {value!r} is not natural")
            values.append(value)
        return values

    def _mk_array(self, expr: ast.MkArray, env):
        dims = self._naturals(expr.dims, env, "array dimension")
        if reduce(operator.mul, dims, 1) != len(expr.items):
            raise BottomError(
                f"array literal has {len(expr.items)} values for dims {dims}")
        return Array(dims, [self._eval(item, env) for item in expr.items])

    def _bodies(self, expr, env, names, rows) -> list:
        """The body's value under each row of bindings for ``names``: what
        every comprehension-like construct combines."""
        return [self._eval(expr.body, {**env, **dict(zip(names, row))})
                for row in rows]

    def _tabulate(self, expr: ast.Tabulate, env):
        bounds = self._naturals(expr.bounds, env, "tabulation bound")
        return Array(bounds, self._bodies(expr, env, expr.vars,
                                          iter_indices(bounds)))

    def _sum(self, expr: ast.Sum, env):
        # canonical order, NOT frozenset hash order: float addition is
        # non-associative, so a hash-ordered Σ over reals would differ
        # between runs and platforms
        rows = [(x,) for x in canonical_elements(self._eval(expr.source, env))]
        return reduce(operator.add,
                      self._bodies(expr, env, (expr.var,), rows), 0)

    def _ext(self, expr: ast.Ext, env):
        rows = [(x,) for x in self._eval(expr.source, env)]
        return frozenset().union(*self._bodies(expr, env, (expr.var,), rows))

    def _bag_ext(self, expr: ast.BagExt, env):
        rows = [(x,) for x in self._eval(expr.source, env)]  # with multiplicity
        return reduce(Bag.union,
                      self._bodies(expr, env, (expr.var,), rows), Bag())

    def _ext_rank(self, expr: ast.ExtRank, env):
        rows = rank_elements(self._eval(expr.source, env))
        return frozenset().union(
            *self._bodies(expr, env, (expr.var, expr.idx), rows))

    def _bag_ext_rank(self, expr: ast.BagExtRank, env):
        # equal values get consecutive ranks, per Section 6
        ordered = sort_values(self._eval(expr.source, env))
        rows = [(x, rank) for rank, x in enumerate(ordered, start=1)]
        return reduce(Bag.union, self._bodies(
            expr, env, (expr.var, expr.idx), rows), Bag())

    _BINDING = {
        ast.Var: _var, ast.Lam: _lam, ast.App: _app, ast.If: _if,
        ast.Bottom: _bottom, ast.Prim: _prim, ast.MkArray: _mk_array,
        ast.Tabulate: _tabulate, ast.Sum: _sum, ast.Ext: _ext,
        ast.BagExt: _bag_ext, ast.ExtRank: _ext_rank,
        ast.BagExtRank: _bag_ext_rank,
    }


def evaluate(expr: ast.Expr, bindings: Optional[Mapping[str, Any]] = None,
             prims: Optional[Mapping[str, Any]] = None) -> Any:
    """One-shot evaluation with the reference evaluator."""
    return Evaluator(prims).run(expr, bindings)


__all__ = ["Evaluator", "evaluate"]
