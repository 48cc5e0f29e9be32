"""Executable compilation of NRCA into NRC^aggr(gen) — Theorem 6.1.

The nontrivial inclusion of Theorem 6.1 is NRCA ⊆ NRC^aggr(gen): every
array query can be rewritten to a query over complex objects with
aggregates and ``gen``.  This module implements that compilation
constructively: an array of type ``[[t]]_k`` is represented by its graph

    ``{(i, v)} : {N^k × τ(t)}``

and each array construct becomes a set expression:

* tabulation → a ⋃ over ``gen`` of the bounds, pairing indices with the
  translated body;
* subscripting → ``get`` of the matching graph entries (out-of-bounds
  yields ``get({})`` = ⊥, preserving partiality);
* ``dim`` → ``Σ``-count for rank 1, per-axis ``max + 1`` for rank k;
* ``index`` → group-by over the key set, tabulated over ``gen`` of the
  maxima;
* the ``MkArray`` literal → a union of indexed singletons (constant
  dimensions only — the only form the desugarer emits for literals).

Known deviations (documented in DESIGN.md): a k-dimensional array with
one zero dimension loses the other dimension lengths (its graph is
empty), and external primitives are passed through untranslated.
"""

from __future__ import annotations

from typing import Any, List

from repro.core import ast
from repro.errors import EvalError
from repro.objects.array import Array, iter_indices
from repro.types.types import (
    TArray,
    TNat,
    TProduct,
    TSet,
    Type,
)

# ---------------------------------------------------------------------------
# type translation
# ---------------------------------------------------------------------------

def translate_type(object_type: Type) -> Type:
    """τ: replace every array type by the type of its graph."""
    if isinstance(object_type, TArray):
        elem = translate_type(object_type.elem)
        if object_type.rank == 1:
            key: Type = TNat()
        else:
            key = TProduct(tuple(TNat() for _ in range(object_type.rank)))
        return TSet(TProduct((key, elem)))
    if isinstance(object_type, TProduct):
        return TProduct(tuple(translate_type(t) for t in object_type.items))
    if isinstance(object_type, TSet):
        return TSet(translate_type(object_type.elem))
    return object_type


# ---------------------------------------------------------------------------
# value conversion (for comparing semantics at the boundaries)
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Replace every array in a value by its graph (recursively)."""
    if isinstance(value, Array):
        if value.rank == 1:
            return frozenset(
                (position, encode_value(item))
                for position, item in enumerate(value.flat)
            )
        return frozenset(
            (index, encode_value(item))
            for index, item in zip(value.indices(), value.flat)
        )
    if isinstance(value, tuple):
        return tuple(encode_value(item) for item in value)
    if isinstance(value, frozenset):
        return frozenset(encode_value(item) for item in value)
    return value


def decode_value(value: Any, object_type: Type) -> Any:
    """Type-directed inverse of :func:`encode_value`."""
    if isinstance(object_type, TArray):
        rank = object_type.rank
        keyed = {}
        maxima = [0] * rank
        for index, item in value:
            key = (index,) if rank == 1 else index
            keyed[key] = decode_value(item, object_type.elem)
            for axis, position in enumerate(key):
                maxima[axis] = max(maxima[axis], position)
        if not keyed:
            return Array((0,) * rank, [])
        dims = [m + 1 for m in maxima]
        try:
            flat = [keyed[index] for index in iter_indices(dims)]
        except KeyError as exc:
            raise EvalError(f"graph has holes: {exc}") from exc
        return Array(dims, flat)
    if isinstance(object_type, TProduct):
        return tuple(
            decode_value(item, item_type)
            for item, item_type in zip(value, object_type.items)
        )
    if isinstance(object_type, TSet):
        return frozenset(
            decode_value(item, object_type.elem) for item in value
        )
    return value


# ---------------------------------------------------------------------------
# expression translation
# ---------------------------------------------------------------------------

def _count(source: ast.Expr) -> ast.Expr:
    x = ast.fresh_var("c")
    return ast.Sum(x, ast.NatLit(1), source)


def _max(source: ast.Expr) -> ast.Expr:
    """``max(X) = get({y | y ∈ X, Σ{ if y ≥ x then 0 else 1 | x ∈ X } = 0})``
    — Section 2's derivation, which needs no ``max`` primitive."""
    y = ast.fresh_var("y")
    x = ast.fresh_var("x")
    losses = ast.Sum(x, ast.If(ast.Cmp(">=", ast.Var(y), ast.Var(x)),
                               ast.NatLit(0), ast.NatLit(1)), source)
    top = ast.If(ast.Cmp("=", losses, ast.NatLit(0)),
                 ast.Singleton(ast.Var(y)), ast.EmptySet())
    return ast.Get(ast.Ext(y, top, source))


def _axis_keys(graph: ast.Expr, axis: int, rank: int) -> ast.Expr:
    """The set of axis-``axis`` key components of a graph."""
    p = ast.fresh_var("p")
    key = ast.Proj(1, 2, ast.Var(p))
    component = key if rank == 1 else ast.Proj(axis, rank, key)
    return ast.Ext(p, ast.Singleton(component), graph)


def _axis_size(graph: ast.Expr, axis: int, rank: int) -> ast.Expr:
    """``if count(g) = 0 then 0 else max(axis keys) + 1``."""
    return ast.If(
        ast.Cmp("=", _count(graph), ast.NatLit(0)),
        ast.NatLit(0),
        ast.Arith("+", _max(_axis_keys(graph, axis, rank)), ast.NatLit(1)),
    )


def _lookup(graph: ast.Expr, key: ast.Expr) -> ast.Expr:
    """``get({v | (k, v) ∈ g, k = key})`` — subscripting on graphs."""
    p = ast.fresh_var("p")
    return ast.Get(ast.Ext(
        p,
        ast.If(
            ast.Cmp("=", ast.Proj(1, 2, ast.Var(p)), key),
            ast.Singleton(ast.Proj(2, 2, ast.Var(p))),
            ast.EmptySet(),
        ),
        graph,
    ))


def _group(graph: ast.Expr, key: ast.Expr) -> ast.Expr:
    """``{v | (k, v) ∈ g, k = key}`` — the group-by used by index_k."""
    p = ast.fresh_var("p")
    return ast.Ext(
        p,
        ast.If(
            ast.Cmp("=", ast.Proj(1, 2, ast.Var(p)), key),
            ast.Singleton(ast.Proj(2, 2, ast.Var(p))),
            ast.EmptySet(),
        ),
        graph,
    )


def _nest_gens(index_vars: List[str], bounds: List[ast.Expr],
               body: ast.Expr) -> ast.Expr:
    """``⋃{...⋃{body | i_k ∈ gen(b_k)}... | i_1 ∈ gen(b_1)}``."""
    result = body
    for var, bound in zip(reversed(index_vars), reversed(bounds)):
        result = ast.Ext(var, result, ast.Gen(bound))
    return result


def _key_expr(index_vars: List[str]) -> ast.Expr:
    if len(index_vars) == 1:
        return ast.Var(index_vars[0])
    return ast.TupleE(tuple(ast.Var(v) for v in index_vars))


def eliminate_arrays(expr: ast.Expr) -> ast.Expr:
    """Compile an NRCA expression into NRC^aggr(gen).

    Free variables of array type must be supplied in graph form
    (:func:`encode_value`); results that are arrays come back in graph
    form (:func:`decode_value`).
    """
    if isinstance(expr, ast.Tabulate):
        body = eliminate_arrays(expr.body)
        bounds = [eliminate_arrays(b) for b in expr.bounds]
        index_vars = list(expr.vars)
        pair = ast.Singleton(ast.TupleE((_key_expr(index_vars), body)))
        return _nest_gens(index_vars, bounds, pair)
    if isinstance(expr, ast.Subscript):
        graph = eliminate_arrays(expr.array)
        indices = [eliminate_arrays(i) for i in expr.indices]
        key = indices[0] if len(indices) == 1 else ast.TupleE(tuple(indices))
        return _lookup(graph, key)
    if isinstance(expr, ast.Dim):
        graph = eliminate_arrays(expr.expr)
        if expr.rank == 1:
            return _count(graph)
        return ast.TupleE(tuple(
            _axis_size(graph, axis, expr.rank)
            for axis in range(1, expr.rank + 1)
        ))
    if isinstance(expr, ast.IndexSet):
        source = eliminate_arrays(expr.expr)
        # bind the source once: (λ s. body)(source)
        s = ast.fresh_var("s")
        rank = expr.rank
        index_vars = [ast.fresh_var("i") for _ in range(rank)]
        bounds = [
            _axis_size_keys(ast.Var(s), axis, rank)
            for axis in range(1, rank + 1)
        ]
        key = _key_expr(index_vars)
        pair = ast.Singleton(ast.TupleE((key, _group(ast.Var(s), key))))
        body = _nest_gens(index_vars, bounds, pair)
        return ast.App(ast.Lam(s, body), source)
    if isinstance(expr, ast.MkArray):
        items = [eliminate_arrays(item) for item in expr.items]
        dims: List[int] = []
        for dim in expr.dims:
            if not isinstance(dim, ast.NatLit):
                raise EvalError(
                    "array elimination requires constant MkArray dims"
                )
            dims.append(dim.value)
        expected = 1
        for d in dims:
            expected *= d
        if expected != len(items):
            return ast.Bottom()
        result: ast.Expr = ast.EmptySet()
        for index, item in zip(iter_indices(dims), items):
            key: ast.Expr = (ast.NatLit(index[0]) if len(dims) == 1
                             else ast.TupleE(tuple(
                                 ast.NatLit(i) for i in index)))
            singleton = ast.Singleton(ast.TupleE((key, item)))
            result = singleton if isinstance(result, ast.EmptySet) \
                else ast.Union(result, singleton)
        return result
    if isinstance(expr, ast.Const):
        return ast.Const(encode_value(expr.value))
    new_children = [eliminate_arrays(child) for child, _ in expr.parts()]
    return expr.with_parts(new_children)


def _axis_size_keys(pairs: ast.Expr, axis: int, rank: int) -> ast.Expr:
    """Axis size for an *indexed set* ``{N^k × t}`` (keys are the first
    components directly, not graph keys of a graph)."""
    p = ast.fresh_var("p")
    key = ast.Proj(1, 2, ast.Var(p))
    component = key if rank == 1 else ast.Proj(axis, rank, key)
    keys = ast.Ext(p, ast.Singleton(component), pairs)
    return ast.If(
        ast.Cmp("=", _count(pairs), ast.NatLit(0)),
        ast.NatLit(0),
        ast.Arith("+", _max(keys), ast.NatLit(1)),
    )


__all__ = [
    "translate_type", "encode_value", "decode_value", "eliminate_arrays",
]
