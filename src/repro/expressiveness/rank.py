"""Ranking: the ⋃_r construct of Theorem 6.2.

Section 6 characterizes the gain in expressiveness from arrays as
"adding ranks uniformly across sets and bags": the construct

    ``⋃_r{ e1 | x_i ∈ e2 }``

enumerates ``e2`` in the canonical order ``x_1 <_s ... <_s x_n`` and
evaluates ``e1`` with both the element and its 1-based rank in scope.

The runtime construct lives in the core AST (:class:`~repro.core.ast.
ExtRank`); this module supplies

* :func:`rank_expr` — the paper's example
  ``rank(X) = ⋃_r{{(x, i)} | x_i ∈ X}``;
* :func:`eliminate_rank` — an executable proof of the inclusion
  NRC_r ⊆ NRCA: every ⋃_r is replaced by an ordinary ⋃ whose body
  computes the rank arithmetically, ``rank(x) = Σ{ y ≤ x | y ∈ X }``
  (count of elements not above ``x`` — exactly the canonical position
  since sets have no duplicates);
* array/ranked-set conversions used by the Theorem 6.2 demonstrations.
"""

from __future__ import annotations

from repro.core import ast


def rank_expr(source: ast.Expr) -> ast.Expr:
    """``rank(X) = ⋃_r{{(x, i)} | x_i ∈ X} : {s} -> {s × N}``."""
    x = ast.fresh_var("x")
    i = ast.fresh_var("i")
    return ast.ExtRank(
        x, i, ast.Singleton(ast.TupleE((ast.Var(x), ast.Var(i)))), source
    )


def rank_of(element: ast.Expr, source: ast.Expr) -> ast.Expr:
    """``Σ{ if y <= element then 1 else 0 | y ∈ source }`` — the 1-based
    rank of ``element`` within ``source`` under the canonical order."""
    y = ast.fresh_var("y")
    return ast.Sum(
        y,
        ast.If(ast.Cmp("<=", ast.Var(y), element),
               ast.NatLit(1), ast.NatLit(0)),
        source,
    )


def eliminate_rank(expr: ast.Expr) -> ast.Expr:
    """Compile ⋃_r away: NRC_r → NRC^aggr (⊆ NRCA).

    ``⋃_r{e | x_i ∈ S}`` becomes
    ``(λ s. ⋃{ e{i := rank_of(x, s)} | x ∈ s })(S)`` — the source is
    bound once so the rank computation sees the same set.
    """
    if isinstance(expr, ast.ExtRank):
        source = eliminate_rank(expr.source)
        body = eliminate_rank(expr.body)
        s = ast.fresh_var("s")
        inner_body = ast.substitute(
            body, {expr.idx: rank_of(ast.Var(expr.var), ast.Var(s))}
        )
        loop = ast.Ext(expr.var, inner_body, ast.Var(s))
        return ast.App(ast.Lam(s, loop), source)
    new_children = [eliminate_rank(child) for child, _ in expr.parts()]
    return expr.with_parts(new_children)


# ---------------------------------------------------------------------------
# arrays ↔ ranked sets (the Theorem 6.2 demonstrations)
# ---------------------------------------------------------------------------

def array_to_ranked_graph(array_expr: ast.Expr) -> ast.Expr:
    """``{(i, A[i]) | i ∈ dom A}`` — an array as an index-ranked set.

    This is the NRCA side of the correspondence: the graph *is* a ranked
    collection (ranks are the indices shifted by one).
    """
    i = ast.fresh_var("i")
    pair = ast.TupleE((ast.Var(i), ast.Subscript(array_expr, (ast.Var(i),))))
    return ast.Ext(i, ast.Singleton(pair), ast.Gen(ast.Dim(array_expr, 1)))


def set_to_array_by_rank(source: ast.Expr) -> ast.Expr:
    """Order a set into an array using ranks — expressible in NRCA as
    ``index`` of the rank pairs, then ``get`` of each singleton group.

    ``[[ get(G[i]) | i < len G ]]`` where
    ``G = index({(rank(x)-1, x) | x ∈ S})``.
    """
    s = ast.fresh_var("s")
    x = ast.fresh_var("x")
    pairs = ast.Ext(
        x,
        ast.Singleton(ast.TupleE((
            ast.Arith("-", rank_of(ast.Var(x), ast.Var(s)), ast.NatLit(1)),
            ast.Var(x),
        ))),
        ast.Var(s),
    )
    grouped = ast.IndexSet(pairs, 1)
    g = ast.fresh_var("g")
    i = ast.fresh_var("i")
    tabulated = ast.Tabulate(
        (i,), (ast.Dim(ast.Var(g), 1),),
        ast.Get(ast.Subscript(ast.Var(g), (ast.Var(i),))),
    )
    return ast.App(
        ast.Lam(s, ast.App(ast.Lam(g, tabulated), grouped)), source
    )


__all__ = [
    "rank_expr", "rank_of", "eliminate_rank",
    "array_to_ranked_graph", "set_to_array_by_rank",
]
