"""The three array rules of Section 5: β^p, η^p, δ^p.

"Since the syntax for arrays was inspired by viewing them as functions,
it is not surprising that the rules for arrays are also based on this
view of arrays as (partial) functions":

* β^p — partial β:
  ``[[e1 | i < e2]][e3] ⇝ if e3 < e2 then e1{i := e3} else ⊥``
  (saves materializing the tabulated array);
* η^p — partial η:
  ``[[e[i] | i < len(e)]] ⇝ e``
  (saves re-tabulating an existing array);
* δ^p — domain extraction:
  ``len([[e1 | i < e2]]) ⇝ e2``
  (sound only if ``e1`` is error-free).

All three generalize to k dimensions, plus the analogous folds for the
efficient ``MkArray`` literal.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import ast
from repro.optimizer.analysis import is_error_free
from repro.optimizer.engine import Rule


def make_beta_p(assume_error_free: bool):
    """β^p, k-dimensional: subscripting a tabulation becomes bound checks
    around the substituted body.

    Strictness guard: the original materializes *every* cell, the
    rewrite evaluates the body at one index — a ⊥ raised by some other
    cell would be erased, so the strict pipeline requires the body
    error-free.  (The bound checks are preserved either way.)
    """

    def _beta_p(expr: ast.Expr) -> Optional[ast.Expr]:
        if not (isinstance(expr, ast.Subscript)
                and isinstance(expr.array, ast.Tabulate)):
            return None
        tab = expr.array
        if len(expr.indices) != tab.rank:
            return None
        if not (assume_error_free or is_error_free(tab.body)):
            return None
        mapping = dict(zip(tab.vars, expr.indices))
        result: ast.Expr = ast.substitute(tab.body, mapping)
        # innermost check is for the last dimension, matching the paper's
        # left-to-right check order after nesting
        for index, bound in zip(reversed(expr.indices),
                                reversed(tab.bounds)):
            result = ast.If(ast.Cmp("<", index, bound), result,
                            ast.Bottom("index out of bounds"))
        return result

    return _beta_p


def _eta_p(expr: ast.Expr) -> Optional[ast.Expr]:
    """η^p, k-dimensional: a tabulation that reproduces an array is that
    array.

    Matches ``[[ A[i1,...,ik] | i1 < dim_1 A, ..., ik < dim_k A ]] ⇝ A``
    where A does not mention the index variables.
    """
    if not (isinstance(expr, ast.Tabulate)
            and isinstance(expr.body, ast.Subscript)):
        return None
    array = expr.body.array
    rank = expr.rank
    indices = expr.body.indices
    if len(indices) != rank:
        return None
    for position, index in enumerate(indices):
        if not (isinstance(index, ast.Var)
                and index.name == expr.vars[position]):
            return None
    array_fvs = ast.free_vars(array)
    if any(var in array_fvs for var in expr.vars):
        return None
    for axis, bound in enumerate(expr.bounds, start=1):
        if rank == 1:
            expected: ast.Expr = ast.Dim(array, 1)
        else:
            expected = ast.Proj(axis, rank, ast.Dim(array, rank))
        if bound != expected:
            return None
    return array


def make_delta_p(assume_error_free: bool):
    """δ^p, k-dimensional: the dims of a tabulation are its bounds.

    Sound only if the tabulation body is error-free (Section 5) —
    otherwise the tabulation itself would have raised ⊥.  When
    ``assume_error_free`` the guard is waived, which is how the paper's
    own derivations apply the rule ("the constraint checks introduced by
    the β^p rule will be redundant as long as no bounds errors were
    present in the original code").
    """

    def _delta_p(expr: ast.Expr) -> Optional[ast.Expr]:
        if not (isinstance(expr, ast.Dim)
                and isinstance(expr.expr, ast.Tabulate)):
            return None
        tab = expr.expr
        if expr.rank != tab.rank:
            return None
        if not assume_error_free and not is_error_free(tab.body):
            return None
        if tab.rank == 1:
            return tab.bounds[0]
        return ast.TupleE(tab.bounds)

    return _delta_p


def make_dim_mkarray(assume_error_free: bool):
    """``dim`` of a literal array with constant, consistent dims folds.

    Strictness guard: the original materializes the items before taking
    ``dim``, so the strict pipeline requires them error-free — folding
    away an item that raises ⊥ would erase the error.
    """

    def _dim_mkarray(expr: ast.Expr) -> Optional[ast.Expr]:
        if not (isinstance(expr, ast.Dim)
                and isinstance(expr.expr, ast.MkArray)):
            return None
        literal = expr.expr
        if expr.rank != literal.rank:
            return None
        expected = 1
        for dim in literal.dims:
            if not isinstance(dim, ast.NatLit):
                return None
            expected *= dim.value
        if expected != len(literal.items):
            return None  # the literal is ⊥; leave it for evaluation
        if not (assume_error_free
                or all(is_error_free(item) for item in literal.items)):
            return None
        if expr.rank == 1:
            return literal.dims[0]
        return ast.TupleE(literal.dims)

    return _dim_mkarray


def make_subscript_mkarray(assume_error_free: bool):
    """Constant subscript into a constant-dims literal folds to the item.

    Strictness guard: the original materializes every item before
    subscripting, the fold keeps only the selected one — the strict
    pipeline requires the discarded items error-free.
    """

    def _subscript_mkarray(expr: ast.Expr) -> Optional[ast.Expr]:
        if not (isinstance(expr, ast.Subscript)
                and isinstance(expr.array, ast.MkArray)):
            return None
        literal = expr.array
        if len(expr.indices) != literal.rank:
            return None
        dims: List[int] = []
        for dim in literal.dims:
            if not isinstance(dim, ast.NatLit):
                return None
            dims.append(dim.value)
        expected = 1
        for d in dims:
            expected *= d
        if expected != len(literal.items):
            return None
        offsets: List[int] = []
        for index in expr.indices:
            if not isinstance(index, ast.NatLit):
                return None
            offsets.append(index.value)
        if any(o >= d for o, d in zip(offsets, dims)):
            if assume_error_free \
                    or all(is_error_free(item) for item in literal.items):
                return ast.Bottom("index out of bounds")
            return None
        flat = 0
        for offset, dim in zip(offsets, dims):
            flat = flat * dim + offset
        if not (assume_error_free
                or all(is_error_free(item)
                       for pos, item in enumerate(literal.items)
                       if pos != flat)):
            return None
        return literal.items[flat]

    return _subscript_mkarray


def _subscript_if_array(expr: ast.Expr) -> Optional[ast.Expr]:
    """Push subscripting into a conditional array:
    ``(if c then A else B)[i] ⇝ if c then A[i] else B[i]``.

    Lets β^p reach tabulations guarded by conformance checks (e.g. the
    matrix ``multiply`` of Section 2).
    """
    if not (isinstance(expr, ast.Subscript)
            and isinstance(expr.array, ast.If)):
        return None
    cond = expr.array
    return ast.If(
        cond.cond,
        ast.Subscript(cond.then, expr.indices),
        ast.Subscript(cond.orelse, expr.indices),
    )


def _dim_if_array(expr: ast.Expr) -> Optional[ast.Expr]:
    """``dim(if c then A else B) ⇝ if c then dim A else dim B`` — the
    dim companion of ``subscript-if``."""
    if not (isinstance(expr, ast.Dim) and isinstance(expr.expr, ast.If)):
        return None
    cond = expr.expr
    return ast.If(
        cond.cond,
        ast.Dim(cond.then, expr.rank),
        ast.Dim(cond.orelse, expr.rank),
    )


def array_rules(assume_error_free: bool = False) -> List[Rule]:
    """The array rule base: β^p, η^p, δ^p and literal folds."""
    return [
        Rule("beta-p", make_beta_p(assume_error_free),
             "[[e1|i<e2]][e3] ⇝ if e3<e2 then e1{i:=e3} else ⊥",
             roots=(ast.Subscript,)),
        Rule("eta-p", _eta_p, "[[e[i]|i<len e]] ⇝ e",
             roots=(ast.Tabulate,)),
        Rule("delta-p", make_delta_p(assume_error_free),
             "dim([[e1|i<e2]]) ⇝ e2 (e1 error-free)",
             roots=(ast.Dim,)),
        Rule("dim-mkarray", make_dim_mkarray(assume_error_free),
             "dim of constant literal folds",
             roots=(ast.Dim,)),
        Rule("subscript-mkarray", make_subscript_mkarray(assume_error_free),
             "constant subscript of literal folds",
             roots=(ast.Subscript,)),
        Rule("subscript-if", _subscript_if_array,
             "(if c then A else B)[i] distributes",
             roots=(ast.Subscript,)),
        Rule("dim-if", _dim_if_array, "dim(if c then A else B) distributes",
             roots=(ast.Dim,)),
    ]


__all__ = ["array_rules"]
