"""The NRC equational rules (Section 5, via [7, 34]).

These are the set/tuple/conditional rules the AQL optimizer inherits from
the nested relational calculus: β for functions, π for products, vertical
and horizontal fusion of set loops, filter promotion, and conditional
simplification.

Each comprehension law is written once, over :data:`COMPREHENSIONS` —
⋃ over sets, ⊎ over bags (the Section 6 calculus shares the engine) and
Σ over sets into the naturals — and one commuting conversion,
:func:`through_if`, pushes a loop, a subscript or a ``dim`` through a
conditional; the named rules are their instances, as in the one rewrite
system Ricciotti & Cheney give set and bag comprehensions alike.

A note on errors: like the paper's derivations (which freely apply β and
π in the presence of ⊥-producing subexpressions), these rules treat the
equations as the calculus's equational theory.  In the strictly-sound
pipeline a rule that would skip a computation the original always
evaluates asks :func:`~repro.optimizer.analysis.substituted` (β and the
singleton-source rules) or :func:`~repro.optimizer.analysis.discardable`
(every other one) first.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core import ast
from repro.objects.ordering import COMPARISONS
from repro.optimizer.analysis import discardable, substituted
from repro.optimizer.engine import Rule

_LITERALS = (ast.NatLit, ast.RealLit, ast.StrLit, ast.BoolLit)

#: per comprehension: the empty, singleton and union constructs of its
#: source, and its value over an empty source (built fresh per use).  Σ
#: has no union: ∪ deduplicates, so Σ does not distribute over it.
COMPREHENSIONS = {
    ast.Ext: (ast.EmptySet, ast.Singleton, ast.Union, ast.EmptySet),
    ast.BagExt: (ast.EmptyBag, ast.SingletonBag, ast.BagUnion,
                 ast.EmptyBag),
    ast.Sum: (ast.EmptySet, ast.Singleton, None, lambda: ast.NatLit(0)),
}


def make_beta(assume_error_free: bool):
    """``(λx.e1)(e2) ⇝ e1{x := e2}``, under both guards of
    :func:`~repro.optimizer.analysis.substituted` (application is
    call-by-value, so the original always evaluates ``e2``)."""

    def _beta(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.App) and isinstance(expr.fn, ast.Lam):
            return substituted(assume_error_free, expr.fn.body,
                               expr.fn.param, expr.arg)
        return None

    return _beta


def make_proj_tuple(assume_error_free: bool):
    """``π_i(e1, ..., ek) ⇝ e_i`` (the π rule used in Section 5).  The
    original evaluates every component, the rewrite only ``e_i``: the
    others must be discardable."""

    def _proj_tuple(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Proj) and isinstance(expr.expr, ast.TupleE):
            items = expr.expr.items
            if len(items) == expr.arity and discardable(
                    assume_error_free,
                    (item for pos, item in enumerate(items)
                     if pos != expr.index - 1)):
                return items[expr.index - 1]
        return None

    return _proj_tuple


def empty_source(loop: type):
    """``⋃{e | x ∈ {}} ⇝ {}``, ``⊎`` alike; a Σ over ``{}`` is 0."""
    empty, _, _, zero = COMPREHENSIONS[loop]

    def _empty_source(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, loop) and isinstance(expr.source, empty):
            return zero()
        return None

    return _empty_source


def empty_body(loop: type, assume_error_free: bool):
    """``⋃{{} | x ∈ e} ⇝ {}`` and ``Σ{0 | x ∈ e} ⇝ 0`` (``e``
    discardable)."""
    zero = COMPREHENSIONS[loop][3]

    def _empty_body(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, loop) and expr.body == zero() \
                and discardable(assume_error_free, (expr.source,)):
            return zero()
        return None

    return _empty_body


def singleton_source(loop: type, assume_error_free: bool):
    """``⋃{e1 | x ∈ {e2}} ⇝ e1{x := e2}``, ⊎ and Σ alike, guarded as β
    is (the source ``{e2}`` is built before the loop runs)."""
    singleton = COMPREHENSIONS[loop][1]

    def _singleton_source(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, loop) and isinstance(expr.source, singleton):
            return substituted(assume_error_free, expr.body, expr.var,
                               expr.source.expr)
        return None

    return _singleton_source


def union_source(loop: type):
    """``⋃{e | x ∈ e1 ∪ e2} ⇝ ⋃{e | x ∈ e1} ∪ ⋃{e | x ∈ e2}``, ⊎
    alike."""
    union = COMPREHENSIONS[loop][2]

    def _union_source(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, loop) and isinstance(expr.source, union):
            return union(loop(expr.var, expr.body, expr.source.left),
                         loop(expr.var, expr.body, expr.source.right))
        return None

    return _union_source


def union_unit(loop: type):
    """``{} ∪ e ⇝ e`` and ``e ∪ {} ⇝ e`` for the union of ``loop``'s
    sources, ⊎ alike."""
    empty, _, union, _ = COMPREHENSIONS[loop]

    def _union_unit(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, union):
            if isinstance(expr.left, empty):
                return expr.right
            if isinstance(expr.right, empty):
                return expr.left
        return None

    return _union_unit


def through_if(node: type, part: str):
    """The commuting conversion ``f(if c then e1 else e2) ⇝ if c then
    f(e1) else f(e2)``, where ``f`` is a ``node`` observing its field
    ``part``: filter promotion for ⋃ and Σ sources, and ``subscript-if``
    and ``dim-if``, which let β^p and δ^p reach tabulations guarded by
    conformance checks (e.g. the matrix ``multiply`` of Section 2)."""

    def _through_if(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, node):
            cond = getattr(expr, part)
            if isinstance(cond, ast.If):
                return ast.If(
                    cond.cond,
                    dataclasses.replace(expr, **{part: cond.then}),
                    dataclasses.replace(expr, **{part: cond.orelse}))
        return None

    return _through_if


def _ext_ext_fusion(expr: ast.Expr) -> Optional[ast.Expr]:
    """Vertical fusion:
    ``⋃{e1 | x ∈ ⋃{e2 | y ∈ e3}} ⇝ ⋃{⋃{e1 | x ∈ e2} | y ∈ e3}``.

    Avoids materializing the intermediate set.  Binders are freshened to
    avoid capture in either direction.
    """
    if not (isinstance(expr, ast.Ext) and isinstance(expr.source, ast.Ext)):
        return None
    outer, inner = expr, expr.source
    inner_var, inner_body = inner.var, inner.body
    if inner_var in ast.free_vars(outer.body):
        fresh = ast.fresh_var(inner_var)
        inner_body = ast.substitute(inner_body, {inner_var: ast.Var(fresh)})
        inner_var = fresh
    outer_var, outer_body = outer.var, outer.body
    if outer_var in ast.free_vars(inner_body) or outer_var == inner_var:
        fresh = ast.fresh_var(outer_var)
        outer_body = ast.substitute(outer_body, {outer_var: ast.Var(fresh)})
        outer_var = fresh
    return ast.Ext(
        inner_var, ast.Ext(outer_var, outer_body, inner_body), inner.source
    )


def _ext_eta(expr: ast.Expr) -> Optional[ast.Expr]:
    """``⋃{{x} | x ∈ e} ⇝ e``."""
    if isinstance(expr, ast.Ext) and isinstance(expr.body, ast.Singleton) \
            and isinstance(expr.body.expr, ast.Var) \
            and expr.body.expr.name == expr.var:
        return expr.source
    return None


def _horizontal_fusion(expr: ast.Expr) -> Optional[ast.Expr]:
    """``⋃{e1 | x ∈ s} ∪ ⋃{e2 | y ∈ s} ⇝ ⋃{e1 ∪ e2{y:=x} | x ∈ s}``.

    One scan of ``s`` instead of two (sources must be syntactically equal).
    """
    if not (isinstance(expr, ast.Union)
            and isinstance(expr.left, ast.Ext)
            and isinstance(expr.right, ast.Ext)
            and expr.left.source == expr.right.source):
        return None
    left, right = expr.left, expr.right
    fresh = ast.fresh_var(left.var)
    left_body = ast.substitute(left.body, {left.var: ast.Var(fresh)})
    right_body = ast.substitute(right.body, {right.var: ast.Var(fresh)})
    return ast.Ext(fresh, ast.Union(left_body, right_body), left.source)


def _if_literal_cond(expr: ast.Expr) -> Optional[ast.Expr]:
    """``if true then e1 else e2 ⇝ e1`` (and the false dual)."""
    if isinstance(expr, ast.If) and isinstance(expr.cond, ast.BoolLit):
        return expr.then if expr.cond.value else expr.orelse
    return None


def make_if_same_branches(assume_error_free: bool):
    """``if c then e else e ⇝ e`` (``c`` discardable)."""

    def _if_same_branches(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.If) and expr.then == expr.orelse \
                and discardable(assume_error_free, (expr.cond,)):
            return expr.then
        return None

    return _if_same_branches


def _if_nested_same_cond(expr: ast.Expr) -> Optional[ast.Expr]:
    """``if c then (if c then e1 else _) else e ⇝ if c then e1 else e``
    (and the dual in the else branch)."""
    if not isinstance(expr, ast.If):
        return None
    if isinstance(expr.then, ast.If) and expr.then.cond == expr.cond:
        return ast.If(expr.cond, expr.then.then, expr.orelse)
    if isinstance(expr.orelse, ast.If) and expr.orelse.cond == expr.cond:
        return ast.If(expr.cond, expr.then, expr.orelse.orelse)
    return None


def _if_bool_branches(expr: ast.Expr) -> Optional[ast.Expr]:
    """``if c then true else false ⇝ c``."""
    if isinstance(expr, ast.If) \
            and isinstance(expr.then, ast.BoolLit) and expr.then.value \
            and isinstance(expr.orelse, ast.BoolLit) and not expr.orelse.value:
        return expr.cond
    return None


def _cmp_fold(expr: ast.Expr) -> Optional[ast.Expr]:
    """Fold comparisons of literals by the language's own tests
    (``COMPARISONS``: a NaN equals nothing, and ``nan <= x`` holds), and
    order comparisons of a variable with itself.  ``x = x`` stays: it is
    false when ``x`` is or holds a NaN."""
    if not isinstance(expr, ast.Cmp):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, _LITERALS) and isinstance(right, _LITERALS):
        if type(left) is not type(right):
            return None
        general = COMPARISONS[expr.op][1]
        return ast.BoolLit(general(left.value, right.value))
    if isinstance(left, ast.Var) and isinstance(right, ast.Var) \
            and left.name == right.name:
        if expr.op in ("<=", ">="):
            return ast.BoolLit(True)
        if expr.op in ("<", ">"):
            return ast.BoolLit(False)
    return None


def _get_singleton(expr: ast.Expr) -> Optional[ast.Expr]:
    """``get({e}) ⇝ e``."""
    if isinstance(expr, ast.Get) and isinstance(expr.expr, ast.Singleton):
        return expr.expr.expr
    return None


def nrc_rules(assume_error_free: bool = False) -> List[Rule]:
    """The NRC rule base, in application-priority order."""
    return [
        Rule("beta", make_beta(assume_error_free),
             "(λx.e1)(e2) ⇝ e1{x:=e2}",
             roots=(ast.App,)),
        Rule("proj-tuple", make_proj_tuple(assume_error_free),
             "π_i(e1,...,ek) ⇝ e_i",
             roots=(ast.Proj,)),
        Rule("if-literal-cond", _if_literal_cond, "if true/false folding",
             roots=(ast.If,)),
        Rule("if-bool-branches", _if_bool_branches,
             "if c then true else false ⇝ c", roots=(ast.If,)),
        Rule("if-nested-same-cond", _if_nested_same_cond,
             "collapse nested ifs with identical condition",
             roots=(ast.If,)),
        Rule("if-same-branches", make_if_same_branches(assume_error_free),
             "if c then e else e ⇝ e (c error-free)", roots=(ast.If,)),
        Rule("cmp-fold", _cmp_fold, "fold literal comparisons",
             roots=(ast.Cmp,)),
        Rule("ext-empty-source", empty_source(ast.Ext), "⋃ over {} ⇝ {}",
             roots=(ast.Ext,)),
        Rule("ext-empty-body", empty_body(ast.Ext, assume_error_free),
             "⋃ of {} bodies ⇝ {}", roots=(ast.Ext,)),
        Rule("ext-singleton-source",
             singleton_source(ast.Ext, assume_error_free),
             "⋃ over singleton ⇝ substitution", roots=(ast.Ext,)),
        Rule("ext-union-source", union_source(ast.Ext),
             "⋃ over ∪ distributes", roots=(ast.Ext,)),
        Rule("ext-if-source", through_if(ast.Ext, "source"),
             "filter promotion", roots=(ast.Ext,)),
        Rule("ext-ext-fusion", _ext_ext_fusion, "vertical loop fusion",
             roots=(ast.Ext,)),
        Rule("ext-eta", _ext_eta, "⋃{{x}|x∈e} ⇝ e", roots=(ast.Ext,)),
        Rule("union-empty", union_unit(ast.Ext), "∪ unit laws",
             roots=(ast.Union,)),
        Rule("horizontal-fusion", _horizontal_fusion,
             "merge unions of loops over the same source",
             roots=(ast.Union,)),
        Rule("get-singleton", _get_singleton, "get({e}) ⇝ e",
             roots=(ast.Get,)),
        Rule("bag-ext-empty-source", empty_source(ast.BagExt),
             "⊎ over {||} ⇝ {||}", roots=(ast.BagExt,)),
        Rule("bag-ext-singleton-source",
             singleton_source(ast.BagExt, assume_error_free),
             "⊎ over singleton bag ⇝ substitution", roots=(ast.BagExt,)),
        Rule("bag-ext-union-source", union_source(ast.BagExt),
             "⊎ over ⊎ distributes", roots=(ast.BagExt,)),
        Rule("bag-union-empty", union_unit(ast.BagExt), "⊎ unit laws",
             roots=(ast.BagUnion,)),
    ]


__all__ = ["COMPREHENSIONS", "nrc_rules", "through_if", "empty_source",
           "empty_body", "singleton_source"]
