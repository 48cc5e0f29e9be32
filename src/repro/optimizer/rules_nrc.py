"""The NRC equational rules (Section 5, via [7, 34]).

These are the set/tuple/conditional rules the AQL optimizer inherits from
the nested relational calculus: β for functions, π for products, vertical
and horizontal fusion of set loops, filter promotion, and conditional
simplification.

A note on errors: like the paper's derivations (which freely apply β and
π in the presence of ⊥-producing subexpressions), these rules treat the
equations as the calculus's equational theory; rules that would *discard*
a possibly-erroring computation entirely (``if-same-branches``,
``ext-empty-body``) carry an ``is_error_free`` guard.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import ast
from repro.objects.ordering import COMPARISONS
from repro.optimizer.analysis import (
    effective_occurrences,
    is_duplication_safe,
    is_error_free,
)
from repro.optimizer.engine import Rule

_LITERALS = (ast.NatLit, ast.RealLit, ast.StrLit, ast.BoolLit)


def make_beta(assume_error_free: bool):
    """``(λx.e1)(e2) ⇝ e1{x := e2}``.

    Guarded against *work duplication*: when the bound variable occurs
    several times and the argument is expensive (a loop, a tabulation),
    inlining would re-evaluate it per occurrence — e.g. the ``index``
    array of Section 2's ``hist'`` would be rebuilt for every bin,
    destroying the O(m + n log n) bound.  Such redexes are left alone;
    the evaluator's closure application shares the argument value.

    Strictness guard: application is call-by-value, so the original
    always evaluates ``e2``; after substitution a dead (or
    conditionally dead) ``x`` would erase a ⊥ the original raises.
    The strictly-sound pipeline requires ``e2`` error-free.
    """

    def _beta(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.App) and isinstance(expr.fn, ast.Lam) \
                and (assume_error_free or is_error_free(expr.arg)):
            occurrences = effective_occurrences(expr.fn.body,
                                                expr.fn.param)
            if occurrences <= 1 or is_duplication_safe(expr.arg):
                return ast.substitute(expr.fn.body,
                                      {expr.fn.param: expr.arg})
        return None

    return _beta


def make_proj_tuple(assume_error_free: bool):
    """``π_i(e1, ..., ek) ⇝ e_i`` (the π rule used in Section 5).

    Strictness guard: the original evaluates every component, the
    rewrite only ``e_i`` — the strict pipeline requires the discarded
    components error-free so no ⊥ is erased.
    """

    def _proj_tuple(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Proj) and isinstance(expr.expr, ast.TupleE):
            items = expr.expr.items
            if len(items) == expr.arity \
                    and (assume_error_free
                         or all(is_error_free(item)
                                for pos, item in enumerate(items)
                                if pos != expr.index - 1)):
                return items[expr.index - 1]
        return None

    return _proj_tuple


def _ext_empty_source(expr: ast.Expr) -> Optional[ast.Expr]:
    """``⋃{e | x ∈ {}} ⇝ {}``."""
    if isinstance(expr, ast.Ext) and isinstance(expr.source, ast.EmptySet):
        return ast.EmptySet()
    return None


def make_ext_empty_body(assume_error_free: bool):
    """``⋃{{} | x ∈ e} ⇝ {}`` (guarded: ``e`` must be error-free)."""

    def _ext_empty_body(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Ext) and isinstance(expr.body, ast.EmptySet) \
                and (assume_error_free or is_error_free(expr.source)):
            return ast.EmptySet()
        return None

    return _ext_empty_body


def make_ext_singleton_source(assume_error_free: bool):
    """``⋃{e1 | x ∈ {e2}} ⇝ e1{x := e2}`` (duplication-guarded like β).

    Strictness guard: the original always evaluates ``e2`` (the source
    is built before the loop runs), but the substituted body may never
    reach it — ``x`` can be dead, or live only under an untaken ``if``
    branch — which would erase a ⊥ that the original raises.  The
    strictly-sound pipeline therefore also requires ``e2`` error-free.
    """

    def _ext_singleton_source(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Ext) \
                and isinstance(expr.source, ast.Singleton) \
                and (assume_error_free or is_error_free(expr.source.expr)):
            occurrences = effective_occurrences(expr.body, expr.var)
            if occurrences <= 1 or is_duplication_safe(expr.source.expr):
                return ast.substitute(expr.body,
                                      {expr.var: expr.source.expr})
        return None

    return _ext_singleton_source


def _ext_union_source(expr: ast.Expr) -> Optional[ast.Expr]:
    """``⋃{e | x ∈ e1 ∪ e2} ⇝ ⋃{e | x ∈ e1} ∪ ⋃{e | x ∈ e2}``."""
    if isinstance(expr, ast.Ext) and isinstance(expr.source, ast.Union):
        return ast.Union(
            ast.Ext(expr.var, expr.body, expr.source.left),
            ast.Ext(expr.var, expr.body, expr.source.right),
        )
    return None


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


def _ext_if_source(expr: ast.Expr) -> Optional[ast.Expr]:
    """Filter promotion:
    ``⋃{e | x ∈ if c then e1 else e2} ⇝ if c then ⋃{...e1} else ⋃{...e2}``.
    """
    if isinstance(expr, ast.Ext) and isinstance(expr.source, ast.If):
        cond = expr.source
        return ast.If(
            cond.cond,
            ast.Ext(expr.var, expr.body, cond.then),
            ast.Ext(expr.var, expr.body, cond.orelse),
        )
    return None


def _ext_eta(expr: ast.Expr) -> Optional[ast.Expr]:
    """``⋃{{x} | x ∈ e} ⇝ e``."""
    if isinstance(expr, ast.Ext) and isinstance(expr.body, ast.Singleton) \
            and isinstance(expr.body.expr, ast.Var) \
            and expr.body.expr.name == expr.var:
        return expr.source
    return None


def _union_empty(expr: ast.Expr) -> Optional[ast.Expr]:
    """``{} ∪ e ⇝ e`` and ``e ∪ {} ⇝ e``."""
    if isinstance(expr, ast.Union):
        if isinstance(expr.left, ast.EmptySet):
            return expr.right
        if isinstance(expr.right, ast.EmptySet):
            return expr.left
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
    """``if c then e else e ⇝ e`` (guarded: ``c`` must be error-free)."""

    def _if_same_branches(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.If) and expr.then == expr.orelse \
                and (assume_error_free or is_error_free(expr.cond)):
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


# -- bag mirrors (Section 6 calculus shares the engine) -------------------------

def _bag_ext_empty_source(expr: ast.Expr) -> Optional[ast.Expr]:
    if isinstance(expr, ast.BagExt) and isinstance(expr.source, ast.EmptyBag):
        return ast.EmptyBag()
    return None


def make_bag_ext_singleton_source(assume_error_free: bool):
    """Bag mirror of :func:`make_ext_singleton_source`, same guard."""

    def _bag_ext_singleton_source(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.BagExt) \
                and isinstance(expr.source, ast.SingletonBag) \
                and (assume_error_free
                     or is_error_free(expr.source.expr)):
            occurrences = effective_occurrences(expr.body, expr.var)
            if occurrences <= 1 or is_duplication_safe(expr.source.expr):
                return ast.substitute(expr.body,
                                      {expr.var: expr.source.expr})
        return None

    return _bag_ext_singleton_source


def _bag_ext_union_source(expr: ast.Expr) -> Optional[ast.Expr]:
    if isinstance(expr, ast.BagExt) and isinstance(expr.source, ast.BagUnion):
        return ast.BagUnion(
            ast.BagExt(expr.var, expr.body, expr.source.left),
            ast.BagExt(expr.var, expr.body, expr.source.right),
        )
    return None


def _bag_union_empty(expr: ast.Expr) -> Optional[ast.Expr]:
    if isinstance(expr, ast.BagUnion):
        if isinstance(expr.left, ast.EmptyBag):
            return expr.right
        if isinstance(expr.right, ast.EmptyBag):
            return expr.left
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
        Rule("ext-empty-source", _ext_empty_source, "⋃ over {} ⇝ {}",
             roots=(ast.Ext,)),
        Rule("ext-empty-body", make_ext_empty_body(assume_error_free),
             "⋃ of {} bodies ⇝ {}", roots=(ast.Ext,)),
        Rule("ext-singleton-source",
             make_ext_singleton_source(assume_error_free),
             "⋃ over singleton ⇝ substitution", roots=(ast.Ext,)),
        Rule("ext-union-source", _ext_union_source, "⋃ over ∪ distributes",
             roots=(ast.Ext,)),
        Rule("ext-if-source", _ext_if_source, "filter promotion",
             roots=(ast.Ext,)),
        Rule("ext-ext-fusion", _ext_ext_fusion, "vertical loop fusion",
             roots=(ast.Ext,)),
        Rule("ext-eta", _ext_eta, "⋃{{x}|x∈e} ⇝ e", roots=(ast.Ext,)),
        Rule("union-empty", _union_empty, "∪ unit laws",
             roots=(ast.Union,)),
        Rule("horizontal-fusion", _horizontal_fusion,
             "merge unions of loops over the same source",
             roots=(ast.Union,)),
        Rule("get-singleton", _get_singleton, "get({e}) ⇝ e",
             roots=(ast.Get,)),
        Rule("bag-ext-empty-source", _bag_ext_empty_source,
             "⊎ over {||} ⇝ {||}", roots=(ast.BagExt,)),
        Rule("bag-ext-singleton-source",
             make_bag_ext_singleton_source(assume_error_free),
             "⊎ over singleton bag ⇝ substitution", roots=(ast.BagExt,)),
        Rule("bag-ext-union-source", _bag_ext_union_source,
             "⊎ over ⊎ distributes", roots=(ast.BagExt,)),
        Rule("bag-union-empty", _bag_union_empty, "⊎ unit laws",
             roots=(ast.BagUnion,)),
    ]


__all__ = ["nrc_rules"]
