"""Arithmetic and summation rules (Section 5, after [18]).

Constant folding for the Figure 1 operators, unit laws, and the Σ rules
that mirror the ⋃ rules.  Only the *sound* subset is implemented: because
``⋃`` deduplicates, ``Σ`` does **not** distribute over set union, so there
is deliberately no Σ/∪ or Σ/⋃ fusion rule here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import ast
from repro.objects.values import apply_arith
from repro.errors import BottomError
from repro.optimizer.analysis import (
    effective_occurrences,
    is_duplication_safe,
    is_error_free,
)
from repro.optimizer.engine import Rule


def _arith_fold(expr: ast.Expr) -> Optional[ast.Expr]:
    """Fold arithmetic on literals; a constant ⊥ (e.g. ``1/0``) becomes
    the explicit ``Bottom`` construct."""
    if not isinstance(expr, ast.Arith):
        return None
    left, right = expr.left, expr.right
    nat = isinstance(left, ast.NatLit) and isinstance(right, ast.NatLit)
    real = isinstance(left, ast.RealLit) and isinstance(right, ast.RealLit)
    if not (nat or real):
        return None
    try:
        value = apply_arith(expr.op, left.value, right.value)
    except BottomError as exc:
        return ast.Bottom(exc.reason)
    if nat:
        return ast.NatLit(value)
    return ast.RealLit(value)


def _arith_identity(expr: ast.Expr) -> Optional[ast.Expr]:
    """Unit laws: ``e+0``, ``0+e``, ``e-0``, ``e*1``, ``1*e``, ``e/1``."""
    if not isinstance(expr, ast.Arith):
        return None
    left, right = expr.left, expr.right
    zero_right = isinstance(right, ast.NatLit) and right.value == 0
    zero_left = isinstance(left, ast.NatLit) and left.value == 0
    one_right = isinstance(right, ast.NatLit) and right.value == 1
    one_left = isinstance(left, ast.NatLit) and left.value == 1
    if expr.op == "+" and zero_right:
        return left
    if expr.op == "+" and zero_left:
        return right
    if expr.op == "-" and zero_right:
        return left
    if expr.op == "*" and one_right:
        return left
    if expr.op == "*" and one_left:
        return right
    if expr.op == "/" and one_right:
        return left
    return None


def _sum_empty_source(expr: ast.Expr) -> Optional[ast.Expr]:
    """``Σ{e | x ∈ {}} ⇝ 0``."""
    if isinstance(expr, ast.Sum) and isinstance(expr.source, ast.EmptySet):
        return ast.NatLit(0)
    return None


def make_sum_singleton_source(assume_error_free: bool):
    """``Σ{e1 | x ∈ {e2}} ⇝ e1{x := e2}`` (duplication-guarded like β).

    Same strictness guard as the ⋃ mirror: the original always
    evaluates ``e2``, the substituted body may not (dead or
    conditionally-dead ``x``), so the strict pipeline also requires
    ``e2`` error-free.
    """

    def _sum_singleton_source(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Sum) \
                and isinstance(expr.source, ast.Singleton) \
                and (assume_error_free
                     or is_error_free(expr.source.expr)):
            occurrences = effective_occurrences(expr.body, expr.var)
            if occurrences <= 1 or is_duplication_safe(expr.source.expr):
                return ast.substitute(expr.body,
                                      {expr.var: expr.source.expr})
        return None

    return _sum_singleton_source


def _sum_if_source(expr: ast.Expr) -> Optional[ast.Expr]:
    """Filter promotion for Σ."""
    if isinstance(expr, ast.Sum) and isinstance(expr.source, ast.If):
        cond = expr.source
        return ast.If(
            cond.cond,
            ast.Sum(expr.var, expr.body, cond.then),
            ast.Sum(expr.var, expr.body, cond.orelse),
        )
    return None


def make_sum_zero_body(assume_error_free: bool):
    """``Σ{0 | x ∈ e} ⇝ 0`` (guarded: ``e`` error-free)."""

    def _sum_zero_body(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.Sum) and isinstance(expr.body, ast.NatLit) \
                and expr.body.value == 0 \
                and (assume_error_free or is_error_free(expr.source)):
            return ast.NatLit(0)
        return None

    return _sum_zero_body


def _gen_zero(expr: ast.Expr) -> Optional[ast.Expr]:
    """``gen(0) ⇝ {}``."""
    if isinstance(expr, ast.Gen) and isinstance(expr.expr, ast.NatLit) \
            and expr.expr.value == 0:
        return ast.EmptySet()
    return None


def arith_rules(assume_error_free: bool = False) -> List[Rule]:
    """The arithmetic/summation rule base."""
    return [
        Rule("arith-fold", _arith_fold, "fold literal arithmetic",
             roots=(ast.Arith,)),
        Rule("arith-identity", _arith_identity, "unit laws",
             roots=(ast.Arith,)),
        Rule("sum-empty-source", _sum_empty_source, "Σ over {} ⇝ 0",
             roots=(ast.Sum,)),
        Rule("sum-singleton-source",
             make_sum_singleton_source(assume_error_free),
             "Σ over singleton ⇝ substitution", roots=(ast.Sum,)),
        Rule("sum-if-source", _sum_if_source, "Σ filter promotion",
             roots=(ast.Sum,)),
        Rule("sum-zero-body", make_sum_zero_body(assume_error_free),
             "Σ of zeros ⇝ 0", roots=(ast.Sum,)),
        Rule("gen-zero", _gen_zero, "gen(0) ⇝ {}", roots=(ast.Gen,)),
    ]


__all__ = ["arith_rules"]
