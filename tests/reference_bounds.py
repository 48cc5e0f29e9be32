"""The four Section 5 bounds-elimination rules as rewrite rules, the
form ``repro.optimizer.rules_bounds`` had before its rules became fact
sources.  Kept as the reference ``test_macro_compilation.reference_run``
applies, with the normalization rules, for the ``bounds`` phase: the
phase must end in the normal form these rules reach.

Each rule calls :func:`_propagate` at its binder, which builds the
fact's four ``Cmp`` forms and rewrites every matching subterm of the
body, stopping below a binder that shadows a free variable of the fact.
A binder offers no fact whose bound names a variable it binds (the
phase's capture condition).  No module under ``src/`` imports this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import ast
from repro.optimizer.engine import Rule

#: negations of the comparison operators
_NEGATE = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "=": "<>", "<>": "="}
#: mirrored forms under operand swap
_SWAP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}


def _consequences(fact: ast.Expr, truth: bool) -> Dict[ast.Expr, ast.Expr]:
    """All syntactic forms decided by knowing ``fact`` is ``truth``."""
    decided: Dict[ast.Expr, ast.Expr] = {fact: ast.BoolLit(truth)}
    if isinstance(fact, ast.Cmp):
        swapped = ast.Cmp(_SWAP[fact.op], fact.right, fact.left)
        negated = ast.Cmp(_NEGATE[fact.op], fact.left, fact.right)
        negated_swapped = ast.Cmp(
            _SWAP[_NEGATE[fact.op]], fact.right, fact.left
        )
        decided[swapped] = ast.BoolLit(truth)
        decided[negated] = ast.BoolLit(not truth)
        decided[negated_swapped] = ast.BoolLit(not truth)
    return decided


def _replace_known(expr: ast.Expr, decided: Dict[ast.Expr, ast.Expr],
                   classes: frozenset,
                   protected: frozenset) -> Tuple[ast.Expr, bool]:
    """Replace decided subterms, stopping below shadowing binders.

    Only a node of a decided form's class is looked up: a lookup hashes
    the node's whole subtree, so probing every node made each
    propagation quadratic in the depth of the body.
    """
    if type(expr) in classes:
        replacement = decided.get(expr)
        if replacement is not None:
            return replacement, True
    changed = False
    new_children: List[ast.Expr] = []
    for child, bound in expr.parts():
        if bound and any(name in protected for name in bound):
            new_children.append(child)  # the fact's variables are shadowed
            continue
        new_child, child_changed = _replace_known(child, decided, classes,
                                                  protected)
        new_children.append(new_child)
        changed = changed or child_changed
    if not changed:
        return expr, False
    return expr.with_parts(new_children), True


def _propagate(body: ast.Expr, fact: ast.Expr,
               truth: bool) -> Tuple[ast.Expr, bool]:
    decided = _consequences(fact, truth)
    classes = frozenset(type(form) for form in decided)
    protected = ast.free_vars(fact)
    return _replace_known(body, decided, classes, protected)


def _tabulate_bound_elim(expr: ast.Expr) -> Optional[ast.Expr]:
    """Rule 1: within ``[[body | ..., i_j < e_j, ...]]`` the comparison
    ``i_j < e_j`` is true."""
    if not isinstance(expr, ast.Tabulate):
        return None
    body = expr.body
    changed = False
    for var, bound in zip(expr.vars, expr.bounds):
        if set(expr.vars) & ast.free_vars(bound):
            continue
        fact = ast.Cmp("<", ast.Var(var), bound)
        body, fact_changed = _propagate(body, fact, True)
        changed = changed or fact_changed
    if not changed:
        return None
    return ast.Tabulate(expr.vars, expr.bounds, body)


def _gen_bound_elim(expr: ast.Expr) -> Optional[ast.Expr]:
    """Rule 2: within ``⋃{body | i ∈ gen(e)}`` (or Σ), ``i < e`` is true."""
    if isinstance(expr, (ast.Ext, ast.Sum)) \
            and isinstance(expr.source, ast.Gen) \
            and expr.var not in ast.free_vars(expr.source.expr):
        fact = ast.Cmp("<", ast.Var(expr.var), expr.source.expr)
        body, changed = _propagate(expr.body, fact, True)
        if not changed:
            return None
        return type(expr)(expr.var, body, expr.source)
    return None


def _if_branch_elim(expr: ast.Expr) -> Optional[ast.Expr]:
    """Rules 3 and 4: the condition is true in the then branch and false
    in the else branch."""
    if not isinstance(expr, ast.If):
        return None
    if isinstance(expr.cond, ast.BoolLit):
        return None  # nothing to learn; the conditional rules fold these
    then, then_changed = _propagate(expr.then, expr.cond, True)
    orelse, else_changed = _propagate(expr.orelse, expr.cond, False)
    if not (then_changed or else_changed):
        return None
    return ast.If(expr.cond, then, orelse)


def _monus_bound_elim(expr: ast.Expr) -> Optional[ast.Expr]:
    """Within ``[[body | k < (j+1) ∸ i]]`` the check ``i + k < j + 1`` is
    true — the fact β^p needs after composing ``subseq`` with another
    operation.  More generally, ``k < b ∸ a`` implies ``a + k < b``.
    """
    if not isinstance(expr, ast.Tabulate):
        return None
    body = expr.body
    changed = False
    for var, bound in zip(expr.vars, expr.bounds):
        if not (isinstance(bound, ast.Arith) and bound.op == "-") \
                or set(expr.vars) & ast.free_vars(bound):
            continue
        upper, lower = bound.left, bound.right
        fact = ast.Cmp(
            "<", ast.Arith("+", lower, ast.Var(var)), upper
        )
        body, fact_changed = _propagate(body, fact, True)
        changed = changed or fact_changed
        # also the commuted addition k + a < b
        fact_commuted = ast.Cmp(
            "<", ast.Arith("+", ast.Var(var), lower), upper
        )
        body, fact_changed = _propagate(body, fact_commuted, True)
        changed = changed or fact_changed
    if not changed:
        return None
    return ast.Tabulate(expr.vars, expr.bounds, body)


def reference_bounds_rules() -> List[Rule]:
    """The four rules, as rewrite rules."""
    return [
        Rule("tabulate-bound-elim", _tabulate_bound_elim,
             "i_j < e_j is true inside its own tabulation",
             roots=(ast.Tabulate,)),
        Rule("gen-bound-elim", _gen_bound_elim,
             "i < e is true inside ⋃/Σ over gen(e)",
             roots=(ast.Ext, ast.Sum)),
        Rule("if-branch-elim", _if_branch_elim,
             "condition is true in then, false in else",
             roots=(ast.If,)),
        Rule("monus-bound-elim", _monus_bound_elim,
             "k < b ∸ a implies a + k < b inside the tabulation",
             roots=(ast.Tabulate,)),
    ]


__all__ = ["reference_bounds_rules"]
