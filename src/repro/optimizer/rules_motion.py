"""Code motion (Section 5: "Later phases include I/O optimizations and
code motion").

Loop-invariant hoisting: an expensive subexpression inside a tabulation
(or ⋃/Σ loop) body that does not mention the loop variables is computed
once outside the loop::

    [[ Σ{y | y ∈ S} * i | i < n ]]
        ⇝  (λ h. [[ h * i | i < n ]])(Σ{y | y ∈ S})

The evaluator shares the argument of a β-redex (and the normalization
β-rule's duplication guard refuses to re-inline expensive arguments), so
the hoisted value is genuinely computed once.

Soundness: hoisting evaluates the candidate even when the loop would
have run zero times, so the candidate must be *error-free* (this guard
is never waived — unlike δ^p's, since hoisting can introduce a ⊥ that
the original program never raised, rather than merely dropping one).
Only *expensive* candidates (loops, tabulations) are hoisted: cheap
arithmetic stays, and so does a λ, since a closure is not work and a
hoisted one would be called, not inlined.

Let-floating moves a loop-invariant *binding* — the singleton generator
``x ∈ {e}`` that a ``:==`` qualifier desugars to — out of the loop
around it (likewise for Σ and ⊎)::

    ⋃{⋃{f | x ∈ {e}} | d ∈ D}  ⇝  ⋃{⋃{f | d ∈ D} | x ∈ {e}}

when ``d ∉ fv(e)``.  The floated ``e`` is evaluated once, and before
``D``, so it must be error-free — or ``D`` must be a literal ``gen!c``
with ``c > 0``: then ``D`` is ⊥-free and non-empty, ``e`` is the first
thing the original evaluates after it, and the value and the first ⊥
reason are unchanged.  Like hoisting's, this guard is never waived: over
an empty ``D`` the original never evaluates ``e`` at all.  A singleton
``D`` is left alone, so two bindings are never swapped back and forth.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import ast
from repro.optimizer.analysis import is_duplication_safe, is_error_free
from repro.optimizer.engine import Rule

#: loop constructs whose bodies are evaluated once per element
_LOOPS = (ast.Ext, ast.Sum, ast.BagExt)


def _is_hoistable(expr: ast.Expr, banned: frozenset) -> bool:
    """Expensive, error-free, and independent of the loop variables."""
    if is_duplication_safe(expr):
        return False  # cheap: not worth a binding
    if not is_error_free(expr):
        return False
    return not (ast.free_vars(expr) & banned)


def _find_candidate(expr: ast.Expr,
                    banned: frozenset) -> Optional[ast.Expr]:
    """The outermost hoistable subexpression of ``expr`` (pre-order)."""
    if isinstance(expr, ast.Var):
        return None
    if _is_hoistable(expr, banned):
        return expr
    for child, bound in expr.parts():
        found = _find_candidate(child, banned | frozenset(bound))
        if found is not None:
            return found
    return None


def _replace_all(expr: ast.Expr, target: ast.Expr,
                 replacement: ast.Expr,
                 protected: frozenset) -> ast.Expr:
    """Replace syntactic occurrences of ``target``, respecting shadowing."""
    if expr == target:
        return replacement
    new_children: List[ast.Expr] = []
    for child, bound in expr.parts():
        if bound and any(name in protected for name in bound):
            new_children.append(child)
        else:
            new_children.append(
                _replace_all(child, target, replacement, protected)
            )
    return expr.with_parts(new_children)


def _hoist_from_loop(expr: ast.Expr) -> Optional[ast.Expr]:
    """Hoist one invariant out of a loop body."""
    if isinstance(expr, ast.Tabulate):
        banned = frozenset(expr.vars)
        body = expr.body
    elif isinstance(expr, _LOOPS):
        banned = frozenset((expr.var,))
        body = expr.body
    else:
        return None
    candidate = _find_candidate(body, banned)
    if candidate is None:
        return None
    fresh = ast.fresh_var("h")
    protected = ast.free_vars(candidate)
    new_body = _replace_all(body, candidate, ast.Var(fresh), protected)
    if isinstance(expr, ast.Tabulate):
        rebuilt: ast.Expr = ast.Tabulate(expr.vars, expr.bounds, new_body)
    else:
        rebuilt = type(expr)(expr.var, new_body, expr.source)
    return ast.App(ast.Lam(fresh, rebuilt), candidate)


#: each loop construct with the singleton of its source's kind
_SINGLETONS = {ast.Ext: ast.Singleton, ast.Sum: ast.Singleton,
               ast.BagExt: ast.SingletonBag}


def _nonempty_gen(source: ast.Expr) -> bool:
    """``gen!c`` with a literal ``c > 0``: ⊥-free and never empty."""
    return (type(source) is ast.Gen and type(source.expr) is ast.NatLit
            and source.expr.value > 0)


def _float_binding(expr: ast.Expr) -> Optional[ast.Expr]:
    """``⋃{⋃{f | x ∈ {e}} | d ∈ D}`` ⇝ ``⋃{⋃{f | d ∈ D} | x ∈ {e}}``."""
    loop = type(expr)
    singleton = _SINGLETONS.get(loop)
    if singleton is None:
        return None
    inner = expr.body
    if (type(inner) is not loop or type(inner.source) is not singleton
            or type(expr.source) is singleton):
        return None
    bound = inner.source.expr
    if (inner.var == expr.var or expr.var in ast.free_vars(bound)
            or inner.var in ast.free_vars(expr.source)):
        return None
    if not (_nonempty_gen(expr.source) or is_error_free(bound)):
        return None
    return loop(inner.var, loop(expr.var, inner.body, expr.source),
                inner.source)


def motion_rules() -> List[Rule]:
    """The code-motion rule base (the engine iterates it)."""
    return [
        Rule("hoist-loop-invariant", _hoist_from_loop,
             "compute loop-invariant expensive subexpressions once",
             roots=(ast.Tabulate,) + _LOOPS),
        Rule("let-float", _float_binding,
             "bind loop-invariant singleton generators outside the loop",
             roots=_LOOPS),
    ]


__all__ = ["motion_rules"]
