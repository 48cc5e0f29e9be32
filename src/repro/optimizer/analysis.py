"""Static analyses supporting the optimizer rules.

The central one is :func:`is_error_free`: the δ^p rule
(``len([[e1 | i < e2]]) ⇝ e2``) "is sound only if e1 is error-free"
(Section 5), and Proposition 5.1 shows bounds checking — hence exact
error-freeness — is undecidable.  So this is a *conservative, syntactic*
approximation: ``True`` means the expression provably cannot evaluate
to ⊥; ``False`` means we don't know.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from repro.core import ast


def is_error_free(expr: ast.Expr) -> bool:
    """Conservatively decide that ``expr`` can never raise ⊥.

    Sources of ⊥ that make us answer ``False``:

    * the explicit ``Bottom`` construct;
    * array subscripting (may be out of bounds);
    * ``get`` (may be applied to a non-singleton);
    * ``/`` and ``%`` with a non-literal or zero denominator;
    * ``MkArray`` whose dimension expressions are not literals matching
      the number of items;
    * applications (the function may embed any of the above — we do not
      do interprocedural analysis);
    * primitives (external code may fail);
    * ``index_k`` (a negative key, or one of the wrong arity, is an error).
      A nat is assumed natural, though ``gen!n`` and a tabulation bound
      raise ⊥ at ``n = -3`` too: a hole left to ROADMAP item 19(b).
    """
    if isinstance(expr, ast.Bottom):
        return False
    if isinstance(expr, (ast.Subscript, ast.Get, ast.Prim, ast.App,
                         ast.IndexSet)):
        return False
    if isinstance(expr, ast.Arith) and expr.op in ("/", "%"):
        denominator = expr.right
        if not (isinstance(denominator, ast.NatLit) and denominator.value > 0):
            return False
        return is_error_free(expr.left)
    if isinstance(expr, ast.MkArray):
        if literal_dims(expr) is None:
            return False
        return all(is_error_free(item) for item in expr.items)
    if isinstance(expr, ast.Lam):
        # a lambda *value* is fine; errors only fire on application,
        # and applications are already conservative
        return True
    return all(is_error_free(child) for child in expr.children())


#: constructs that evaluate a body or a source element by element
_EXPENSIVE = ast.LOOP_NODES + (ast.Tabulate, ast.IndexSet)


def is_duplication_safe(expr: ast.Expr, budget: int = 12) -> bool:
    """Heuristic: is ``expr`` cheap enough to duplicate during rewriting?

    Used by rules that would substitute an argument into several
    occurrences of a variable (β): literals, variables, small arithmetic
    and any λ are fine; loops and tabulations are not.
    """
    if isinstance(expr, ast.Lam):
        return True
    if budget <= 0:
        return False
    if isinstance(expr, _EXPENSIVE):
        return False
    remaining = budget - 1
    for child in expr.children():
        if not is_duplication_safe(child, remaining):
            return False
        remaining -= 1
    return True


def effective_occurrences(expr: ast.Expr, name: str) -> int:
    """Occurrences of ``name`` weighted by loop repetition.

    A free occurrence inside a loop or tabulation body counts double
    (i.e., "many"): substituting an expensive argument there would
    re-evaluate it per iteration even if it occurs only once textually.
    Used by the duplication guards on β and the singleton-source rules.
    """
    if isinstance(expr, ast.Var):
        return 1 if expr.name == name else 0
    if isinstance(expr, ast.LOOP_NODES):
        if name == expr.var or (hasattr(expr, "idx")
                                and name == expr.idx):
            return effective_occurrences(expr.source, name)
        return (effective_occurrences(expr.source, name)
                + 2 * effective_occurrences(expr.body, name))
    if isinstance(expr, ast.Tabulate):
        total = sum(effective_occurrences(b, name) for b in expr.bounds)
        if name not in expr.vars:
            total += 2 * effective_occurrences(expr.body, name)
        return total
    total = 0
    for child, bound in expr.parts():
        if name not in bound:
            total += effective_occurrences(child, name)
    return total


def literal_dims(literal: ast.MkArray) -> Optional[List[int]]:
    """The dims of an array literal when every one is a nat literal and
    their product is its item count; ``None`` when the literal's shape is
    not known statically (or it is ⊥)."""
    dims = [dim.value for dim in literal.dims if isinstance(dim, ast.NatLit)]
    if len(dims) != len(literal.dims) or math.prod(dims) != len(literal.items):
        return None
    return dims


def discardable(assume_error_free: bool, terms: Iterable[ast.Expr]) -> bool:
    """Whether a rewrite may stop evaluating ``terms``, which the original
    always evaluates (a dropped tuple component or literal item, a loop
    source under a constant body, the cells β^p does not read).

    The paper's derivations apply such rules freely; the strictly-sound
    pipeline (``assume_error_free=False``) requires every term
    error-free, so that no ⊥ the original raises is erased.  Every
    strict-mode side condition of the rule modules but the substituting
    ones is this call.
    """
    return assume_error_free or all(is_error_free(term) for term in terms)


def substituted(assume_error_free: bool, body: ast.Expr, var: str,
                arg: ast.Expr) -> Optional[ast.Expr]:
    """``body{var := arg}`` for β and the singleton-source rules, or
    ``None`` when one of their two guards refuses it.

    Strictness guard: the original always evaluates ``arg`` (an
    application is call-by-value, a source is built before the loop
    runs), but the substituted body may never reach it — ``var`` can be
    dead, or live only under an untaken ``if`` branch — so the strict
    pipeline requires ``arg`` to be :func:`discardable`.

    Duplication guard: when ``var`` occurs several times, or once inside
    a loop body, and ``arg`` is expensive (a loop, a tabulation),
    inlining would re-evaluate it per occurrence — e.g. the ``index``
    array of Section 2's ``hist'`` would be rebuilt for every bin,
    destroying the O(m + n log n) bound.  Such redexes are left alone;
    the plan binds the argument once.  A λ always passes (a closure
    copies code, not work), and β splits a refused tuple holding one.
    """
    if not discardable(assume_error_free, (arg,)):
        return None
    if effective_occurrences(body, var) > 1 and not is_duplication_safe(arg):
        return None
    return ast.substitute(body, {var: arg})


def has_class(expr: ast.Expr, classes: frozenset) -> bool:
    """Whether a node of one of ``classes`` occurs anywhere in ``expr``.

    Iterative (no recursion limit), id-deduplicated (shared-DAG
    subexpressions are visited once) and stopped at the first hit.  Used
    by the optimizer engine's absence proof: a phase whose every rule is
    ``roots``-annotated with classes absent from ``expr`` provably
    cannot fire and is skipped.
    """
    seen: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) in classes:
            return True
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(child for child, _ in node.parts())
    return False


def strip_bounds_checks(expr: ast.Expr) -> ast.Expr:
    """Erase residual bounds guards: ``if c then e else ⊥ ⇝ e``.

    Section 5 states that ``zip ∘ (subseq, subseq)`` and ``subseq ∘ zip``
    "get reduced to the same query, *up to extra constant-time bound
    checks*".  This helper realizes the "up to": after stripping guards
    whose else-branch is ⊥, the normal forms become α-equivalent.  It is
    an analysis/testing device, not an optimization rule — removing a
    live check changes the error behaviour.
    """

    def erase(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.If) and isinstance(node.orelse, ast.Bottom):
            return node.then
        return node

    return ast.transform_bottom_up(expr, erase)


__all__ = ["is_error_free", "is_duplication_safe",
           "effective_occurrences", "literal_dims", "discardable",
           "substituted", "has_class", "strip_bounds_checks"]
