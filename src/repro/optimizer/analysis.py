"""Static analyses supporting the optimizer rules.

The central one is :func:`is_error_free`: the δ^p rule
(``len([[e1 | i < e2]]) ⇝ e2``) "is sound only if e1 is error-free"
(Section 5), and Proposition 5.1 shows bounds checking — hence exact
error-freeness — is undecidable.  So this is a *conservative, syntactic*
approximation: ``True`` means the expression provably cannot evaluate
to ⊥; ``False`` means we don't know.
"""

from __future__ import annotations

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
    * primitives (external code may fail).
    """
    if isinstance(expr, ast.Bottom):
        return False
    if isinstance(expr, (ast.Subscript, ast.Get, ast.Prim, ast.App)):
        return False
    if isinstance(expr, ast.Arith) and expr.op in ("/", "%"):
        denominator = expr.right
        if not (isinstance(denominator, ast.NatLit) and denominator.value > 0):
            return False
        return is_error_free(expr.left)
    if isinstance(expr, ast.MkArray):
        expected = 1
        for dim in expr.dims:
            if not isinstance(dim, ast.NatLit):
                return False
            expected *= dim.value
        if expected != len(expr.items):
            return False
        return all(is_error_free(item) for item in expr.items)
    if isinstance(expr, ast.Lam):
        # a lambda *value* is fine; errors only fire on application,
        # and applications are already conservative
        return True
    return all(is_error_free(child) for child in expr.children())


def is_duplication_safe(expr: ast.Expr, budget: int = 12) -> bool:
    """Heuristic: is ``expr`` cheap enough to duplicate during rewriting?

    Used by rules that would substitute an argument into several
    occurrences of a variable (β): literals, variables and small
    arithmetic are fine; loops and tabulations are not.
    """
    if budget <= 0:
        return False
    if isinstance(expr, (ast.Ext, ast.Sum, ast.Tabulate, ast.IndexSet,
                         ast.BagExt, ast.ExtRank, ast.BagExtRank)):
        return False
    remaining = budget - 1
    for child in expr.children():
        if not is_duplication_safe(child, remaining):
            return False
        remaining -= 1
    return True


#: constructs whose body is evaluated once per element of the source
_LOOP_NODES = (ast.Ext, ast.Sum, ast.BagExt, ast.ExtRank, ast.BagExtRank)


def effective_occurrences(expr: ast.Expr, name: str) -> int:
    """Occurrences of ``name`` weighted by loop repetition.

    A free occurrence inside a loop or tabulation body counts double
    (i.e., "many"): substituting an expensive argument there would
    re-evaluate it per iteration even if it occurs only once textually.
    Used by the duplication guards on β and the singleton-source rules.
    """
    if isinstance(expr, ast.Var):
        return 1 if expr.name == name else 0
    if isinstance(expr, _LOOP_NODES):
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


def split_equi_join(cond: ast.Expr, outer_var: str,
                    inner_var: str):
    """Orient an equality condition as equi-join keys, or ``None``.

    Given the condition of the filter-promotion normal form
    ``ext{λx. ext{λy. if cond then {e} else {}}(T)}(S)``, decide whether
    ``cond`` is ``κ(x) = κ'(y)``: an equality whose two sides partition
    the loop variables, one side mentioning at most ``outer_var`` and
    the other at most ``inner_var``.  Returns ``(outer_key, inner_key)``
    with the sides in that order (swapping them when the equality was
    written ``κ'(y) = κ(x)``), or ``None`` when either side mixes both
    variables — then no hash on one side can decide the match and the
    nested loop is the honest plan.

    Shadowing is handled by the same test: if ``κ'`` mentions a *free*
    occurrence of ``outer_var`` it necessarily refers to the inner
    loop's rebinding of that name, so the split is refused.
    """
    if not isinstance(cond, ast.Cmp) or cond.op != "=":
        return None
    if outer_var == inner_var:
        return None  # the inner binder shadows the outer: not a join
    left_free = ast.free_vars(cond.left)
    right_free = ast.free_vars(cond.right)
    if inner_var not in left_free and outer_var not in right_free:
        return cond.left, cond.right
    if outer_var not in left_free and inner_var not in right_free:
        return cond.right, cond.left
    return None


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
           "effective_occurrences", "split_equi_join",
           "has_class", "strip_bounds_checks"]
