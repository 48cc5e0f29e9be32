"""Redundant bounds-check elimination (end of Section 5).

β^p leaves checks ``if e3 < e2 then ... else ⊥``, redundant when the
program had no bounds errors; removing all is undecidable (Prop. 5.1).
Four rules eliminate many, each a :class:`FactSource` giving the facts a
node puts in scope: in ``[[e | .., i < e', ..]]`` and ``⋃/Σ{e | i ∈
gen(e')}``, ``i < e'``; in ``if c then e1 else e2``, ``c`` in ``e1`` and
``¬c`` in ``e2``; under ``k < b ∸ a`` (β^p after ``subseq``), ``a + k <
b``.  A node equal to a form in scope, its mirror or a negation is
decided.  A fact is dropped below a binder rebinding a free variable.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import ast
from repro.optimizer.engine import Phase, Rule, RuleBase

_NEGATE = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "=": "<>", "<>": "="}
_SWAP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}
_LEAVES = {cls for cls in vars(ast).values()  # the classes without parts
           if getattr(cls, "parts", None) is ast.Var.parts}


def _tabulate_facts(expr: ast.Expr) -> Optional[list]:
    """Rule 1: ``i_j < e_j`` is true inside its own tabulation."""
    if isinstance(expr, ast.Tabulate):
        return [(expr.rank, ast.Cmp("<", ast.Var(var), bound), True,
                 (expr.vars, bound))
                for var, bound in zip(expr.vars, expr.bounds)]
    return None


def _gen_facts(expr: ast.Expr) -> Optional[list]:
    """Rule 2: ``i < e`` is true inside ⋃/Σ over ``gen(e)``."""
    if isinstance(expr, (ast.Ext, ast.Sum)) \
            and isinstance(expr.source, ast.Gen):
        return [(1, ast.Cmp("<", ast.Var(expr.var), expr.source.expr),
                 True, ((expr.var,), expr.source.expr))]
    return None


def _if_facts(expr: ast.Expr) -> Optional[list]:
    """Rules 3 and 4: the condition is true in then, false in else."""
    if isinstance(expr, ast.If) and not isinstance(expr.cond, ast.BoolLit):
        return [(1, expr.cond, True, None), (2, expr.cond, False, None)]
    return None


def _monus_facts(expr: ast.Expr) -> Optional[list]:
    """Under ``k < b ∸ a``, ``a + k < b`` and ``k + a < b`` are true."""
    if not isinstance(expr, ast.Tabulate):
        return None
    return [(expr.rank, ast.Cmp("<", ast.Arith("+", *pair), bound.left), True,
             (expr.vars, bound))
            for var, bound in zip(expr.vars, expr.bounds)
            if isinstance(bound, ast.Arith) and bound.op == "-"
            for pair in ((bound.right, ast.Var(var)),
                         (ast.Var(var), bound.right))]


def _decide(node: ast.Expr, form: ast.Expr, truth: bool) -> Optional[bool]:
    """The value of ``node`` where ``form`` is ``truth``, or ``None``."""
    if node == form:
        return truth
    if type(node) is ast.Cmp and type(form) is ast.Cmp:
        for op, left, right in ((form.op, form.left, form.right),
                                (_SWAP[form.op], form.right, form.left)):
            if node.left == left and node.right == right:
                if node.op in (op, _NEGATE[op]):
                    return truth if node.op == op else not truth
    return None


class FactSource(Rule):
    """A rule whose ``fn`` maps a node to the ``(part, form, truth,
    guard)`` facts it puts in scope, or ``None``; a guard ``(names, e)``
    voids a fact if ``e`` reads one of ``names``, which the node binds."""

    def apply(self, expr: ast.Expr) -> Optional[ast.Expr]:
        """The node with its facts decided in its parts, or ``None``."""
        new = expr.children()
        for index, facts in _grouped([self], expr).items():
            classes = frozenset(type(fact[0]) for fact in facts)
            new[index] = _walk(new[index], facts, classes, None)
        changed = any(a is not b for a, b in zip(new, expr.children()))
        return expr.with_parts(new) if changed else None


class BoundsPhase(Phase):
    """Constraint elimination by fact sources; :attr:`normalization` is
    ``normalize``'s own rule base in ``default_optimizer``."""

    def __init__(self, name: str = "bounds",
                 normalization: Optional[RuleBase] = None):
        super().__init__(name, RuleBase(bounds_rules()))
        self.normalization = RuleBase() if normalization is None \
            else normalization

    def walk(self, expr: ast.Expr, tried: bool = False) -> ast.Expr:
        """``expr`` itself if no fact decides a node (one walk); else the
        rules as rewrites with :attr:`normalization` in the engine's walk
        (inner binders first), as always when one is no fact source."""
        if all(isinstance(rule, FactSource) for rule in self.rules) \
                and _walk(expr, [], frozenset(), self.rules) is expr:
            return expr
        engine = Phase(self.name, RuleBase(
            list(self.rules) + list(self.normalization)))
        engine.stats, engine._timed = self.stats, self._timed
        engine.MAX_NODES = self.MAX_NODES
        return engine.walk(expr)


def _walk(node, facts, classes, sources: Optional[RuleBase]):
    """``node`` with each node a fact in scope decides made a literal, the
    rules in ``sources`` offering theirs on the way.  A fact is ``[form,
    truth, free variables once needed, guard]``, of node ``classes``."""
    if type(node) in classes:
        for form, truth, _, guard in facts:
            outcome = _decide(node, form, truth)
            if outcome is not None and (guard is None or set(
                    guard[0]).isdisjoint(ast.free_vars(guard[1]))):
                return ast.BoolLit(outcome)
    rules = None if sources is None else sources.candidates(type(node))
    offered = _grouped(rules, node) if rules else None
    parts, children = node.parts(), None
    for index, (child, bound) in enumerate(parts):
        inner, inner_classes = facts, classes
        if bound and facts:
            for fact in facts:
                if fact[2] is None:
                    fact[2] = ast.free_vars(fact[0])
            inner = [fact for fact in facts if fact[2].isdisjoint(bound)]
            if len(inner) < len(facts):
                inner_classes = frozenset(type(fact[0]) for fact in inner)
        if offered and index in offered:
            inner = inner + offered[index]
            inner_classes = inner_classes.union(
                type(fact[0]) for fact in offered[index])
        kind = type(child)
        if kind in inner_classes or kind not in _LEAVES and (
                inner or sources is not None):
            new = _walk(child, inner, inner_classes, sources)
            if new is not child:
                children = children or [old for old, _ in parts]
                children[index] = new
    return node if children is None else node.with_parts(children)


def _grouped(rules, node) -> dict:
    """The facts the ``rules`` offer at ``node``, by part index."""
    grouped: dict = {}
    for rule in rules:
        for index, form, truth, guard in rule.fn(node) or ():
            grouped.setdefault(index, []).append([form, truth, None, guard])
    return grouped


def bounds_rules() -> List[Rule]:
    """The constraint-elimination fact sources of Section 5."""
    return [
        FactSource("tabulate-bound-elim", _tabulate_facts, "i_j < e_j is "
                   "true inside its tabulation", roots=(ast.Tabulate,)),
        FactSource("gen-bound-elim", _gen_facts, "i < e is true inside "
                   "⋃/Σ over gen(e)", roots=(ast.Ext, ast.Sum)),
        FactSource("if-branch-elim", _if_facts, "condition is true in "
                   "then, false in else", roots=(ast.If,)),
        FactSource("monus-bound-elim", _monus_facts, "k < b ∸ a implies "
                   "a + k < b", roots=(ast.Tabulate,)),
    ]


__all__ = ["BoundsPhase", "FactSource", "bounds_rules"]
