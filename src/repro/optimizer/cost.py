"""Static cost estimates: cardinalities and unit costs.

The paper's optimizer architecture registers "rules/cost functions"
into the environment (Section 4.1).  What this module registers is
static — nothing here feeds back into a dispatch decision (those are
the fixed thresholds of :class:`~repro.core.fastpath.DispatchConfig`),
and nothing runs it on the query path: EXPLAIN/``:profile`` price the
reported plan on demand.

:class:`CardinalityEstimator`
    Static size analysis over core expressions: constant tabulation
    bounds, literal set/bag sizes, the naturals, ``Array.dims`` and set
    sizes of ``val``s — a resolved query names a val as a free ``Var``,
    read from the environment's live val table, so the estimator sees
    the data bound *now* — and of ``Const`` nodes (a macro's captured
    vals), ``gen``/``dim_k`` of known extents, and simple propagation
    through union/ext/if.  ``None`` means "unknown" — the caller falls
    back to :data:`ASSUMED_CARDINALITY`.  Arithmetic is deliberately *not*
    folded: the estimator mirrors what the rewrite rules can prove
    (``rules_arith`` folds literal-literal operations only), so an
    extent hidden behind ``(n*7)/7`` stays unknown.

:class:`CostEstimator` / :func:`estimate_cost`
    The unit-cost walk (loops multiply their body by the estimated
    source cardinality), memoized per AST node for the duration of one
    walk — shared-DAG subexpressions are costed once instead of
    exponentially, and nothing outlives the call.

:class:`CostRecord`
    The per-environment entry point: an estimate over the live val
    table, and a count of the estimates made.  See the "Estimates"
    section of ``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core import ast
from repro.objects.array import Array
from repro.objects.bag import Bag

#: assumed cardinality of sets/arrays whose size is unknown statically
ASSUMED_CARDINALITY = 16

class CardinalityEstimator:
    """Static cardinality/extent analysis over core expressions.

    Every method returns a non-negative ``int`` when the quantity is
    statically known, else ``None``.  The analysis is conservative and
    purely syntactic; it never evaluates user code.  ``vals`` maps the
    names a free ``Var`` may read (a binder of the same name hides one:
    see :meth:`under`).
    """

    def __init__(self, vals: Optional[Mapping[str, Any]] = None):
        self.vals: Mapping[str, Any] = vals if vals is not None else {}

    def under(self, binders: Iterable[str]) -> "CardinalityEstimator":
        """The estimator for a subexpression in the scope of ``binders``."""
        if self.vals.keys().isdisjoint(binders):
            return self
        return CardinalityEstimator({name: value for name, value
                                     in self.vals.items()
                                     if name not in binders})

    def _value(self, expr: ast.Expr) -> Any:
        """The value a ``Const`` holds or a free ``Var`` reads, else None."""
        if isinstance(expr, ast.Const):
            return expr.value
        if isinstance(expr, ast.Var):
            return self.vals.get(expr.name)
        return None

    def value_of(self, expr: ast.Expr) -> Optional[int]:
        """The natural-number value of ``expr``, when statically known.

        Literals, ``val``s and constants, and ``dim_1`` of an array whose
        dims are known (:meth:`dims_of`).  No arithmetic folding — see
        the module docstring for why that is a feature.
        """
        if isinstance(expr, ast.NatLit):
            return expr.value
        if isinstance(expr, (ast.Const, ast.Var)):
            value = self._value(expr)
            if isinstance(value, int) and not isinstance(value, bool) \
                    and value >= 0:
                return value
            return None
        if isinstance(expr, ast.Dim) and expr.rank == 1:
            dims = self.dims_of(expr.expr)
            if dims:
                return dims[0]
        return None

    def dims_of(self, expr: ast.Expr) -> Optional[Tuple[int, ...]]:
        """The dimension tuple of an array-valued ``expr``, when known:
        a ``val`` or ``Const`` holding an
        :class:`~repro.objects.array.Array`, a tabulation with known
        bounds, or a ``MkArray`` literal."""
        if isinstance(expr, (ast.Const, ast.Var)):
            value = self._value(expr)
            return tuple(value.dims) if isinstance(value, Array) else None
        if isinstance(expr, ast.Tabulate):
            bounds = [self.value_of(bound) for bound in expr.bounds]
            if all(bound is not None for bound in bounds):
                return tuple(bounds)  # type: ignore[arg-type]
            return None
        if isinstance(expr, ast.MkArray):
            dims = [self.value_of(dim) for dim in expr.dims]
            if all(dim is not None for dim in dims):
                return tuple(dims)  # type: ignore[arg-type]
        return None

    def cardinality(self, expr: ast.Expr) -> Optional[int]:
        """The element count of a set/bag-valued ``expr``, when known.

        Union cardinalities are *upper bounds* (duplicates may
        collapse), which is the right direction for a cost estimate.
        """
        if isinstance(expr, (ast.Const, ast.Var)):
            value = self._value(expr)
            if isinstance(value, (frozenset, Bag)):
                return len(value)
            return None
        if isinstance(expr, (ast.EmptySet, ast.EmptyBag)):
            return 0
        if isinstance(expr, (ast.Singleton, ast.SingletonBag)):
            return 1
        if isinstance(expr, (ast.Union, ast.BagUnion)):
            left = self.cardinality(expr.left)
            right = self.cardinality(expr.right)
            if left is not None and right is not None:
                return left + right
            return None
        if isinstance(expr, ast.Gen):
            return self.value_of(expr.expr)
        if isinstance(expr, (ast.Ext, ast.BagExt)):
            outer = self.cardinality(expr.source)
            inner = self.under((expr.var,)).cardinality(expr.body)
            if outer is not None and inner is not None:
                return outer * inner
            return None
        if isinstance(expr, ast.If):
            then = self.cardinality(expr.then)
            orelse = self.cardinality(expr.orelse)
            if then is not None and orelse is not None:
                return max(then, orelse)
        return None


class CostEstimator:
    """One memoized unit-cost walk.

    Loop bodies are charged the estimated source cardinality (or
    ``assumed`` when unknown).  This deliberately over-counts
    tabulations, which is exactly the β^p/η^p intuition: materialization
    is expensive.  Results are memoized by node identity, so shared-DAG
    subexpressions (the same blow-up family PR 1 defused in eval) are
    costed once.  The memo is a plain dict owned by the instance: build
    one estimator per walk, so the walked expression keeps every
    memoized node alive (ids cannot be recycled) and the memo — with
    the constants its nodes hold — dies with the call.  ``vals`` is
    the live val table (see :class:`CardinalityEstimator`).
    """

    def __init__(self, assumed: int = ASSUMED_CARDINALITY,
                 vals: Optional[Mapping[str, Any]] = None):
        self.assumed = assumed
        self.cards = CardinalityEstimator(vals)
        self._memo: Dict[int, int] = {}

    def _under(self, binders: Iterable[str]) -> "CostEstimator":
        """The walk of a subexpression in the scope of ``binders``."""
        cards = self.cards.under(binders)
        return self if cards is self.cards \
            else CostEstimator(self.assumed, cards.vals)

    def cost(self, expr: ast.Expr) -> int:
        """The memoized unit-cost estimate of evaluating ``expr`` once."""
        key = id(expr)
        units = self._memo.get(key)
        if units is None:
            units = self._memo[key] = self._cost(expr)
        return units

    def _cost(self, expr: ast.Expr) -> int:
        assumed = self.assumed
        if isinstance(expr, ast.LOOP_NODES):
            size = self.cards.cardinality(expr.source)
            if size is None:
                size = assumed
            (source, _), (body, binders) = expr.parts()
            return (1 + self.cost(source)
                    + size * self._under(binders).cost(body))
        if isinstance(expr, ast.Tabulate):
            iterations = 1
            bounds_cost = 0
            for bound in expr.bounds:
                bounds_cost += self.cost(bound)
                extent = self.cards.value_of(bound)
                iterations *= max(extent, 1) if extent is not None \
                    else assumed
            return 1 + bounds_cost + iterations * self._under(
                expr.vars).cost(expr.body)
        if isinstance(expr, ast.IndexSet):
            size = self.cards.cardinality(expr.expr)
            if size is None:
                size = assumed
            return 1 + size + self.cost(expr.expr)
        if isinstance(expr, ast.Gen):
            extent = self.cards.value_of(expr.expr)
            if extent is None:
                extent = assumed
            return 1 + extent + self.cost(expr.expr)
        return 1 + sum(self._under(bound).cost(child) if bound
                       else self.cost(child) for child, bound in expr.parts())


def estimate_cost(expr: ast.Expr, assumed: int = ASSUMED_CARDINALITY,
                  vals: Optional[Mapping[str, Any]] = None) -> int:
    """A unit-cost estimate of evaluating ``expr`` once (one fresh
    :class:`CostEstimator` walk) with ``vals`` bound."""
    return CostEstimator(assumed, vals).cost(expr)


class CostRecord:
    """Unit-cost estimates over the environment's live val table.

    One instance is owned by each :class:`~repro.env.environment.TopEnv`;
    EXPLAIN/``:profile`` ask it for the reported plan's units.
    """

    def __init__(self, vals: Optional[Mapping[str, Any]] = None):
        #: the val table estimates read (held by reference)
        self.vals = vals
        self.estimates = 0

    def estimate(self, expr: ast.Expr) -> Optional[int]:
        """The unit-cost estimate of ``expr``, or ``None`` when the
        expression out-nests the host stack."""
        try:
            units = estimate_cost(expr, vals=self.vals)
        except RecursionError:
            return None
        self.estimates += 1
        return units

    # only benchmarks/suite/layers.py reads this; it goes with optimizer.cost_*
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state: the number of estimates made."""
        return {"cost_estimates": self.estimates}


__all__ = [
    "ASSUMED_CARDINALITY", "CardinalityEstimator", "CostEstimator",
    "CostRecord", "estimate_cost",
]
