"""Set-engine fast path: recognising the hash equi-join.

The kernel backend makes the paper's *array* half fast (vectorized
tabulation); this module does the same for the NRC *set* half's joins.
(``index_k`` has no fast path to choose: its one grouping routine is
:func:`repro.objects.array.index_set_stats`, shared with the reference
evaluator.)

**Hash equi-join** — the filter-promotion normal form the optimizer's
NRC rules leave a relational join in is::

    ext{λx. ext{λy. if κ(x) = κ'(y) then e else {}}(T)}(S)

(:func:`recognize_join`; key orientation by :func:`split_equi_join`).
The naive loops evaluate the condition |S|·|T| times.  For a recognised
join :meth:`repro.core.compile.Compiler._loop` emits, ahead of that
loop, a block of plan lines that evaluates κ' once per element of T to
build a hash index, probes it once per element of S, and evaluates
``e`` only for matching pairs — O(|S|+|T|+matches).  Skipped pairs are
sound because the else-branch is syntactically ``{}``: a non-matching
pair contributes the empty set and *cannot* raise, so leaving it out
changes nothing.

Discipline (the proof-or-fallback contract of :mod:`repro.core.kernels`):

* Hashing uses :class:`HashKey`, whose equality *is* the calculus's
  ``value_equal`` (so ``1``, ``1.0`` and ``true`` stay distinct keys,
  exactly as ``κ(x) = κ'(y)`` would judge them) and whose hash is the
  host hash (sound because ``value_equal`` refines Python ``==``).
  A plan kept by the plan cache, typed once, hashes keys raw where
  their type proves host equality is ``value_equal``
  (:func:`hashes_raw`).
* **Error identity**: anything raised inside the block — ⊥, a type
  error from a malformed value, anything — discards its work, a probe
  is restored to its snapshot from before the block, and the naive loop
  after it reruns the construct so the canonical error (and its probe
  counts) surface unchanged.

Gating: :meth:`~repro.core.fastpath.DispatchConfig.wants_hash_join` on
|S|·|T| and |T|, nothing else.  See ``docs/SETOPS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core import ast
from repro.objects.values import value_equal
from repro.types.types import TBool, TNat, TProduct, TString

class HashKey:
    """A join key wrapped so dict equality is the calculus's equality.

    ``value_equal`` distinguishes ``1`` / ``1.0`` / ``true`` (kind
    before value), while Python's ``hash`` maps all three to the same
    bucket — which is exactly what a correct wrapper needs:
    ``value_equal(a, b)`` implies ``a == b`` implies
    ``hash(a) == hash(b)``, so equal keys always collide and the dict
    resolves them with :meth:`__eq__`, i.e. with ``value_equal``.

    :class:`~repro.objects.array.Array` keys need no host-hash crutch
    anymore: its ``__eq__``/``__hash__`` are themselves kind-first
    (``[[1]]``, ``[[1.0]]`` and ``[[true]]`` hash apart), so array keys
    of different element kinds usually land in *different* buckets —
    the wrapper's soundness argument above still holds, collisions just
    got rarer.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Any):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return value_equal(self.value, other.value)  # type: ignore[union-attr]


def hashes_raw(key_type: Any) -> bool:
    """Whether join keys of ``key_type`` may hash without
    :class:`HashKey`: built of nats, bools and strings only, where host
    equality *is* ``value_equal`` for values of one type.  A real (NaN,
    -0.0) or a type variable (no proof) keeps the wrapper."""
    if type(key_type) is TProduct:
        return all(map(hashes_raw, key_type.items))
    return type(key_type) in (TNat, TBool, TString)


@dataclass(frozen=True)
class JoinShape:
    """The pieces of a recognized equi-join comprehension."""

    outer_var: str        # x, bound by the outer ext over S
    inner_var: str        # y, bound by the inner ext over T
    inner_source: ast.Expr   # T (free of x)
    outer_key: ast.Expr      # κ(x)   (free of y)
    inner_key: ast.Expr      # κ'(y)  (free of x)
    match_body: ast.Expr     # e, evaluated per matching pair


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


def recognize_join(expr: ast.Ext) -> Optional[JoinShape]:
    """Match the equi-join normal form, or ``None``.

    Requirements, each of which the emitted block relies on:

    * the body is an inner ``ext`` whose own body is
      ``if cond then e else {}`` with a *syntactic* ``{}`` else-branch
      (so skipped pairs provably contribute nothing and cannot raise);
    * the inner source ``T`` does not mention the outer variable (so it
      can be evaluated once instead of per outer element);
    * ``cond`` splits as ``κ(x) = κ'(y)`` — see :func:`split_equi_join`,
      which also rejects shadowing (``x`` free in κ' would refer to the
      rebound name) and same-named binders.
    """
    body = expr.body
    if not isinstance(body, ast.Ext):
        return None
    inner = body.body
    if not isinstance(inner, ast.If) \
            or not isinstance(inner.orelse, ast.EmptySet):
        return None
    if expr.var == body.var:
        return None
    if expr.var in ast.free_vars(body.source):
        return None
    keys = split_equi_join(inner.cond, expr.var, body.var)
    if keys is None:
        return None
    return JoinShape(expr.var, body.var, body.source,
                     keys[0], keys[1], inner.then)


__all__ = ["HashKey", "JoinShape", "hashes_raw", "split_equi_join",
           "recognize_join"]
