"""Set-engine fast paths: hash equi-joins and sort-based ``index_k``.

The kernel backend makes the paper's *array* half fast (vectorized
tabulation); this module does the same for the NRC *set* half.  Two
fast paths, both dispatched from the code
:class:`~repro.core.compile.Compiler` emits:

**Hash equi-join** — the filter-promotion normal form the optimizer's
NRC rules leave a relational join in is::

    ext{λx. ext{λy. if κ(x) = κ'(y) then e else {}}(T)}(S)

(:func:`recognize_join`; key orientation by
:func:`repro.optimizer.analysis.split_equi_join`).  The naive loops
evaluate the condition |S|·|T| times; the fast path evaluates κ' once
per element of the smaller side to build a hash index, probes it once
per element of the larger side, and evaluates ``e`` only for matching
pairs — O(|S|+|T|+matches).  Skipped pairs are sound because the
else-branch is syntactically ``{}``: a non-matching pair contributes
the empty set and *cannot* raise, so leaving it out changes nothing.

**Sort-based grouping** — :func:`index_set_sorted` replaces the
dict-of-sets materialization of :func:`repro.objects.array.index_set`
with a sort of the (key, value) pairs and one sweep emitting group slices
into a stride-addressed flat cell list.  Holes share one empty
frozenset instead of allocating per cell, which is what makes
sparse/skewed domains cheap; the sweep also yields the *true* largest
group size for the probe (``max_group_size``).  Which of the two an
``index_k`` takes is decided in :func:`index_set_dispatch`.

Discipline (the proof-or-fallback contract of :mod:`repro.core.kernels`):

* Every entry point returns the finished value or ``None``; ``None``
  means "run the naive loop".
* Hashing uses :class:`HashKey`, whose equality *is* the calculus's
  ``value_equal`` (so ``1``, ``1.0`` and ``true`` stay distinct keys,
  exactly as ``κ(x) = κ'(y)`` would judge them) and whose hash is the
  host hash (sound because ``value_equal`` refines Python ``==``).
* **Error identity**: anything raised inside a fast path — ⊥, a type
  error from a malformed value, anything — discards *all* fast-path
  work, including forked probe counters, and the caller's naive loop
  reruns the construct so the canonical error (and its probe counts)
  surface unchanged.
* **Probe exactness**: probed runs evaluate through a private
  ``probe.fork()`` worker merged back only on success; a probe that
  cannot fork opts out of the fast path entirely.

Gating: the size predicates of
:class:`~repro.core.fastpath.DispatchConfig` (``wants_hash_join`` on
|S|·|T| and |T|, ``wants_sorted_grouping`` on |pairs| and the extent), a
per-session ``config.setops`` switch (``Session(setops=False)``,
``:setops off``), and the process-wide ``REPRO_NO_SETOPS=1`` kill
switch.  See ``docs/SETOPS.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, List, Optional, Tuple

from repro.core import ast
from repro.objects.array import Array, collect_index_pairs, stats_from_items
from repro.objects.values import value_equal

#: kill switch — mirrors ``kernels.ENABLED``
ENABLED = os.environ.get("REPRO_NO_SETOPS", "") != "1"


def available(config: Any) -> bool:
    """Can a set-engine dispatch be attempted under ``config`` at all?

    The minimum-size floor is checked at each dispatch site (it needs
    the evaluated operand sizes); this checks the switches.
    """
    return ENABLED and config is not None and getattr(config, "setops", True)


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


@dataclass(frozen=True)
class JoinShape:
    """The pieces of a recognized equi-join comprehension."""

    outer_var: str        # x, bound by the outer ext over S
    inner_var: str        # y, bound by the inner ext over T
    inner_source: ast.Expr   # T (free of x)
    outer_key: ast.Expr      # κ(x)   (free of y)
    inner_key: ast.Expr      # κ'(y)  (free of x)
    match_body: ast.Expr     # e, evaluated per matching pair


def recognize_join(expr: ast.Ext) -> Optional[JoinShape]:
    """Match the equi-join normal form, or ``None``.

    Requirements, each of which the executors rely on:

    * the body is an inner ``ext`` whose own body is
      ``if cond then e else {}`` with a *syntactic* ``{}`` else-branch
      (so skipped pairs provably contribute nothing and cannot raise);
    * the inner source ``T`` does not mention the outer variable (so it
      can be evaluated once instead of per outer element);
    * ``cond`` splits as ``κ(x) = κ'(y)`` — see
      :func:`repro.optimizer.analysis.split_equi_join`, which also
      rejects shadowing (``x`` free in κ' would refer to the rebound
      name) and same-named binders.
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
    # late import: the optimizer package depends on repro.core, so the
    # module-level direction must stay core -> (nothing above core)
    from repro.optimizer.analysis import split_equi_join

    keys = split_equi_join(inner.cond, expr.var, body.var)
    if keys is None:
        return None
    return JoinShape(expr.var, body.var, body.source,
                     keys[0], keys[1], inner.then)


# -- hash-join execution -----------------------------------------------------


def _fork_probe(probe):
    """``(ok, forked)`` — ``ok`` False declines the whole dispatch."""
    if probe is None:
        return True, None
    fork = getattr(probe, "fork", None)
    if fork is None or not hasattr(probe, "merge"):
        return False, None
    forked = fork()
    if forked is None:
        return False, None
    return True, forked


def compile_join_pieces(compiler, expr: ast.Ext, shape: JoinShape,
                        scope: Tuple[str, ...]):
    """Compile the four join sub-expressions under their own scopes.

    Each piece's free variables are a subset of its scope by the
    recognition guarantees, so these compiles cannot fail where the
    naive body compile succeeded.
    """
    return (
        compiler.compile(shape.inner_source, scope),
        compiler.compile(shape.outer_key, scope + (shape.outer_var,)),
        compiler.compile(shape.inner_key, scope + (shape.inner_var,)),
        compiler.compile(shape.match_body,
                         scope + (shape.outer_var, shape.inner_var)),
    )


def hash_join(compiler, expr: ast.Ext, shape: JoinShape,
              scope: Tuple[str, ...], pieces, env: List[Any],
              source: frozenset) -> Optional[frozenset]:
    """Hash-join a recognized ``ext``, or ``None`` for the naive loop.

    ``pieces`` are the unprobed plan functions compiled with the
    enclosing plan, over ``scope`` (the names the ``ext`` reads from
    outside, whose values ``env`` holds); a probed dispatch recompiles
    them against a worker compiler bound to the forked probe, so
    instrumented code never reports into the parent probe until the
    join has succeeded.
    """
    probe = compiler.probe
    ok, forked = _fork_probe(probe)
    if not ok:
        return None
    if forked is not None:
        from repro.core.compile import Compiler

        worker = Compiler(compiler.prims, probe=forked,
                          dispatch=compiler.dispatch)
        try:
            pieces = compile_join_pieces(worker, expr, shape, scope)
        except Exception:
            return None
    if pieces is None:
        return None
    inner_source_code, outer_key_code, inner_key_code, body_code = pieces
    try:
        inner_source = inner_source_code(env)
        if not isinstance(inner_source, frozenset):
            return None
        total = len(source) * len(inner_source)
        if not compiler.dispatch.wants_hash_join(total, len(inner_source)):
            return None  # below the floor: recognition cost wins
        matched = 0
        out: set = set()
        # one frame per dispatch, not one list per element: ``keyed``
        # binds the element being keyed, ``frame`` binds (x, y)
        depth = len(env)
        keyed = env + [None]
        frame = env + [None, None]
        index: dict = {}
        if len(inner_source) <= len(source):
            for y in inner_source:
                keyed[depth] = y
                index.setdefault(HashKey(inner_key_code(keyed)),
                                 []).append(y)
            for x in source:
                keyed[depth] = x
                bucket = index.get(HashKey(outer_key_code(keyed)))
                if bucket:
                    frame[depth] = x
                    for y in bucket:
                        frame[depth + 1] = y
                        out |= body_code(frame)
                        matched += 1
        else:
            for x in source:
                keyed[depth] = x
                index.setdefault(HashKey(outer_key_code(keyed)),
                                 []).append(x)
            for y in inner_source:
                keyed[depth] = y
                bucket = index.get(HashKey(inner_key_code(keyed)))
                if bucket:
                    frame[depth + 1] = y
                    for x in bucket:
                        frame[depth] = x
                        out |= body_code(frame)
                        matched += 1
        result = frozenset(out)
    except Exception:
        # the naive rerun raises the canonical error with canonical
        # probe counts; everything counted into `forked` is discarded
        return None
    if probe is not None:
        probe.merge(forked)
        probe.on_join(matched, total - matched)
    return result


# -- sort-based index_k grouping ---------------------------------------------

def index_set_sorted(pairs, rank: int):
    """Sort-and-sweep ``index_k``: ``(Array, groups, max_group)``.

    Shares pair validation with the naive path
    (:func:`repro.objects.array.collect_index_pairs`) so a malformed
    pair raises the identical error either way.
    """
    items, maxima = collect_index_pairs(pairs, rank)
    if not items:
        return Array((0,) * rank, []), 0, 0
    return sorted_from_items(items, maxima)


def sorted_from_items(items, maxima):
    """The sweep proper, over pre-validated non-empty ``(key, value)``
    items.  Keys are tuples of naturals, so the native tuple order *is*
    the canonical order; the sort compares keys only (values of mixed
    kinds are not mutually orderable and never need to be).
    """
    rank = len(maxima)
    dims = [m + 1 for m in maxima]
    strides = [0] * rank
    acc = 1
    for axis in range(rank - 1, -1, -1):
        strides[axis] = acc
        acc *= dims[axis]
    items.sort(key=itemgetter(0))
    hole = frozenset()
    values = [hole] * acc  # one shared empty set for every hole
    groups = 0
    max_group = 0
    i = 0
    n = len(items)
    while i < n:
        key = items[i][0]
        j = i + 1
        while j < n and items[j][0] == key:
            j += 1
        group = frozenset(value for _, value in items[i:j])
        offset = 0
        for position, stride in zip(key, strides):
            offset += position * stride
        values[offset] = group
        groups += 1
        if len(group) > max_group:
            max_group = len(group)
        i = j
    return Array(dims, values), groups, max_group


def index_set_dispatch(pairs, rank: int, config):
    """Build an ``index_k`` array the fastest provable way.

    Returns ``(Array, groups, max_group, sorted_used)``.  Validation
    runs exactly once (it raises the canonical error regardless of
    path); the sort-based sweep (:func:`sorted_from_items`) engages
    when :meth:`~repro.core.fastpath.DispatchConfig.wants_sorted_grouping`
    says holes dominate, because on dense key domains the dict pass is
    measurably faster (see ``benchmarks/BENCH_index_groupby.json``).
    Any failure inside the sweep falls back to the dict path.
    """
    items, maxima = collect_index_pairs(pairs, rank)
    if not items:
        return Array((0,) * rank, []), 0, 0, False
    if available(config) and isinstance(pairs, frozenset):
        cells = 1
        for m in maxima:
            cells *= m + 1
        if config.wants_sorted_grouping(len(items), cells):
            try:
                array, groups, max_group = sorted_from_items(items, maxima)
                return array, groups, max_group, True
            except Exception:
                pass
    array, groups, max_group = stats_from_items(items, maxima)
    return array, groups, max_group, False


__all__ = [
    "ENABLED", "available", "HashKey", "JoinShape", "recognize_join",
    "compile_join_pieces", "hash_join",
    "index_set_sorted", "sorted_from_items", "index_set_dispatch",
]
