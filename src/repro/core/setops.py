"""Set-engine fast path: the hash equi-join.

The kernel backend makes the paper's *array* half fast (vectorized
tabulation); this module does the same for the NRC *set* half's joins,
dispatched from the code :class:`~repro.core.compile.Compiler` emits.
(``index_k`` has no fast path to choose: its one grouping routine is
:func:`repro.objects.array.index_set_stats`, shared with the reference
evaluator.)

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

Discipline (the proof-or-fallback contract of :mod:`repro.core.kernels`):

* :func:`hash_join` returns the finished value or ``None``; ``None``
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

Gating: :meth:`~repro.core.fastpath.DispatchConfig.wants_hash_join` on
|S|·|T| and |T|, nothing else.  See ``docs/SETOPS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core import ast
from repro.objects.values import value_equal

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


__all__ = [
    "HashKey", "JoinShape", "recognize_join", "compile_join_pieces",
    "hash_join",
]
