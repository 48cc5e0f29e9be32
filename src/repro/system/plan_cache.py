"""A compiled-query plan cache for the repeated-query serving path.

The Section 4.1 pipeline (parse → desugar → resolve → typecheck →
optimize → evaluate) is re-run from scratch for every statement a
:class:`~repro.system.session.Session` executes, and the observability
layer shows the ``optimize`` span dominating repeated-query latency.
This module caches the *result* of that pipeline — the optimized core,
its inferred type, and (from the entry's first hit on) the generated
closure — so a repeated query goes straight to evaluation.

Keying
------

Entries are keyed on :func:`fingerprint`, a canonical structural
fingerprint of the desugared core expression: binders are numbered by
de-Bruijn-style levels, so any two α-equivalent spellings of the same
query (different binder names, whitespace, sugar that desugars
identically) share one entry.  The environment's *meaning* for the
query's free names is folded in through generation counters rather than
through substitution, which keeps a cache probe O(|query|) — resolution
(which splices in full macro bodies) never runs on the hit path.

Invalidation contract
---------------------

Correctness hinges on never reusing a stale plan.  Two mechanisms, both
driven by :class:`~repro.env.environment.TopEnv` mutation accounting:

* **structural registrations** (primitives, macros, rewrite rules) bump
  the environment's global generation; every cached plan was compiled
  under some generation and is invalidated when it changes;
* **value rebinding** (``set_val``, including the ``readval`` path)
  bumps a per-name generation, invalidating exactly the plans whose
  source *references* that name (each entry records its free names) —
  plans that do not mention the name survive.

Eager invalidation runs through the listener :meth:`PlanCache.on_env_mutation`
(subscribed by the owning session); the per-entry generation check in
:meth:`PlanCache.lookup` is the backstop that makes stale reuse
impossible even for mutations performed behind the listener's back.

The cache is LRU-bounded (``capacity`` entries, 0 disables) and fully
observable: hit/miss/eviction/invalidation counters are surfaced in
:class:`~repro.obs.explain.ExplainReport`, ``:profile``, and the REPL's
``:cache`` command.  See ``docs/PLAN_CACHE.md``.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Optional

from repro.core import ast

#: default LRU capacity of a session's plan cache
DEFAULT_CAPACITY = 128


# ---------------------------------------------------------------------------
# canonical structural fingerprints
# ---------------------------------------------------------------------------

def fingerprint(expr: ast.Expr) -> Hashable:
    """A canonical structural fingerprint of a core expression.

    α-equivalent expressions (equal up to consistent renaming of bound
    variables) produce equal fingerprints: bound variables are replaced
    by de-Bruijn-style binding levels, free variables keep their names,
    and every non-expression field (operators, ranks, literal values)
    participates verbatim.  The result is a nested tuple usable as a
    dictionary key.
    """
    return _fp(expr, {}, [0])


def _fp(expr: ast.Expr, env: Dict[str, int], counter) -> Hashable:
    if isinstance(expr, ast.Var):
        level = env.get(expr.name)
        if level is not None:
            return ("bound", level)
        return ("free", expr.name)
    label = [type(expr).__name__]
    for fld in dataclasses.fields(expr):  # type: ignore[arg-type]
        if fld.name in expr.BINDER_FIELDS:
            continue
        value = getattr(expr, fld.name)
        if isinstance(value, ast.Expr):
            continue  # reached through parts()
        if isinstance(value, tuple) and value \
                and isinstance(value[0], ast.Expr):
            continue
        label.append(_hashable(value))
    children = []
    for child, bound in expr.parts():
        if bound:
            child_env = dict(env)
            for name in bound:
                counter[0] += 1
                child_env[name] = counter[0]
            children.append(_fp(child, child_env, counter))
        else:
            children.append(_fp(child, env, counter))
    return (tuple(label), tuple(children))


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:  # pragma: no cover - complex objects hash by design
        return repr(value)


# ---------------------------------------------------------------------------
# cache entries and executable plans
# ---------------------------------------------------------------------------

@dataclass
class PlanEntry:
    """One cached compilation: optimized core plus validity metadata."""

    key: Hashable
    core: ast.Expr
    inferred: Any                     # the inferred Type
    free_names: FrozenSet[str]        # free vars of the *pre-resolve* core
    generation: int                   # TopEnv.generation at compile time
    val_generations: Dict[str, int]   # per-free-name val generations
    #: the :class:`~repro.core.compile.CompiledEvaluator` holding the
    #: generated closure; ``None`` until the entry's first hit, because
    #: most entries of a cold workload are never hit and a closure is
    #: the bulk of an entry
    evaluator: Any = None
    #: the unit-cost estimate for :attr:`core` (None: not estimable)
    estimated_units: Optional[float] = None


@dataclass
class Plan:
    """An executable query plan handed to the session's evaluate step."""

    core: ast.Expr
    inferred: Any
    cached: bool = False
    #: the :class:`~repro.core.compile.CompiledEvaluator` holding the
    #: unprobed closure for :attr:`core`, or None when the plan was
    #: prepared with observability on (the run generates probed code)
    evaluator: Any = None
    #: the backing :class:`PlanEntry` (None when caching is disabled)
    entry: Any = None
    #: the unit-cost estimate for :attr:`core` (None: not estimable)
    estimated_units: Optional[float] = None


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction/invalidation counters, per cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def to_dict(self) -> Dict[str, int]:
        """A JSON-safe snapshot of every counter."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def render(self) -> str:
        """The one-line counter summary used by ``:cache``/``:profile``."""
        return (f"hits {self.hits}  misses {self.misses}  "
                f"evictions {self.evictions}  "
                f"invalidations {self.invalidations}")


class PlanCache:
    """A bounded LRU cache of compiled query plans.

    Owned by a :class:`~repro.system.session.Session`; consulted by
    :meth:`Session.prepare` before the resolve → typecheck → optimize
    pipeline and written back after a miss.  See the module docstring
    for the keying and invalidation contract.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[Hashable, PlanEntry]" = OrderedDict()

    # -- basics -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether caching is on (a non-positive capacity disables it)."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(core: ast.Expr, optimize: bool) -> Hashable:
        """The cache key: canonical fingerprint + pipeline configuration."""
        return (fingerprint(core), bool(optimize))

    # -- lookup / insert --------------------------------------------------

    def lookup(self, key: Hashable, env) -> Optional[PlanEntry]:
        """Return a *valid* entry for ``key`` (LRU-touched), else None.

        Validity re-checks the environment's generation counters, so a
        mutation that somehow bypassed eager invalidation still cannot
        resurrect a stale plan — it is dropped here and counted.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if not self._valid(entry, env):
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def _valid(self, entry: PlanEntry, env) -> bool:
        if entry.generation != env.generation:
            return False
        for name, generation in entry.val_generations.items():
            if env.val_generation(name) != generation:
                return False
        return True

    def insert(self, key: Hashable, core: ast.Expr, inferred: Any,
               free_names: Iterable[str], env,
               estimated_units: Optional[float] = None
               ) -> Optional[PlanEntry]:
        """Record a freshly compiled plan; evicts LRU entries over capacity."""
        if not self.enabled:
            return None
        names = frozenset(free_names)
        entry = PlanEntry(
            key=key,
            core=core,
            inferred=inferred,
            free_names=names,
            generation=env.generation,
            val_generations={name: env.val_generation(name)
                             for name in names},
            estimated_units=estimated_units,
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    # -- invalidation -----------------------------------------------------

    def on_env_mutation(self, kind: str, name: Optional[str] = None) -> None:
        """The :meth:`TopEnv.add_mutation_listener` hook.

        ``val`` rebindings invalidate only the plans referencing the
        rebound name; structural registrations (primitive/macro/rule)
        flush everything — their effect on resolution and optimization
        is global.
        """
        if kind == "val" and name is not None:
            self.invalidate_name(name)
        else:
            self.invalidate_all()

    def invalidate_name(self, name: str) -> int:
        """Drop every entry whose source references ``name`` free."""
        stale = [key for key, entry in self._entries.items()
                 if name in entry.free_names]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        """Drop every entry (structural environment change)."""
        count = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += count
        return count

    def clear(self) -> None:
        """Empty the cache without counting invalidations (``:cache clear``)."""
        self._entries.clear()

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Occupancy + counters, JSON-safe (embedded in ExplainReport).

        ``replans`` is a constant 0 — a cached plan is never recompiled —
        kept because ``benchmarks/suite/trial.py`` reads the key.
        """
        return {"capacity": self.capacity, "entries": len(self._entries),
                **self.stats.to_dict(), "replans": 0}

    def render(self) -> str:
        """The human-readable ``:cache`` text."""
        return (f"plan cache: {len(self._entries)}/{self.capacity} entries\n"
                f"{self.stats.render()}")

    def __repr__(self) -> str:
        return (f"PlanCache({len(self._entries)}/{self.capacity}, "
                f"hits={self.stats.hits}, misses={self.stats.misses})")


__all__ = [
    "DEFAULT_CAPACITY",
    "Plan",
    "PlanCache",
    "PlanCacheStats",
    "PlanEntry",
    "fingerprint",
]
