"""A compiled-query plan cache for the repeated-query serving path.

The Section 4.1 pipeline (parse → desugar → resolve → typecheck →
optimize → evaluate) is re-run from scratch for every statement a
:class:`~repro.system.session.Session` executes, and the observability
layer shows the ``optimize`` span dominating repeated-query latency.
This module caches the *result* of that pipeline — the optimized core,
its inferred type as the echo prints it, and (from the entry's first
hit on) the generated plan function — so a repeated query goes straight
to evaluation.

Keying
------

Entries are keyed on :func:`~repro.core.ast.fingerprint`, a canonical
structural fingerprint of the desugared core expression: binders are
numbered by de-Bruijn-style levels, so any two α-equivalent spellings of
the same query (different binder names, whitespace, sugar that desugars
identically) share one entry.  The environment's *meaning* for the
query's free names is folded in through a counter and val schemes, not
through substitution, which keeps a cache probe O(|query|) — resolution
(which splices in full macro bodies) never runs on the hit path.

Invalidation contract
---------------------

Correctness hinges on never reusing a stale plan, and this module alone
decides it.  No value enters a plan (a val is a parameter its code
reads), so staleness is read off what the environment keeps:

* **the stamp** — the environment's generation (bumped by every
  primitive, macro and rule registration) and each optimizer phase with
  its rule base's version (moved also by a direct
  ``optimizer.phase(p).rules`` edit, which the environment never hears
  of).  The cache holds one and compares it before serving any plan;
  when it has moved, every entry and the statement table are dropped,
  each entry counted as an invalidation;
* **value (re)bindings** (``set_val``, including the ``readval`` path)
  give the name a new scheme object (:meth:`TopEnv.val_scheme` returns
  one per binding); each entry records, per free name, the one it was
  planned under (``None``: not a val).  A new object keeps the entry if
  it equals the recorded scheme (the same type) and drops it otherwise —
  an empty collection's type has fresh variables.

So a registration empties a cache at its next access, whatever path the
mutation took; the environment holds no reference to any cache.

A statement table maps a query's source text (and ``optimize``) to the
key its desugared core had: parse and desugar read no environment, so
:meth:`PlanCache.probe` finds a repeated text's entry without them, and
the session runs that entry's plan function directly.

The cache is LRU-bounded (``capacity`` entries, 0 disables) and fully
observable: hit/miss/eviction/invalidation counters are surfaced in
:class:`~repro.obs.explain.ExplainReport`, ``:profile``, and the REPL's
``:cache`` command.  See ``docs/PLAN_CACHE.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.core import ast
from repro.core.ast import fingerprint
from repro.types.types import TypeScheme

#: default LRU capacity of a session's plan cache
DEFAULT_CAPACITY = 128


# ---------------------------------------------------------------------------
# cache entries and executable plans
# ---------------------------------------------------------------------------

@dataclass
class PlanEntry:
    """One cached compilation: optimized core plus validity metadata."""

    key: Hashable
    core: ast.Expr
    #: the inferred type as an echo prints it, shown once by the miss
    echo: str
    #: per free name of the *pre-resolve* core: the ``TopEnv.val_scheme``
    #: object the plan was last validated under (None: not a val)
    vals: Dict[str, Optional[TypeScheme]]
    #: the :class:`~repro.core.compile.CompiledEvaluator` holding the
    #: generated plan function; ``None`` until the entry's first hit,
    #: because most entries of a cold workload are never hit and the
    #: function (with its slots) is the bulk of an entry
    evaluator: Any = None
    types: Any = None

    def node_types(self, env) -> Any:
        """``TopEnv.node_types`` of :attr:`core`, computed by the first
        typed emission and reused by every probed one."""
        if self.types is None:
            self.types = env.node_types(self.core)
        return self.types


@dataclass
class Plan:
    """An executable query plan handed to the session's evaluate step."""

    core: ast.Expr
    echo: str                         # as for :attr:`PlanEntry.echo`
    cached: bool = False
    #: the :class:`~repro.core.compile.CompiledEvaluator` holding the
    #: unprobed plan function for :attr:`core`, or None when the plan was
    #: prepared with observability on (the run generates probed code)
    evaluator: Any = None
    #: the backing :class:`PlanEntry` (None when caching is disabled)
    entry: Any = None


class _Key(tuple):
    """A cache key, ``(fingerprint, optimize)``, hashed once: the
    fingerprint is a deep tuple and a table hit looks the key up twice."""

    def __new__(cls, *parts: Any) -> "_Key":
        key = super().__new__(cls, parts)
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self.hash


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction/invalidation counters, per cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def to_dict(self) -> Dict[str, int]:
        """A JSON-safe snapshot of every counter."""
        return asdict(self)

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
        #: the statement table: (source text, optimize) -> entry key
        self._texts: "OrderedDict[Tuple[str, bool], Any]" = OrderedDict()
        #: what every entry was compiled under (see :meth:`_restamp`)
        self._stamp: Any = None

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
        return _Key(fingerprint(core), bool(optimize))

    # -- lookup / insert --------------------------------------------------

    def lookup(self, key: Hashable, env) -> Optional[PlanEntry]:
        """Return a *valid* entry for ``key`` (LRU-touched), else None.

        The stamp is compared first; an entry whose vals were rebound to
        another type is dropped here and counted.
        """
        self._restamp(env)
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

    def probe(self, text: str, optimize: bool, env) -> Optional[PlanEntry]:
        """The statement table's entry for ``text`` if valid (a counted,
        LRU-touched hit), else None; an entry stale by its vals counts
        nothing here, for the fallback path's :meth:`lookup` to judge
        and count."""
        key = self._texts.get((text, optimize))
        if key is None:
            return None
        self._restamp(env)
        entry = self._entries.get(key)
        if entry is None or not self._valid(entry, env):
            return None
        self._texts.move_to_end((text, optimize))
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def record(self, text: str, optimize: bool,
               entry: Optional[PlanEntry]) -> None:
        """Map ``text`` to ``entry``'s key (LRU, ``capacity`` texts)."""
        if entry is None:
            return
        self._texts[(text, optimize)] = entry.key
        self._texts.move_to_end((text, optimize))
        if len(self._texts) > self.capacity:
            self._texts.popitem(last=False)

    def _restamp(self, env) -> None:
        """Drop every entry, counted, when the stamp has moved: the
        environment's generation, or the optimizer's phases and their
        rule-base versions."""
        stamp = (env.generation, [(phase, phase.rules.version)
                                  for phase in env.optimizer.phases])
        if stamp != self._stamp:
            self._stamp = stamp
            self.invalidate_all()

    def _valid(self, entry: PlanEntry, env) -> bool:
        """Whether ``entry``'s vals still have the types it was planned
        for (the stamp is compared before this runs)."""
        vals = entry.vals
        for name, scheme in vals.items():
            now = env.val_scheme(name)
            if now is not scheme:
                # type variables are fresh per binding: never equal
                if scheme is None or now != scheme:
                    return False
                vals[name] = now  # the same type: the plan reads the value
        return True

    def insert(self, key: Hashable, core: ast.Expr, echo: str,
               free_names: Iterable[str], env) -> Optional[PlanEntry]:
        """Record a plan compiled under the stamp its miss's :meth:`lookup`
        took (or takes one); evicts LRU entries over capacity."""
        if not self.enabled:
            return None
        if self._stamp is None:
            self._restamp(env)
        entry = PlanEntry(
            key=key,
            core=core,
            echo=echo,
            vals={name: env.val_scheme(name) for name in free_names},
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    # -- invalidation -----------------------------------------------------

    def invalidate_all(self) -> int:
        """Drop every entry and text, counting each entry invalidated."""
        count = len(self._entries)
        self.clear()
        self.stats.invalidations += count
        return count

    def clear(self) -> None:
        """Empty the cache without counting invalidations (``:cache clear``)."""
        self._entries.clear()
        self._texts.clear()

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
]
