"""Shared gating configuration for the evaluator fast paths.

Three fast paths sit in front of the scalar loops: the numpy-vectorized
kernel backend (:mod:`repro.core.kernels`), the sharded parallel
executor (:mod:`repro.core.parallel`), and the set-engine layer
(:mod:`repro.core.setops` — hash equi-joins and sort-based ``index_k``
grouping).  Each pays a fixed dispatch cost (kernel recognition + grid
setup; shard partitioning + pool hand-off; join-shape recognition +
hash-index build), so all are gated on the same minimum-cells floor.
Before this module existed the floor lived inside ``kernels.py`` and a
second fast path would inevitably have grown its own copy; extracting it
here means the dispatches cannot drift apart, and a single
``Session(min_cells=…)`` override moves them all at once.

A :class:`DispatchConfig` travels from the :class:`~repro.system.session.Session`
through the :class:`~repro.env.environment.TopEnv` into the code the
engine emits.  It is deliberately a plain mutable object read at
dispatch time: tuning ``workers`` mid-session affects every evaluator
(including plan-cache-resident ones) without recompilation.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Callable

#: the one shared floor: domains/sources smaller than this stay on the
#: plain scalar loop — recognition, grid setup, and shard dispatch all
#: cost more than they save on tiny inputs
DEFAULT_MIN_CELLS = 64

#: floor for the *fused* shard-kernel path (numpy kernels running inside
#: process shards, docs/PARALLEL.md): the serial kernel already clears
#: hundreds of millions of cells per second, so splitting it across a
#: process pool only wins once the domain is large enough that per-core
#: compute dominates pool hand-off and slab stitching.  Deliberately
#: much higher than :data:`DEFAULT_MIN_CELLS`.
DEFAULT_KERNEL_MIN_CELLS = 1 << 17

#: worker-pool strategies understood by :mod:`repro.core.parallel`
PARALLEL_BACKENDS = ("thread", "process")

#: adaptive mode: a construct whose *projected serial time* (from the
#: measured serial cells-per-second) is below this never dispatches —
#: pool hand-off plus shard bookkeeping costs on the order of
#: milliseconds, so shorter work cannot win
ADAPTIVE_MIN_SECONDS = 0.005

#: adaptive mode: a parallel backend must beat the measured serial rate
#: by this factor before it keeps winning dispatches (hysteresis so a
#: noisy measurement does not flap the decision)
ADAPTIVE_MARGIN = 1.05


class DispatchConfig:
    """Gating knobs shared by the vectorized and parallel fast paths.

    ``min_cells``
        Floor (in cells for tabulation, elements for Σ) below which
        neither fast path engages.
    ``workers``
        Worker-pool size for the sharded executor; ``<= 1`` disables
        parallel execution entirely (the vectorized path is unaffected).
    ``backend``
        ``"thread"`` (default; shares the process, no pickling) or
        ``"process"`` (true CPU parallelism for evaluator-bound bodies,
        at the cost of forking workers and pickling shard inputs).
    ``setops``
        Per-session switch for the set-engine fast paths
        (:mod:`repro.core.setops`); ``REPRO_NO_SETOPS=1`` wins over it
        process-wide.
    ``adaptive``
        When true, the serial-vs-shard decision is made from *measured*
        cells-per-second (see :meth:`wants_shards`) instead of the
        static ``min_cells`` floor; the floor still serves as the
        bootstrap gate until a serial rate has been observed.  Off by
        default: explicit worker/floor settings stay exactly
        reproducible, which the agreement test suite depends on.

    One instance is owned by each :class:`~repro.env.environment.TopEnv`
    and handed by reference to every evaluator it builds, so mutating it
    reconfigures live engines.  Construction never validates against the
    environment — :class:`~repro.system.session.Session` validates its
    keyword surface before mutating the config.
    """

    __slots__ = ("min_cells", "kernel_min_cells", "workers", "backend",
                 "setops", "adaptive", "cost", "_rates")

    def __init__(self, min_cells: int = DEFAULT_MIN_CELLS,
                 workers: int = 0, backend: str = "thread",
                 setops: bool = True, adaptive: bool = False,
                 kernel_min_cells: int = DEFAULT_KERNEL_MIN_CELLS,
                 cost: Any = None):
        self.min_cells = min_cells
        self.kernel_min_cells = kernel_min_cells
        self.workers = workers
        self.backend = backend
        self.setops = setops
        self.adaptive = adaptive
        #: the session's :class:`~repro.optimizer.cost.CostModel`, or
        #: ``None`` (bare configs, worker configs, ``REPRO_NO_COST=1``).
        #: Attached by :class:`~repro.env.environment.TopEnv` — never by
        #: :meth:`from_env`, so direct ``DispatchConfig()``/
        #: ``DEFAULT_CONFIG`` construction stays exactly the static
        #: pre-cost-model dispatcher.  When present, :meth:`observe`
        #: forwards rates into it and an *active* model's projections
        #: take precedence in :meth:`wants_shards`/
        #: :meth:`wants_kernel_shards`.
        self.cost = cost
        #: measured throughput per execution mode, cells/second —
        #: keys are ``"serial"`` and the backend names; written by
        #: :meth:`observe` (the engines record every large serial loop
        #: and every successful sharded dispatch back into the config)
        self._rates: dict = {}

    # -- adaptive dispatch selection ------------------------------------

    def observe(self, mode: str, cells: int, seconds: float) -> None:
        """Record a measured run of ``mode`` (``"serial"``/``"thread"``/
        ``"process"``) over ``cells`` cells taking ``seconds``.

        Rates are folded with an equal-weight exponential moving average
        so one noisy measurement cannot dominate, and recorded straight
        into the config — the next dispatch decision sees them.
        Degenerate measurements (zero cells, sub-resolution timings) are
        dropped rather than poison the average.
        """
        if cells <= 0 or seconds <= 0.0:
            return
        rate = cells / seconds
        old = self._rates.get(mode)
        self._rates[mode] = rate if old is None else 0.5 * old + 0.5 * rate
        if self.cost is not None:
            self.cost.observe_rate(mode, cells, seconds)

    def rates(self) -> dict:
        """A snapshot of the measured cells-per-second by mode."""
        return dict(self._rates)

    def shard_backend(self) -> str:
        """The backend a dispatch should use.

        Static config: always ``backend``.  Adaptive: the *measured
        fastest* of the known backends — a session that has tried both
        ``thread`` and ``process`` keeps using whichever actually won on
        this machine; an unmeasured configured backend is trusted until
        measured.
        """
        if not self.adaptive:
            return self.backend
        best = self.backend
        best_rate = self._rates.get(best)
        for candidate in PARALLEL_BACKENDS:
            rate = self._rates.get(candidate)
            if rate is not None and (best_rate is None or rate > best_rate):
                best, best_rate = candidate, rate
        return best

    def wants_shards(self, cells: int) -> bool:
        """Should a construct of ``cells`` cells/elements be sharded?

        Static config reproduces the historical gate: ``cells >=
        min_cells``.  Adaptive config projects the serial time from the
        measured serial rate and declines when the whole construct
        finishes faster than a dispatch costs
        (:data:`ADAPTIVE_MIN_SECONDS`), or when the chosen backend has
        been measured and does not beat serial by
        :data:`ADAPTIVE_MARGIN`; an unmeasured backend gets one
        dispatch so its rate becomes known.

        An *active* cost model projects the decision from its own
        calibrated rates first; it answers ``None`` (defer) when it
        has nothing measured to project from.
        """
        if self.cost is not None:
            decision = self.cost.shards_decision(cells,
                                                 self.shard_backend())
            if decision is not None:
                return decision
        if not self.adaptive:
            return cells >= self.min_cells
        serial_rate = self._rates.get("serial")
        if serial_rate is None or serial_rate <= 0.0:
            return cells >= self.min_cells
        if cells / serial_rate < ADAPTIVE_MIN_SECONDS:
            return False
        shard_rate = self._rates.get(self.shard_backend())
        if shard_rate is None:
            return True
        return shard_rate > serial_rate * ADAPTIVE_MARGIN

    def wants_kernel_shards(self, cells: int) -> bool:
        """Should a *kernel-shaped* construct of ``cells`` cells be
        sharded instead of executed by the serial numpy kernel?

        The serial kernel is itself a fast path, so the fused
        shard-kernel dispatch competes with it, not with the scalar
        loop — hence its own (much higher) floor.  A static gate on
        purpose: the adaptive rates measure scalar-loop throughput and
        would wildly mispredict kernel throughput.  An *active* cost
        model, which tracks the kernel rate separately, may project the
        decision instead.
        """
        if self.cost is not None:
            decision = self.cost.kernel_shards_decision(cells)
            if decision is not None:
                return decision
        return cells >= self.kernel_min_cells

    @classmethod
    def from_env(cls) -> "DispatchConfig":
        """Defaults overridable through the process environment.

        ``REPRO_PARALLEL_WORKERS`` (default 0 → serial),
        ``REPRO_PARALLEL_BACKEND`` (default ``thread``),
        ``REPRO_MIN_CELLS`` (default :data:`DEFAULT_MIN_CELLS`),
        ``REPRO_KERNEL_MIN_CELLS`` (default
        :data:`DEFAULT_KERNEL_MIN_CELLS`), and ``REPRO_ADAPTIVE=1``
        (measured-rate dispatch selection).  The ``REPRO_NO_PARALLEL``
        kill switch is honoured separately by :mod:`repro.core.parallel`
        so it wins over any workers setting.
        """

        def _int(name: str, default: int) -> int:
            raw = os.environ.get(name, "")
            try:
                return int(raw) if raw else default
            except ValueError:
                return default

        backend = os.environ.get("REPRO_PARALLEL_BACKEND", "thread")
        if backend not in PARALLEL_BACKENDS:
            backend = "thread"
        return cls(
            min_cells=_int("REPRO_MIN_CELLS", DEFAULT_MIN_CELLS),
            workers=_int("REPRO_PARALLEL_WORKERS", 0),
            backend=backend,
            adaptive=os.environ.get("REPRO_ADAPTIVE", "") == "1",
            kernel_min_cells=_int("REPRO_KERNEL_MIN_CELLS",
                                  DEFAULT_KERNEL_MIN_CELLS),
        )

    def __repr__(self) -> str:
        return (f"DispatchConfig(min_cells={self.min_cells}, "
                f"kernel_min_cells={self.kernel_min_cells}, "
                f"workers={self.workers}, backend={self.backend!r}, "
                f"setops={self.setops}, adaptive={self.adaptive})")


#: the config used by evaluators constructed without an explicit one
#: (direct ``CompiledEvaluator()`` builds in tests and benchmarks);
#: sessions get their own per-:class:`~repro.env.environment.TopEnv`
#: instance
DEFAULT_CONFIG = DispatchConfig.from_env()

#: bound on the per-evaluator recognition memos below — the same order
#: of magnitude as the session plan cache's ``DEFAULT_CAPACITY`` (128),
#: so a long-lived session's recognition state stays proportional to its
#: cached plans instead of growing with every expression ever evaluated
NODE_CACHE_CAPACITY = 128


class NodeCache:
    """An LRU memo for per-AST-node recognition results.

    Keys are node identities (``id``), which Python recycles after a
    node is garbage collected — so each entry stores the node itself
    alongside its payload.  Holding the node pins its id while the entry
    lives, and the ``entry[0] is node`` check rejects an entry whose key
    was recycled after eviction made the pin lapse.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = NODE_CACHE_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, node: Any, compute: Callable[[Any], Any]) -> Any:
        """The memoized ``compute(node)``, recomputed on miss/id reuse."""
        key = id(node)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is node:
            self._entries.move_to_end(key)
            return entry[1]
        payload = compute(node)
        self._entries[key] = (node, payload)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return payload


__all__ = ["DEFAULT_MIN_CELLS", "DEFAULT_KERNEL_MIN_CELLS",
           "PARALLEL_BACKENDS",
           "ADAPTIVE_MIN_SECONDS", "ADAPTIVE_MARGIN", "DispatchConfig",
           "DEFAULT_CONFIG", "NODE_CACHE_CAPACITY", "NodeCache"]
