"""The dispatch policy of the evaluator fast paths.

Three fast paths sit in front of the scalar loops: the numpy-vectorized
kernel backend (:mod:`repro.core.kernels`), the sharded parallel
executor (:mod:`repro.core.parallel`), and the set-engine layer
(:mod:`repro.core.setops` — hash equi-joins and sort-based ``index_k``
grouping).  Each pays a fixed dispatch cost (kernel recognition + grid
setup; shard partitioning + pool hand-off; join-shape recognition +
hash-index build), so all are gated on the same minimum-cells floor,
and a single ``Session(min_cells=…)`` override moves them all at once.

A :class:`DispatchConfig` travels from the :class:`~repro.system.session.Session`
through the :class:`~repro.env.environment.TopEnv` into the code the
engine emits, and is read at dispatch time: tuning ``workers``
mid-session affects every plan, cached ones included.
"""

from __future__ import annotations

import os

#: the one shared floor: domains/sources smaller than this stay on the
#: plain scalar loop — recognition, grid setup, and shard dispatch all
#: cost more than they save on tiny inputs
DEFAULT_MIN_CELLS = 64

#: sorted ``index_k`` grouping is taken only when the dense extent is at
#: least this many times the pair count.  On dense key domains the dict
#: path's single hash pass beats sort-and-sweep
#: (BENCH_index_groupby.json measures it ~1.1-1.3x faster there); the
#: sorted path wins when holes dominate, because it shares one empty
#: frozenset across every hole instead of allocating per cell (~34x on
#: 2k pairs over a 200k-cell extent).
SPARSITY_FACTOR = 4


class DispatchConfig:
    """The dispatch policy: three fields and the size predicates over them.

    Every physical choice the engine makes — scalar loop or numpy
    kernel, serial or sharded, nested-loop or hash join, dict or sorted
    grouping — is a pure function of an operand size and these fields,
    decided by one of the ``wants_*`` methods below and nowhere else.

    ``min_cells``
        Floor (in cells for tabulation, elements for Σ, |S|·|T| for
        joins, pairs for grouping) below which no fast path engages.
    ``workers``
        Size of the sharded executor's forked process pool
        (:mod:`repro.core.parallel`); ``<= 1`` disables parallel
        execution entirely (the vectorized path is unaffected).
    ``setops``
        Per-session switch for the set-engine fast paths
        (:mod:`repro.core.setops`); ``REPRO_NO_SETOPS=1`` wins over it
        process-wide.

    One instance is owned by each :class:`~repro.env.environment.TopEnv`
    and handed by reference to every evaluator it builds, so mutating it
    reconfigures live engines.  Construction never validates against the
    environment — :class:`~repro.system.session.Session` validates its
    keyword surface before mutating the config.
    """

    __slots__ = ("min_cells", "workers", "setops")

    def __init__(self, min_cells: int = DEFAULT_MIN_CELLS,
                 workers: int = 0, setops: bool = True):
        self.min_cells = min_cells
        self.workers = workers
        self.setops = setops

    # -- the size predicates --------------------------------------------

    def wants_kernel(self, cells: int) -> bool:
        """Should a kernel-shaped tabulation of ``cells`` cells run as a
        numpy kernel?  Below the floor, recognition and grid setup cost
        more than the scalar loop."""
        return cells >= self.min_cells

    def wants_shards(self, cells: int) -> bool:
        """Should a scalar construct of ``cells`` cells/elements be
        sharded across the worker pool?"""
        return cells >= self.min_cells

    def wants_hash_join(self, total: int, inner: int) -> bool:
        """Should a recognized equi-join over ``total`` = |S|·|T| pairs
        with ``inner`` = |T| inner elements take the hash path?  At
        least two inner elements, so the index has something to share."""
        return total >= self.min_cells and inner >= 2

    def wants_sorted_grouping(self, pairs: int, cells: int) -> bool:
        """Should an ``index_k`` over ``pairs`` pairs spanning a dense
        extent of ``cells`` cells sort-and-sweep instead of hashing?
        Only when holes dominate (:data:`SPARSITY_FACTOR`)."""
        return pairs >= self.min_cells and cells >= SPARSITY_FACTOR * pairs

    @classmethod
    def from_env(cls) -> "DispatchConfig":
        """Defaults overridable through the process environment.

        ``REPRO_PARALLEL_WORKERS`` (default 0 → serial) and
        ``REPRO_MIN_CELLS`` (default :data:`DEFAULT_MIN_CELLS`).  The
        ``REPRO_NO_PARALLEL`` kill switch is honoured separately by
        :mod:`repro.core.parallel` so it wins over any workers setting.
        """

        def _int(name: str, default: int) -> int:
            raw = os.environ.get(name, "")
            try:
                return int(raw) if raw else default
            except ValueError:
                return default

        return cls(
            min_cells=_int("REPRO_MIN_CELLS", DEFAULT_MIN_CELLS),
            workers=_int("REPRO_PARALLEL_WORKERS", 0),
        )

    def __repr__(self) -> str:
        return (f"DispatchConfig(min_cells={self.min_cells}, "
                f"workers={self.workers}, setops={self.setops})")


#: the config used by evaluators constructed without an explicit one
#: (direct ``CompiledEvaluator()`` builds in tests and benchmarks);
#: sessions get their own per-:class:`~repro.env.environment.TopEnv`
#: instance
DEFAULT_CONFIG = DispatchConfig.from_env()

__all__ = ["DEFAULT_MIN_CELLS", "SPARSITY_FACTOR", "DispatchConfig",
           "DEFAULT_CONFIG"]
