"""The dispatch policy of the evaluator fast paths.

Two fast paths sit in front of the scalar loops: the numpy-vectorized
kernel backend (:mod:`repro.core.kernels`) and the set-engine layer
(:mod:`repro.core.setops` — hash equi-joins and sort-based ``index_k``
grouping).  Each pays a fixed dispatch cost (kernel recognition + grid
setup; join-shape recognition + hash-index build), so both are gated on
the same minimum-cells floor, and a single ``Session(min_cells=…)``
override moves them together.

A :class:`DispatchConfig` travels from the :class:`~repro.system.session.Session`
through the :class:`~repro.env.environment.TopEnv` into the code the
engine emits, and is read at dispatch time: tuning ``min_cells``
mid-session affects every plan, cached ones included.
"""

from __future__ import annotations

import os

#: the one shared floor: domains/sources smaller than this stay on the
#: plain scalar loop — recognition, grid setup and index builds all
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
    """The dispatch policy: two fields and the size predicates over them.

    Every physical choice the engine makes — scalar loop or numpy
    kernel, nested-loop or hash join, dict or sorted grouping — is a
    pure function of an operand size and these fields, decided by one
    of the ``wants_*`` methods below and nowhere else.

    ``min_cells``
        Floor (in cells for tabulation, |S|·|T| for joins, pairs for
        grouping) below which no fast path engages.
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

    __slots__ = ("min_cells", "setops")

    def __init__(self, min_cells: int = DEFAULT_MIN_CELLS,
                 setops: bool = True):
        self.min_cells = min_cells
        self.setops = setops

    # -- the size predicates --------------------------------------------

    def wants_kernel(self, cells: int) -> bool:
        """Should a kernel-shaped tabulation of ``cells`` cells run as a
        numpy kernel?  Below the floor, recognition and grid setup cost
        more than the scalar loop."""
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
        """Defaults, with ``REPRO_MIN_CELLS`` overriding the floor.

        A value ``Session(min_cells=)`` would reject — not an int, or
        negative — falls back to :data:`DEFAULT_MIN_CELLS`.
        """
        try:
            min_cells = int(os.environ.get("REPRO_MIN_CELLS", ""))
        except ValueError:
            min_cells = DEFAULT_MIN_CELLS
        return cls(min_cells if min_cells >= 0 else DEFAULT_MIN_CELLS)

    def __repr__(self) -> str:
        return (f"DispatchConfig(min_cells={self.min_cells}, "
                f"setops={self.setops})")


#: the config used by evaluators constructed without an explicit one
#: (direct ``CompiledEvaluator()`` builds in tests and benchmarks);
#: sessions get their own per-:class:`~repro.env.environment.TopEnv`
#: instance
DEFAULT_CONFIG = DispatchConfig.from_env()

__all__ = ["DEFAULT_MIN_CELLS", "SPARSITY_FACTOR", "DispatchConfig",
           "DEFAULT_CONFIG"]
