"""Evaluator counters, collected behind a hook interface.

The code generator (:mod:`repro.core.compile`) accepts an optional
*probe* implementing the :class:`EvalProbe` protocol.  When no probe is
supplied it emits the plain uninstrumented closures — instrumentation
is selected once per compile, never per node, so the disabled case is
zero-cost.

:class:`EvalMetrics` is the stock probe: plain counters answering the
questions the ROADMAP's performance work needs — *how many nodes were
evaluated, of which AST classes?  how many tabulation cells were
materialized?  how large were the ``index_k`` group-bys?  how many ⊥
were raised?  how big were the sets and bags the query touched?*

Concurrency contract (the sharded executor depends on it)
---------------------------------------------------------

A probe is **single-writer**: every hook mutates plain Python counters
with unguarded read-modify-write sequences, so exactly one thread may
report into a given probe instance.  Parallel shard execution therefore
never shares the parent probe with its workers: each worker process
counts into a fresh :class:`EvalMetrics` of its own, and the parent
folds the finished workers back in — in deterministic shard order —
through :meth:`EvalMetrics.merge`; a parent probe of any other class
opts its runs out of parallel execution rather than risk losing or
double-counting events.  The set-engine fast paths follow the same
protocol in-process through :meth:`EvalProbe.fork`, whose base default
(``None``) declines the fast path.
"""

from __future__ import annotations

from typing import Any, Dict


class EvalProbe:
    """The hook interface evaluation engines report into.

    Subclass and override whichever hooks you need; the defaults are
    no-ops so partial probes stay cheap.  All hooks must be exception
    free — a probe must never change evaluation results (the property
    tests in ``tests/test_observability.py`` pin this down).
    """

    __slots__ = ()

    def on_node(self, kind: str) -> None:
        """One AST node of class ``kind`` was evaluated."""

    def on_cells(self, count: int) -> None:
        """A tabulation (or array literal) materialized ``count`` cells."""

    def on_cells_vectorized(self, count: int) -> None:
        """A tabulation produced ``count`` cells via the numpy kernel
        backend (:mod:`repro.core.kernels`) instead of the scalar loop.
        Disjoint from :meth:`on_cells` — a tabulation reports into
        exactly one of the two."""

    def on_parallel(self, shards: int, cells: int) -> None:
        """A tabulation or Σ dispatched ``cells`` cells/elements across
        ``shards`` shards of the parallel executor
        (:mod:`repro.core.parallel`).  Reported *in addition to* the
        ordinary materialization hooks, which the parent still fires so
        shard-merged counters stay equal to a serial run's."""

    def on_shm(self, segments: int, nbytes: int, zero_copy: int) -> None:
        """A sharded process dispatch moved its payloads/results through
        ``segments`` shared-memory segments totalling ``nbytes`` bytes
        (:mod:`repro.core.parallel`); ``zero_copy`` of its shards
        returned results as dense slabs with no per-element pickling.
        Like :meth:`on_parallel`, only a sharded run reports this — a
        serial run's counters stay at zero."""

    def on_shm_copies_avoided(self, count: int) -> None:
        """A shard worker adopted ``count`` mapped shared-memory operand
        segments as read-only array views instead of copying them out
        of the segment (:mod:`repro.core.parallel`).  Workers report
        this into their own probes; like :meth:`on_shm`, a serial
        run's counter stays at zero."""

    def fork(self):
        """A fresh probe of this kind for one fast-path worker, or ``None``.

        The default declines: a probe that does not know how to fork
        (and later :meth:`EvalMetrics.merge`-style fold back) must not
        be silently bypassed, so the engines fall back to serial
        evaluation when ``fork()`` returns ``None``.
        """
        return None

    def on_index(self, cells: int, groups: int, pairs: int,
                 max_group: int = 0, sorted_path: bool = False) -> None:
        """An ``index_k`` built ``cells`` cells grouping ``pairs`` pairs
        into ``groups`` non-empty groups, the largest holding
        ``max_group`` distinct values; ``sorted_path`` reports whether
        the sort-based grouping (:mod:`repro.core.setops`) built it
        instead of the naive dict."""

    def on_join(self, pairs_matched: int, pairs_skipped: int) -> None:
        """A nested set comprehension executed as a hash equi-join
        (:mod:`repro.core.setops`): of the |S|·|T| candidate pairs the
        naive loops would have tested, ``pairs_matched`` matched the
        join keys (their bodies ran) and ``pairs_skipped`` were skipped
        by the hash index without evaluating anything."""

    def on_bottom(self, reason: str) -> None:
        """A ⊥ (:class:`~repro.errors.BottomError`) was raised."""

    def on_collection(self, size: int) -> None:
        """A set or bag of cardinality ``size`` was produced."""


class EvalMetrics(EvalProbe):
    """Counter-collecting probe; one instance per observed run."""

    __slots__ = ("node_evals", "nodes_by_class", "cells_materialized",
                 "cells_vectorized", "tabulations", "tabulations_vectorized",
                 "shards_executed", "cells_parallel",
                 "shm_segments", "shm_bytes", "shards_zero_copy",
                 "shm_copies_avoided",
                 "index_groupbys", "index_cells",
                 "index_groups", "index_pairs", "index_sorted",
                 "max_group_size", "joins_hashed", "join_pairs_matched",
                 "join_pairs_skipped",
                 "bottom_raises", "bottom_reasons", "collections_touched",
                 "collection_elements", "max_collection_size")

    def __init__(self):
        self.node_evals = 0
        self.nodes_by_class: Dict[str, int] = {}
        self.cells_materialized = 0
        self.cells_vectorized = 0
        self.tabulations = 0
        self.tabulations_vectorized = 0
        self.shards_executed = 0
        self.cells_parallel = 0
        self.shm_segments = 0
        self.shm_bytes = 0
        self.shards_zero_copy = 0
        self.shm_copies_avoided = 0
        self.index_groupbys = 0
        self.index_cells = 0
        self.index_groups = 0
        self.index_pairs = 0
        self.index_sorted = 0
        self.max_group_size = 0
        self.joins_hashed = 0
        self.join_pairs_matched = 0
        self.join_pairs_skipped = 0
        self.bottom_raises = 0
        self.bottom_reasons: Dict[str, int] = {}
        self.collections_touched = 0
        self.collection_elements = 0
        self.max_collection_size = 0

    # -- EvalProbe hooks ----------------------------------------------------

    def on_node(self, kind: str) -> None:
        """Count one evaluated node under its AST class name."""
        self.node_evals += 1
        self.nodes_by_class[kind] = self.nodes_by_class.get(kind, 0) + 1

    def on_cells(self, count: int) -> None:
        """Count one materializing construct and its cells."""
        self.tabulations += 1
        self.cells_materialized += count

    def on_cells_vectorized(self, count: int) -> None:
        """Count one numpy-backed tabulation and its cells."""
        self.tabulations_vectorized += 1
        self.cells_vectorized += count

    def on_parallel(self, shards: int, cells: int) -> None:
        """Count one sharded dispatch: its shard count and its cells."""
        self.shards_executed += shards
        self.cells_parallel += cells

    def on_shm(self, segments: int, nbytes: int, zero_copy: int) -> None:
        """Count one dispatch's shared-memory transport economy."""
        self.shm_segments += segments
        self.shm_bytes += nbytes
        self.shards_zero_copy += zero_copy

    def on_shm_copies_avoided(self, count: int) -> None:
        """Count operand segments adopted as views instead of copied."""
        self.shm_copies_avoided += count

    # -- the shard-worker protocol -------------------------------------------

    def fork(self) -> "EvalMetrics":
        """A fresh sibling for one shard worker (see :meth:`merge`)."""
        return EvalMetrics()

    def merge(self, other: "EvalMetrics") -> None:
        """Fold a finished worker's counters into this probe.

        The single-writer discipline: ``other`` must be quiescent (its
        shard has completed) and ``self`` must be touched by exactly one
        thread.  Sums are added, per-key dicts merged, and the ``max_*``
        watermarks combined with ``max`` — so merging the workers of a
        sharded run in any order yields the same totals a serial run
        would have counted.
        """
        self.node_evals += other.node_evals
        for kind, count in other.nodes_by_class.items():
            self.nodes_by_class[kind] = \
                self.nodes_by_class.get(kind, 0) + count
        self.cells_materialized += other.cells_materialized
        self.cells_vectorized += other.cells_vectorized
        self.tabulations += other.tabulations
        self.tabulations_vectorized += other.tabulations_vectorized
        self.shards_executed += other.shards_executed
        self.cells_parallel += other.cells_parallel
        self.shm_segments += other.shm_segments
        self.shm_bytes += other.shm_bytes
        self.shards_zero_copy += other.shards_zero_copy
        self.shm_copies_avoided += other.shm_copies_avoided
        self.index_groupbys += other.index_groupbys
        self.index_cells += other.index_cells
        self.index_groups += other.index_groups
        self.index_pairs += other.index_pairs
        self.index_sorted += other.index_sorted
        self.max_group_size = max(self.max_group_size, other.max_group_size)
        self.joins_hashed += other.joins_hashed
        self.join_pairs_matched += other.join_pairs_matched
        self.join_pairs_skipped += other.join_pairs_skipped
        self.bottom_raises += other.bottom_raises
        for reason, count in other.bottom_reasons.items():
            self.bottom_reasons[reason] = \
                self.bottom_reasons.get(reason, 0) + count
        self.collections_touched += other.collections_touched
        self.collection_elements += other.collection_elements
        self.max_collection_size = max(self.max_collection_size,
                                       other.max_collection_size)

    def on_index(self, cells: int, groups: int, pairs: int,
                 max_group: int = 0, sorted_path: bool = False) -> None:
        """Count one ``index_k`` group-by and its sizes.

        ``max_group`` is the engine-measured largest group (the old
        ``pairs - groups + 1`` derived bound overstated it whenever
        more than one group held duplicates); an instrumented caller
        that cannot measure may pass 0, which leaves the watermark
        untouched.
        """
        self.index_groupbys += 1
        self.index_cells += cells
        self.index_groups += groups
        self.index_pairs += pairs
        if sorted_path:
            self.index_sorted += 1
        if max_group > self.max_group_size:
            self.max_group_size = max_group

    def on_join(self, pairs_matched: int, pairs_skipped: int) -> None:
        """Count one hash-executed equi-join and its pair economy."""
        self.joins_hashed += 1
        self.join_pairs_matched += pairs_matched
        self.join_pairs_skipped += pairs_skipped

    def on_bottom(self, reason: str) -> None:
        """Count one raised ⊥, bucketed by its reason string."""
        self.bottom_raises += 1
        key = reason.split(":")[0] if reason else "undefined"
        self.bottom_reasons[key] = self.bottom_reasons.get(key, 0) + 1

    def on_collection(self, size: int) -> None:
        """Count one produced set/bag and its cardinality."""
        self.collections_touched += 1
        self.collection_elements += size
        if size > self.max_collection_size:
            self.max_collection_size = size

    # -- reporting ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of every counter."""
        return {
            "node_evals": self.node_evals,
            "nodes_by_class": dict(
                sorted(self.nodes_by_class.items(),
                       key=lambda kv: (-kv[1], kv[0]))
            ),
            "cells_materialized": self.cells_materialized,
            "cells_vectorized": self.cells_vectorized,
            "tabulations": self.tabulations,
            "tabulations_vectorized": self.tabulations_vectorized,
            "shards_executed": self.shards_executed,
            "cells_parallel": self.cells_parallel,
            "shm_segments": self.shm_segments,
            "shm_bytes": self.shm_bytes,
            "shards_zero_copy": self.shards_zero_copy,
            # always 0: kernels no longer run inside shards, but
            # benchmarks/suite/layers.py indexes the key
            "shards_vectorized": 0,
            "shm_copies_avoided": self.shm_copies_avoided,
            "index_groupbys": self.index_groupbys,
            "index_cells": self.index_cells,
            "index_groups": self.index_groups,
            "index_pairs": self.index_pairs,
            "index_sorted": self.index_sorted,
            "max_group_size": self.max_group_size,
            "joins_hashed": self.joins_hashed,
            "join_pairs_matched": self.join_pairs_matched,
            "join_pairs_skipped": self.join_pairs_skipped,
            "bottom_raises": self.bottom_raises,
            "bottom_reasons": dict(sorted(self.bottom_reasons.items())),
            "collections_touched": self.collections_touched,
            "collection_elements": self.collection_elements,
            "max_collection_size": self.max_collection_size,
        }

    def render(self) -> str:
        """Human-readable counter lines for the ``:profile`` report."""
        lines = [
            f"node evaluations      {self.node_evals}",
            f"cells materialized    {self.cells_materialized} "
            f"(in {self.tabulations} tabulations)",
            f"cells vectorized      {self.cells_vectorized} "
            f"(in {self.tabulations_vectorized} tabulations)",
            f"parallel shards       {self.shards_executed} "
            f"({self.cells_parallel} cells)",
            f"shared memory         {self.shm_segments} segments "
            f"({self.shm_bytes} bytes, "
            f"{self.shards_zero_copy} zero-copy shards, "
            f"{self.shm_copies_avoided} copies avoided)",
            f"index_k group-bys     {self.index_groupbys} "
            f"({self.index_pairs} pairs -> {self.index_groups} groups, "
            f"{self.index_cells} cells, max group {self.max_group_size}, "
            f"{self.index_sorted} sorted)",
            f"hash joins            {self.joins_hashed} "
            f"({self.join_pairs_matched} pairs matched, "
            f"{self.join_pairs_skipped} skipped)",
            f"bottom raises         {self.bottom_raises}",
            f"collections touched   {self.collections_touched} "
            f"({self.collection_elements} elements, "
            f"max {self.max_collection_size})",
        ]
        if self.nodes_by_class:
            top = sorted(self.nodes_by_class.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:8]
            lines.append("top node classes      " + "  ".join(
                f"{name}:{count}" for name, count in top
            ))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"EvalMetrics(nodes={self.node_evals}, "
                f"cells={self.cells_materialized}, "
                f"bottoms={self.bottom_raises})")


__all__ = ["EvalProbe", "EvalMetrics"]
