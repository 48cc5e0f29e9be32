"""Evaluator counters, collected behind a hook interface.

The code generator (:mod:`repro.core.compile`) accepts an optional
*probe* implementing the :class:`EvalProbe` protocol.  When no probe is
supplied it emits the plain uninstrumented plan; with one, the same
program plus counter lines (``_on('Arith')``, ``_seen(_P, …)``) —
instrumentation is selected once per compile, never per node, so the
disabled case is zero-cost.

:class:`EvalMetrics` is the stock probe: plain counters answering the
questions the ROADMAP's performance work needs — *how many nodes were
evaluated, of which AST classes?  how many tabulation cells were
materialized?  how large were the ``index_k`` group-bys?  how many ⊥
were raised?  how big were the sets and bags the query touched?*

Rollback (the hash join depends on it)
--------------------------------------

A probed plan takes one :meth:`EvalProbe.snapshot` before a hash-join
block and hands it to :meth:`EvalProbe.restore` when the block declines
or fails, so the naive loop that reruns the construct counts exactly
what it would have alone.  :class:`EvalMetrics` saves and resets its
fields; the base pair is a no-op, so a custom probe that keeps state
overrides both to get the same exactness.  Whichever probe is attached,
the same physical path runs.
"""

from __future__ import annotations

from copy import copy
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
        """A tabulation produced ``count`` cells (or a ``Σ`` added
        ``count`` terms) via the numpy kernel backend
        (:mod:`repro.core.kernels`) instead of the scalar loop.
        Disjoint from :meth:`on_cells` — a tabulation reports into
        exactly one of the two."""

    def on_index(self, cells: int, groups: int, pairs: int,
                 max_group: int = 0) -> None:
        """An ``index_k`` built ``cells`` cells grouping ``pairs`` pairs
        into ``groups`` non-empty groups, the largest holding
        ``max_group`` distinct values."""

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

    def snapshot(self) -> Any:
        """The probe's state, for :meth:`restore` (none here)."""

    def restore(self, state: Any) -> None:
        """Return to a :meth:`snapshot`: a hash-join block that declined
        or failed counts nothing."""


class EvalMetrics(EvalProbe):
    """Counter-collecting probe; one instance per observed run."""

    __slots__ = ("node_evals", "nodes_by_class", "cells_materialized",
                 "cells_vectorized", "tabulations", "tabulations_vectorized",
                 "index_groupbys", "index_cells",
                 "index_groups", "index_pairs", "max_group_size",
                 "joins_hashed", "join_pairs_matched", "join_pairs_skipped",
                 "bottom_raises", "bottom_reasons", "collections_touched",
                 "collection_elements", "max_collection_size")

    def __init__(self):
        self.node_evals = 0
        self.nodes_by_class: Dict[str, int] = {}
        self.cells_materialized = 0
        self.cells_vectorized = 0
        self.tabulations = 0
        self.tabulations_vectorized = 0
        self.index_groupbys = 0
        self.index_cells = 0
        self.index_groups = 0
        self.index_pairs = 0
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

    def on_index(self, cells: int, groups: int, pairs: int,
                 max_group: int = 0) -> None:
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

    def snapshot(self) -> Dict[str, Any]:
        """Every counter as it stands, the two dicts copied."""
        return {name: copy(getattr(self, name)) for name in self.__slots__}

    def restore(self, state: Dict[str, Any]) -> None:
        """Put every counter back as :meth:`snapshot` saw it.

        Exact because a probe is single-writer: generated code reports
        from one thread, so nothing else counts between the two calls.
        """
        for name, value in state.items():
            setattr(self, name, value)

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
            # always 0: the sharded executor and the sorted index_k
            # sweep are deleted, but benchmarks/suite/layers.py indexes
            # these keys
            **dict.fromkeys(("shards_executed", "shards_vectorized",
                             "shm_bytes", "index_sorted"), 0),
            "index_groupbys": self.index_groupbys,
            "index_cells": self.index_cells,
            "index_groups": self.index_groups,
            "index_pairs": self.index_pairs,
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
            f"index_k group-bys     {self.index_groupbys} "
            f"({self.index_pairs} pairs -> {self.index_groups} groups, "
            f"{self.index_cells} cells, max group {self.max_group_size})",
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
