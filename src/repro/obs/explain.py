"""The EXPLAIN/:profile report: one object tying the whole trace together.

An :class:`ExplainReport` packages what the pipeline observed while
answering one query:

* the optimized core expression (rendered via
  :mod:`repro.core.printer`) — the paper's "resulting optimized code";
* the span tree covering parse, desugar, typecheck, every optimizer
  phase, and evaluation;
* per-phase rule-firing statistics (counts *and* cumulative rule
  timings, from :class:`~repro.optimizer.engine.PhaseStats`);
* the evaluator counters (:class:`~repro.obs.metrics.EvalMetrics`);
* the session's plan-cache counters (hits/misses/evictions/
  invalidations — see ``docs/PLAN_CACHE.md``), when a cache is in play;
* the Python source the code generator emitted for the query (its
  probed form: the plan plus counter lines).

``render()`` produces the REPL's ``:profile`` text; ``to_dict()`` is the
JSON schema (documented in ``docs/OBSERVABILITY.md``) that
``benchmarks/conftest.py`` embeds in every ``BENCH_*.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

from repro.obs.metrics import EvalMetrics
from repro.obs.trace import Span


@dataclass
class ExplainReport:
    """Everything observed while answering one query."""

    source: str
    type_text: str
    #: the optimized core expression (rendered by :attr:`core_text`)
    core: Any = None
    spans: Optional[Span] = None
    phase_stats: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[EvalMetrics] = None
    #: plan-cache occupancy + counters (``PlanCache.snapshot()``)
    cache: Optional[Dict[str, Any]] = None
    #: dense-store counter *deltas* over the profiled block
    #: (``repro.objects.dense.COUNTERS`` before/after difference)
    dense: Optional[Dict[str, int]] = None
    #: ``{"units": …}``: the unit-cost estimate of :attr:`core`
    #: (``CostRecord.estimate``; None when the core out-nests the stack)
    cost: Optional[Dict[str, Any]] = None
    #: the emitted source of the query's plan (``<plan N>`` in tracebacks)
    code: str = ""
    value: Any = None
    has_value: bool = False

    @cached_property
    def core_text(self) -> str:
        """The optimized core as text, rendered on first use: a report
        nobody prints or exports never pays for the printer."""
        from repro.core.printer import pprint

        return pprint(self.core) if self.core is not None else ""

    def span(self, name: str) -> Optional[Span]:
        """Look up a recorded pipeline span by name (e.g. ``"parse"``)."""
        if self.spans is None:
            return None
        if self.spans.name == name:
            return self.spans
        return self.spans.find(name)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON export consumed by the benchmark harness."""
        payload: Dict[str, Any] = {
            "source": self.source,
            "type": self.type_text,
            "core": self.core_text,
        }
        if self.spans is not None:
            payload["spans"] = self.spans.to_dict()
        if self.phase_stats:
            payload["phases"] = {
                name: stats.to_dict() if hasattr(stats, "to_dict") else stats
                for name, stats in self.phase_stats.items()
            }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.to_dict()
        if self.cache is not None:
            payload["plan_cache"] = dict(self.cache)
        if self.dense is not None:
            payload["dense_store"] = dict(self.dense)
        if self.cost is not None:
            payload["cost_model"] = dict(self.cost)
        if self.code:
            payload["code"] = self.code
        return payload

    def render(self) -> str:
        """The multi-section text shown by the REPL's ``:profile``."""
        sections = [
            "== optimized core ==",
            self.core_text,
            f"typ it : {self.type_text}",
        ]
        if self.spans is not None:
            sections += ["", "== pipeline spans ==",
                         _render_span_tree(self.spans)]
        if self.phase_stats:
            sections += ["", "== optimizer rule firings =="]
            for name, stats in self.phase_stats.items():
                sections.append(_render_phase(name, stats))
        if self.metrics is not None:
            sections += ["", "== evaluator counters ==",
                         self.metrics.render()]
        if self.cache is not None:
            sections += ["", "== plan cache ==", _render_cache(self.cache)]
        if self.dense is not None:
            sections += ["", "== dense store ==", _render_dense(self.dense)]
        if self.cost is not None:
            sections += ["", "== cost model ==",
                         f"units                 {self.cost['units']}"]
        if self.code:
            sections += ["", "== code ==", self.code.rstrip("\n")]
        return "\n".join(sections)


def _render_span_tree(root: Span, indent: str = "  ") -> str:
    """Indented per-stage timings, skipping the synthetic root."""
    lines = []
    for depth, span in root.walk():
        if span is root and span.name == "trace":
            continue
        offset = depth - (1 if root.name == "trace" else 0)
        extra = ""
        if span.meta:
            extra = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(span.meta.items())
            )
        lines.append(f"{indent * max(offset, 0)}{span.name:<24s} "
                     f"{span.seconds * 1e3:9.3f} ms{extra}")
    return "\n".join(lines)


def _render_cache(cache: Dict[str, Any]) -> str:
    """The plan-cache occupancy and counter lines."""
    return (f"entries               {cache.get('entries', 0)}"
            f"/{cache.get('capacity', 0)}\n"
            f"hits {cache.get('hits', 0)}  "
            f"misses {cache.get('misses', 0)}  "
            f"evictions {cache.get('evictions', 0)}  "
            f"invalidations {cache.get('invalidations', 0)}")


def _render_dense(counters: Dict[str, int]) -> str:
    """The dense-store counter lines (deltas over the profiled block)."""
    return (f"blocks adopted        {counters.get('blocks_adopted', 0)}  "
            f"probed {counters.get('blocks_probed', 0)}  "
            f"rejects {counters.get('probe_rejects', 0)}\n"
            f"dense hits            {counters.get('dense_hits', 0)}  "
            f"materializations {counters.get('materializations', 0)}\n"
            f"subscripts viewed     {counters.get('subscripts_viewed', 0)}  "
            f"gathered {counters.get('subscripts_gathered', 0)}")


def _render_phase(name: str, stats: Any) -> str:
    """One phase's firing counts and cumulative per-rule timings."""
    passes = getattr(stats, "passes", 0)
    applications = getattr(stats, "applications", 0)
    seconds = getattr(stats, "seconds", 0.0)
    attempts = getattr(stats, "attempts", 0)
    pruned = getattr(stats, "pruned", 0)
    header = (f"{name}: {applications} firings in {passes} passes "
              f"({attempts} attempts, {pruned} pruned, "
              f"{seconds * 1e3:.3f} ms)")
    by_rule = getattr(stats, "by_rule", {}) or {}
    time_by_rule = getattr(stats, "time_by_rule", {}) or {}
    lines = [header]
    for rule, count in sorted(by_rule.items(), key=lambda kv: (-kv[1], kv[0])):
        timing = time_by_rule.get(rule)
        suffix = f"  {timing * 1e3:.3f} ms" if timing is not None else ""
        lines.append(f"  {rule:<28s} x{count}{suffix}")
    return "\n".join(lines)


__all__ = ["ExplainReport"]
