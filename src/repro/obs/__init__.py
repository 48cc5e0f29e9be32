"""Observability for the AQL pipeline: tracing, counters, EXPLAIN.

The measurement substrate behind the ROADMAP's performance work.  The
pieces:

* :mod:`repro.obs.trace` — nested wall-clock spans over the pipeline
  stages (parse → desugar → typecheck → optimize → evaluate);
* :mod:`repro.obs.metrics` — evaluator counters behind the
  :class:`EvalProbe` hook interface;
* :mod:`repro.obs.explain` — the :class:`ExplainReport` rendered by the
  REPL's ``:profile`` and exported as JSON for ``benchmarks/suite``
  and the counter tests;
* :class:`Observability` — the per-environment switch that hands the
  pipeline either live instruments or the shared zero-cost nulls.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.explain import ExplainReport
from repro.obs.metrics import EvalMetrics, EvalProbe
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer


class Observability:
    """The observability switch carried by a :class:`~repro.env.TopEnv`.

    Disabled (the default) it hands out :data:`NULL_TRACER` and no probe,
    so every instrumented code path stays on its original fast route.
    :meth:`enable` installs a fresh :class:`Tracer` and
    :class:`EvalMetrics`; :meth:`reset` re-arms them between queries so a
    ``:profile`` report covers exactly one statement.
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self, enabled: bool = False):
        self.enabled = False
        self.tracer: Union[Tracer, NullTracer] = NULL_TRACER
        self.metrics: Optional[EvalMetrics] = None
        if enabled:
            self.enable()

    def enable(self) -> "Observability":
        """Switch on, with fresh instruments; returns self for chaining."""
        self.enabled = True
        self.tracer = Tracer()
        self.metrics = EvalMetrics()
        return self

    def disable(self) -> "Observability":
        """Switch off and drop the instruments; returns self."""
        self.enabled = False
        self.tracer = NULL_TRACER
        self.metrics = None
        return self

    def reset(self) -> "Observability":
        """Fresh instruments (no-op while disabled); returns self."""
        if self.enabled:
            self.tracer = Tracer()
            self.metrics = EvalMetrics()
        return self

    def capture(self):
        """Snapshot ``(enabled, tracer, metrics)`` for later :meth:`restore`.

        Lets ``:profile`` instrument one statement with fresh
        instruments and then hand back the caller's own tracer and
        accumulated counters untouched.
        """
        return (self.enabled, self.tracer, self.metrics)

    def restore(self, state) -> "Observability":
        """Reinstate a :meth:`capture` snapshot exactly; returns self."""
        self.enabled, self.tracer, self.metrics = state
        return self


__all__ = [
    "EvalMetrics",
    "EvalProbe",
    "ExplainReport",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "Span",
    "Tracer",
]
