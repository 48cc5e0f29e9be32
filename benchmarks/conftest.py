"""Shared helpers for the benchmark harness.

Each benchmark file regenerates one experiment from DESIGN.md §5
(EXPERIMENTS.md records the paper-claim vs. measured outcome).  Shape
claims ("who wins, by roughly what factor") are asserted with generous
margins via :func:`median_time`, so the suite is robust to machine noise
while still failing if an asymptotic claim breaks.

Benchmarks can additionally call the :func:`bench_record` fixture to
attach an observability snapshot (an
:class:`~repro.obs.ExplainReport` — optimizer rule firings, tabulation
cell counts, pipeline span timings) to the run.  Everything recorded is
written out as ``BENCH_<module>.json`` next to the benchmark files when
the session ends, so a perf regression can be diagnosed from *what the
pipeline did*, not just how long it took.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict

import pytest

from repro.core.compile import CompiledEvaluator
from repro.env.environment import TopEnv

#: observations accumulated by :func:`bench_record`, keyed by benchmark
#: module then test id; flushed to ``BENCH_*.json`` at session finish
_RECORDS: Dict[str, Dict[str, Any]] = {}


def median_time(fn: Callable[[], object], repeats: int = 5) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


@pytest.fixture(scope="session")
def std_env() -> TopEnv:
    return TopEnv.standard()


@pytest.fixture(scope="session")
def evaluator(std_env) -> CompiledEvaluator:
    return std_env.evaluator()


@pytest.fixture()
def bench_record(request):
    """Record observability data for the current benchmark.

    Returns a callable ``record(seconds=None, explain=None, file=None,
    **extra)``; ``explain`` may be an :class:`~repro.obs.ExplainReport`
    (stored via its ``to_dict()`` JSON schema) and ``extra`` any
    JSON-safe values.  Records normally land in ``BENCH_<module>.json``;
    ``file`` overrides the target (e.g. ``file="vector_backend"`` →
    ``BENCH_vector_backend.json``) so one module can feed a dedicated
    artifact that CI tracks separately.
    """
    module = request.node.module.__name__

    def record(seconds: float = None, explain: Any = None,
               file: str = None, **extra: Any) -> None:
        entry: Dict[str, Any] = dict(extra)
        if seconds is not None:
            entry["seconds"] = seconds
        if explain is not None:
            payload = (explain.to_dict()
                       if hasattr(explain, "to_dict") else dict(explain))
            # resolved queries embed their val bindings as constants, so
            # the rendered core can be huge — keep the record readable
            core = payload.get("core", "")
            if len(core) > 2000:
                payload["core"] = core[:2000] + f"... [{len(core)} chars]"
            entry["explain"] = payload
        target = f"bench_{file}" if file is not None else module
        _RECORDS.setdefault(target, {})[request.node.name] = entry

    return record


def pytest_sessionfinish(session, exitstatus):
    """Flush every recorded observation to ``BENCH_<module>.json``."""
    here = os.path.dirname(__file__)
    for module, entries in _RECORDS.items():
        name = module[len("bench_"):] if module.startswith("bench_") else module
        path = os.path.join(here, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entries, handle, indent=2, sort_keys=True)
            handle.write("\n")
