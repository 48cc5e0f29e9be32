"""One trial: a fresh process that sets a workload up and runs rounds.

Started by :mod:`.cli` as ``python -m benchmarks.suite.trial`` with
every ``REPRO_*`` variable removed, so ``Session()`` runs the shipped
defaults.  The trial generates the seeded inputs, builds the session,
runs one untimed warm-up round (checked against the reference), then

* ``--trace 0``: timed rounds through ``Session.run`` only;
* ``--trace 1``: untraced rounds (for plan-cache and dense-store counter
  deltas and the untraced round time), then the same rounds staged
  through :class:`.layers.Replay`, then one instrumented pass.

and prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from repro import Array, Session

from . import OUT_DIR, inputs, layers, reference
from .workloads import WORKLOADS

#: spans of at most this many staged rounds are kept and written out
STAGED_ROUNDS_MAX = 100


def plain(value: Any) -> Any:
    """A session value in the reference's plain form (see
    :mod:`.reference`)."""
    if isinstance(value, Array):
        block = value.dense_block()
        if block is not None:
            return np.asarray(block.data).reshape(value.dims)
        return ("array", value.dims, [plain(item) for item in value.flat])
    if isinstance(value, frozenset):
        return frozenset(plain(item) for item in value)
    if isinstance(value, tuple):
        return tuple(plain(item) for item in value)
    return value


class Trial:
    """A set-up session plus the round loop over it."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.workload = WORKLOADS[name]
        self.workdir = workdir
        self.data = inputs.GENERATORS[name](seed)
        self.session = Session(**self.workload.session_kwargs)
        self.workload.setup(self.session, self.data, workdir)
        self.next_round = 0

    def run_plain(self, text: str) -> Any:
        """The end-to-end path: one statement through ``Session.run``."""
        return self.session.run(text)[-1].value

    def texts(self, round_index: int) -> List[str]:
        return self.workload.statements(self.data, round_index, self.workdir)

    def run_round(self, run_statement: Callable[[str], Any]
                  ) -> Tuple[int, float, List[Any]]:
        """Run the next round; a statement that raises yields its
        exception as the result."""
        round_index = self.next_round
        self.next_round += 1
        texts = self.texts(round_index)
        results: List[Any] = []
        started = time.perf_counter()
        for text in texts:
            try:
                results.append(run_statement(text))
            except Exception as exc:
                results.append(exc)
        return round_index, time.perf_counter() - started, results

    def problems(self, round_index: int, results: List[Any],
                 compare: bool) -> List[str]:
        """One message per statement that raised or (when ``compare``)
        whose value differs from the reference."""
        found = [f"round {round_index} statement {position}: "
                 f"{type(result).__name__}: {result}"
                 for position, result in enumerate(results)
                 if isinstance(result, Exception)]
        if not compare:
            return found
        expected = self.workload.expected(self.data, round_index,
                                          self.workdir)
        for position, (result, (kind, payload)) in enumerate(
                zip(results, expected)):
            if isinstance(result, Exception) or kind == "none":
                continue
            if kind == "doubles":
                matches = reference.doubles_at_end(*payload)
            else:
                matches = reference.same(plain(result), payload)
            if not matches:
                found.append(f"round {round_index} statement {position}: "
                             f"value differs from the reference")
        return found

    def rounds_for(self, seconds: float) -> int:
        """The fixed number of rounds that go with a measuring time."""
        return max(2, int(self.workload.rounds_per_second * seconds))

    def loop(self, run_statement: Callable[[str], Any], rounds: int,
             seconds: Optional[float] = None
             ) -> Tuple[List[float], int, List[str]]:
        """Run ``rounds`` rounds — fewer (but at least two) if ``seconds``
        run out first.  The final round — every round, for workloads
        that ask — is compared against the reference, outside the timed
        region."""
        latencies: List[float] = []
        attempted, found = 0, []
        deadline = None if seconds is None else time.perf_counter() + seconds
        while True:
            round_index, elapsed, results = self.run_round(run_statement)
            latencies.append(elapsed)
            attempted += len(results)
            done = len(latencies) >= rounds or (
                deadline is not None and len(latencies) >= 2
                and time.perf_counter() >= deadline)
            found += self.problems(
                round_index, results,
                compare=done or self.workload.check_every_round)
            if done:
                return latencies, attempted, found


def _traced(trial: Trial, cold_ms: List[float], seconds: Optional[float],
            rounds: Optional[int], report: Dict[str, Any]) -> None:
    """The per-layer half; fills ``report['layers']``.  Only the untraced
    rounds (plain ``Session.run``) count towards attempted/failed."""
    def dense_snapshot() -> Dict[str, int]:
        from repro.objects import dense

        return dense.COUNTERS.snapshot()

    session = trial.session
    metrics = layers.LayerMetrics()
    # a third of the time each for untraced rounds, staged rounds, and
    # the instrumented pass plus slack
    share = None if seconds is None else seconds / 3.0
    if rounds is None:
        rounds = trial.rounds_for(share)

    # counters of the real path, over untraced rounds
    cache = layers.CounterWindow(
        metrics, ["plan_cache.hit_ratio", "plan_cache.evictions",
                  "plan_cache.invalidations", "plan_cache.replans"],
        lambda: session.plan_cache.snapshot())
    dense = layers.CounterWindow(
        metrics, ["dense.blocks_adopted", "dense.materializations",
                  "dense.dense_hits"], dense_snapshot)
    untraced, attempted, found = trial.loop(trial.run_plain, rounds, share)
    report["attempted"] += attempted
    report["problems"] += found
    n = len(untraced)
    untraced_ms = statistics.median(untraced) * 1e3
    cache.close(lambda delta: {
        "plan_cache.hit_ratio":
            layers.share(delta["hits"], delta["hits"] + delta["misses"]),
        "plan_cache.evictions": delta["evictions"] / n,
        "plan_cache.invalidations": delta["invalidations"] / n,
        "plan_cache.replans": delta["replans"] / n})
    dense.close(lambda delta: {
        f"dense.{key}": delta[key] / n
        for key in ("blocks_adopted", "materializations", "dense_hits")})

    # the same rounds, stage by stage, under the harness's own spans
    def staged() -> Dict[str, float]:
        replay = layers.Replay(session, metrics)
        latencies, _, diverged = trial.loop(
            replay.run, min(rounds, STAGED_ROUNDS_MAX), share)
        if diverged:
            raise RuntimeError(f"staged replay diverged: {diverged[0]}")
        values = replay.per_round(len(latencies))
        covered = sum(values[name] for name in layers.SPAN_METRICS.values())
        values["trace.overhead_ratio"] = \
            statistics.median(latencies) * 1e3 / untraced_ms
        values["trace.coverage_ratio"] = covered / untraced_ms
        report["spans"] = replay.tracer.spans
        # a stage that failed inside the replay already nulled its metric
        return {name: value for name, value in values.items()
                if name not in metrics.reasons}

    metrics.guard(layers.STAGED_METRICS, staged)

    # one plain and one instrumented execution of two further rounds
    def explained() -> Dict[str, float]:
        run_texts = trial.texts(trial.next_round)
        explain_texts = trial.texts(trial.next_round + 1)
        trial.next_round += 2
        return layers.explain_pass(session, run_texts, explain_texts, cold_ms)

    metrics.guard(layers.EXPLAIN_METRICS, explained)
    metrics.guard(["parallel.shm_segments_leaked"],
                  layers.shm_segments_leaked)
    report["layers"] = metrics.values
    report["layer_reasons"] = metrics.reasons


def run(name: str, seed: int, trace: bool, seconds: Optional[float],
        rounds: Optional[int], spawned_at: float) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        trial = Trial(name, seed, workdir)
        cold_ms: List[float] = []

        def run_cold(text: str) -> Any:
            started = time.perf_counter()
            try:
                return trial.run_plain(text)
            finally:
                cold_ms.append((time.perf_counter() - started) * 1e3)

        round_index, _, results = trial.run_round(run_cold)
        report: Dict[str, Any] = {
            "workload": name, "seed": seed, "why": trial.workload.why,
            "setup_s": time.time() - spawned_at,
            "cpu_at_setup_s": sum(os.times()[:2]),
            "statements_per_round": len(results),
            "attempted": len(results),
            "problems": trial.problems(round_index, results, compare=True),
        }
        if trace:
            _traced(trial, cold_ms, seconds, rounds, report)
        else:
            latencies, attempted, found = trial.loop(
                trial.run_plain,
                trial.rounds_for(seconds) if rounds is None else rounds,
                seconds)
            report["attempted"] += attempted
            report["problems"] += found
            report["round_ms"] = [elapsed * 1e3 for elapsed in latencies]
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time: fixes the round count (see "
                             "Workload.rounds_per_second) and caps the loop")
    parser.add_argument("--rounds", type=int,
                        help="exactly this many rounds per loop, no clock")
    parser.add_argument("--spawned-at", type=float, default=time.time())
    args = parser.parse_args(argv)
    if args.seconds is None and args.rounds is None:
        parser.error("give --seconds or --rounds")
    report = run(args.workload, args.seed, bool(args.trace), args.seconds,
                 args.rounds, args.spawned_at)
    spans = report.pop("spans", None)
    if spans is not None:
        origin = spans[0]["start"] if spans else 0.0
        for span in spans:
            span["start"] -= origin
            span["end"] -= origin
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
                  "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
