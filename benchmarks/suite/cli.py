"""The harness: spawn trials, aggregate, print every metric, record.

One closed loop, one client.  A *trial* is a fresh subprocess of
:mod:`.trial`; each workload gets :data:`TRIALS` untraced trials that
share the measuring time equally (interleaved round-robin across
workloads, so machine drift hits all alike) and, for the per-layer
half, one traced trial.  End-to-end numbers never come from the traced
trial.

``--workload NAME --seed N --seconds S --trace 0|1`` is the form the
benchmark driver calls; the last line printed is then one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` all six workloads run, both halves.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from . import OUT_DIR, ROOT

#: untraced trials per workload; set-up, CPU and memory are per trial
TRIALS = 5
#: measured and printed like the end-to-end metrics, but not gated by a
#: bound in BENCHMARK.json: on a shared host the tail of the round times
#: follows the host's bursts, not the program (README, noise calibration)
UNGATED = [{"name": "round_p90_ms", "unit": "ms", "better": "lower"}]
#: a trial that has not reported after this long is abandoned
TRIAL_TIMEOUT_S = 170
#: what the driver's JSON line carries for a per-layer metric whose
#: layer could not be measured (printed as ``null`` everywhere else)
UNAVAILABLE = -1.0
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: per-layer counts that must repeat exactly for one seed (``--check``)
EXACT = re.compile(r"optimizer\.firings|eval\.node_evals|"
                   r"kernels\.cells_vectorized|plan_cache\.hit_ratio|"
                   r"setops\..*|dense\..*")


class TrialError(RuntimeError):
    """A trial process died, hung, or printed no report."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn_trial(workload: str, seed: int, trace: int,
                seconds: Optional[float] = None,
                rounds: Optional[int] = None) -> Dict[str, Any]:
    """Run one trial process to completion and return its report, plus
    the CPU seconds of the process and every worker it reaped."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    command = [sys.executable, "-m", "benchmarks.suite.trial",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    command += (["--rounds", str(rounds)] if rounds is not None
                else ["--seconds", repr(seconds)])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(time.time())], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise TrialError(f"{workload}: trial timed out") from exc
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise TrialError(f"{workload}: trial exited with {done.returncode}")
    report = json.loads(lines[-1])
    report["cpu_total_s"] = (after.ru_utime + after.ru_stime
                             - before.ru_utime - before.ru_stime)
    return report


# -- aggregation ---------------------------------------------------------------

def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(trials: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload from its untraced trials:
    per-trial values, and the reported value — the median of trials,
    except the round percentiles, which pool every trial's rounds."""
    pooled = [ms for trial in trials for ms in trial["round_ms"]]
    per_trial = {
        "setup_s": [t["setup_s"] for t in trials],
        "stmts_per_s": [
            t["statements_per_round"] * len(t["round_ms"])
            / (sum(t["round_ms"]) / 1e3) for t in trials],
        "round_p50_ms": [statistics.median(t["round_ms"]) for t in trials],
        "round_p90_ms": [_p90(t["round_ms"]) for t in trials],
        "cpu_ms_per_round": [
            (t["cpu_total_s"] - t["cpu_at_setup_s"]) * 1e3
            / len(t["round_ms"]) for t in trials],
        "peak_rss_mb": [t["peak_rss_mb"] for t in trials],
    }
    values = {name: statistics.median(samples)
              for name, samples in per_trial.items()}
    values["round_p50_ms"] = statistics.median(pooled)
    values["round_p90_ms"] = _p90(pooled)
    return {name: {"value": values[name], "trials": per_trial[name]}
            for name in per_trial}


def spread(samples: List[float]) -> float:
    """Trial-to-trial spread: the distance between the quartiles as a
    share of the median (with five trials, second to fourth value: one
    trial hit by a burst of the host does not make a row unresolved)."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def provenance(seed: int, seconds: float, order: List[str],
               repro_removed: List[str]) -> Dict[str, Any]:
    sha, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT,
                capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "utc": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "seed": seed, "seconds": seconds, "trials": TRIALS,
        "trial_order": order, "repro_env_removed": repro_removed,
    }


# -- one run ---------------------------------------------------------------------

def measure(spec: Dict[str, Any], names: List[str], seed: int,
            seconds: float, halves: List[int]) -> Dict[str, Any]:
    """Run the trials of ``names`` and return the run record."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    order: List[str] = []
    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    record = {"provenance": provenance(seed, seconds, order, removed),
              "workloads": {}}
    if 0 in halves:
        for _ in range(TRIALS):
            for name in names:
                order.append(name)
                untraced[name].append(
                    spawn_trial(name, seed, 0, seconds=seconds / TRIALS))
    if 1 in halves:
        for name in names:
            order.append(f"{name}:traced")
            traced[name] = spawn_trial(name, seed, 1, seconds=seconds)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in names:
        reports = untraced[name] + ([traced[name]] if name in traced else [])
        problems = [p for report in reports for p in report["problems"]]
        if any(report["why"] != whys[name] for report in reports):
            problems.append("why differs between workloads.py and "
                            "BENCHMARK.json")
        entry: Dict[str, Any] = {
            "attempted": sum(report["attempted"] for report in reports),
            "failed": len(problems), "problems": problems[:20],
        }
        if untraced[name]:
            entry["rounds"] = [len(t["round_ms"]) for t in untraced[name]]
            entry["end_to_end"] = end_to_end(untraced[name])
        if name in traced:
            entry["per_layer"] = traced[name]["layers"]
            entry["per_layer_reasons"] = traced[name]["layer_reasons"]
        record["workloads"][name] = entry
    return record


def show(record: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Every metric by name with its unit, one block per workload."""
    for name, entry in record["workloads"].items():
        print(f"== {name}: {entry['attempted']} statements attempted, "
              f"{entry['failed']} failed ==")
        for problem in entry["problems"]:
            print(f"   FAILED {problem}")
        if "end_to_end" in entry:
            rounds = sum(entry["rounds"])
            for metric in spec["end_to_end"] + UNGATED:
                got = entry["end_to_end"][metric["name"]]
                wide = spread(got["trials"])
                flag = "  (not gated)" if "bound" not in metric else \
                    "  (spread exceeds bound)" if wide > metric["bound"] else ""
                print(f"   {metric['name']:<34} {got['value']:>14.4f} "
                      f"{metric['unit']:<6} spread {wide:.3f} over "
                      f"{len(got['trials'])} trials, {rounds} rounds{flag}")
        if "per_layer" in entry:
            for metric in spec["per_layer"]:
                value = entry["per_layer"].get(metric["name"])
                if value is None:
                    reason = entry["per_layer_reasons"].get(
                        metric["name"], "not reported")
                    print(f"   {metric['name']:<34} {'null':>14} "
                          f"{metric['unit']:<6} ({reason})")
                else:
                    print(f"   {metric['name']:<34} {value:>14.4f} "
                          f"{metric['unit']}")
            coverage = entry["per_layer"].get("trace.coverage_ratio")
            if coverage is not None and not 0.85 <= coverage <= 1.15:
                print("   FLAG trace.coverage_ratio outside 0.85-1.15: "
                      "layer times do not add up to the untraced round")


def save(record: Dict[str, Any]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    origin = record["provenance"]
    path = os.path.join(
        OUT_DIR, f"run-{origin['git_sha']}-{origin['utc']}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


def driver_line(entry: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """The one-object result line of the benchmark contract."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if "end_to_end" in entry:
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {
                "value": entry["end_to_end"][metric["name"]]["value"],
                "unit": metric["unit"]}
    if "per_layer" in entry:
        for metric in spec["per_layer"]:
            value = entry["per_layer"].get(metric["name"])
            metrics[metric["name"]] = {
                "value": UNAVAILABLE if value is None else value,
                "unit": metric["unit"]}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


# -- --check ---------------------------------------------------------------------

def check(spec: Dict[str, Any], seed: int) -> List[str]:
    """Fast self-test (2 rounds per workload): names, references,
    exact counts repeat, inputs follow the seed.  Returns complaints."""
    from . import inputs

    complaints: List[str] = []
    declared = [w["name"] for w in spec["workloads"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    gated = [m["name"] for m in spec["end_to_end"]]
    for name in declared + layer_names + gated:
        if not NAME.fullmatch(name):
            complaints.append(f"bad name {name!r}")
    one_trial = {"setup_s": 1.0, "statements_per_round": 1,
                 "round_ms": [1.0, 2.0], "cpu_total_s": 1.0,
                 "cpu_at_setup_s": 0.0, "peak_rss_mb": 1.0}
    if sorted(end_to_end([one_trial])) != sorted(
            gated + [m["name"] for m in UNGATED]):
        complaints.append("end-to-end names differ from BENCHMARK.json")
    if sorted(declared) != sorted(inputs.GENERATORS):
        complaints.append("BENCHMARK.json workloads differ from the suite's")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in declared:
        generate = inputs.GENERATORS[name]
        once, again, other = (inputs.digest(generate(s))
                              for s in (seed, seed, seed + 1))
        if once != again:
            complaints.append(f"{name}: inputs differ for one seed")
        if once == other:
            complaints.append(f"{name}: another seed, same inputs")
        first, second = (spawn_trial(name, seed, 1, rounds=2)
                         for _ in range(2))
        complaints += [f"{name}: {problem}"
                       for problem in first["problems"] + second["problems"]]
        if first["why"] != whys[name]:
            complaints.append(f"{name}: why differs from BENCHMARK.json")
        if sorted(first["layers"]) != sorted(layer_names):
            complaints.append(
                f"{name}: per-layer names differ from BENCHMARK.json: "
                f"{sorted(set(first['layers']) ^ set(layer_names))}")
        for metric in layer_names:
            if EXACT.fullmatch(metric) and \
                    first["layers"].get(metric) != second["layers"].get(metric):
                complaints.append(
                    f"{name}: {metric} does not repeat: "
                    f"{first['layers'].get(metric)} then "
                    f"{second['layers'].get(metric)}")
        print(f"checked {name}")
    return complaints


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.suite", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring time per workload and half")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end half only; 1: per-layer half "
                             "only (default: both)")
    parser.add_argument("--check", action="store_true",
                        help="fast self-test instead of a measurement")
    args = parser.parse_args(argv)
    try:
        if args.check:
            complaints = check(spec, args.seed)
            for complaint in complaints:
                print(f"CHECK FAILED {complaint}")
            print("check passed" if not complaints else
                  f"{len(complaints)} complaints")
            return 1 if complaints else 0
        chosen = [args.workload] if args.workload else names
        halves = [0, 1] if args.trace is None else [args.trace]
        record = measure(spec, chosen, args.seed, args.seconds, halves)
    except TrialError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    show(record, spec)
    print(f"run record: {os.path.relpath(save(record), ROOT)}")
    failed = sum(entry["failed"] for entry in record["workloads"].values())
    if args.workload:
        print(driver_line(record["workloads"][args.workload], spec))
    return 1 if failed else 0
