"""Compare two run records of the suite.

    python3 benchmarks/suite/compare.py old.json new.json

One row per (workload, end-to-end metric): both medians with their
quartiles over trials, the ratio new/old with its base, and a verdict
against the metric's bound in ``BENCHMARK.json`` — ``better``, ``same``,
``worse``, or ``unresolved`` when the change is inside the bound but
either side's trial-to-trial spread is wider than the bound
(``round_p90_ms`` is shown without a verdict: it is not gated).
Per-layer values follow.  Exits non-zero on any ``worse`` row or when more
statements failed than before.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
from benchmarks.suite.cli import UNGATED, load_spec, spread  # noqa: E402


def verdict(metric: Dict[str, Any], old: Dict[str, Any],
            new: Dict[str, Any]) -> str:
    worsening = (new["value"] - old["value"]) / old["value"]
    if metric["better"] == "higher":
        worsening = -worsening
    if worsening > metric["bound"]:
        return "worse"
    if worsening < -metric["bound"]:
        return "better"
    if max(spread(old["trials"]), spread(new["trials"])) > metric["bound"]:
        return "unresolved"
    return "same"


def _quartiles(samples: List[float]) -> str:
    if len(samples) < 2:
        return "[single trial]"
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"[{q1:.4g}..{q3:.4g}]"


def compare(old: Dict[str, Any], new: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    """Print the comparison; return the number of regressions."""
    regressions = 0
    shared = [name for name in old["workloads"] if name in new["workloads"]]
    print(f"{'workload':<14} {'metric':<17} {'old':>10} {'quartiles':<20} "
          f"{'new':>10} {'quartiles':<20} {'new/old':>8}  verdict")
    for name in shared:
        before, after = old["workloads"][name], new["workloads"][name]
        if after["failed"] > before["failed"]:
            regressions += 1
            print(f"{name:<14} failed statements rose from "
                  f"{before['failed']} to {after['failed']}")
        for metric in spec["end_to_end"] + UNGATED:
            a = before.get("end_to_end", {}).get(metric["name"])
            b = after.get("end_to_end", {}).get(metric["name"])
            if a is None or b is None:
                continue
            if "bound" in metric:
                outcome = verdict(metric, a, b)
                regressions += outcome == "worse"
                outcome += f", bound {metric['bound']}"
            else:
                outcome = "not gated"
            print(f"{name:<14} {metric['name']:<17} {a['value']:>10.4g} "
                  f"{_quartiles(a['trials']):<20} {b['value']:>10.4g} "
                  f"{_quartiles(b['trials']):<20} "
                  f"{b['value'] / a['value']:>7.3f}x  {outcome}  "
                  f"(of {a['value']:.4g} {metric['unit']})")
    print()
    print(f"{'workload':<14} {'per-layer metric':<34} {'old':>14} "
          f"{'new':>14} {'new/old':>8}")
    for name in shared:
        before = old["workloads"][name].get("per_layer", {})
        after = new["workloads"][name].get("per_layer", {})
        for metric in spec["per_layer"]:
            a, b = before.get(metric["name"]), after.get(metric["name"])
            if a is None and b is None:
                continue
            ratio = f"{b / a:.3f}x" if a and b is not None else "-"
            shown = ["null" if v is None else f"{v:.4f}" for v in (a, b)]
            print(f"{name:<14} {metric['name']:<34} {shown[0]:>14} "
                  f"{shown[1]:>14} {ratio:>8}")
    return regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    regressions = compare(records[0], records[1], load_spec())
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
