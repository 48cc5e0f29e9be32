"""The benchmark suite: one harness, six workloads, numbers by layer.

Run ``python3 benchmarks/suite/run.py --seed 1`` (or ``PYTHONPATH=src
python -m benchmarks.suite --seed 1``) from the repository root; see
``README.md`` in this directory for the metric and workload tables.
"""

import os

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
#: run records, traces and per-trial scratch files (git-ignored)
OUT_DIR = os.path.join(SUITE_DIR, "out")
