"""Plan text: every statement of the plan-digest corpus keeps the Python
source the code generator emits for it.

``test_plan_digests`` pins the optimized core; this pins what the code
generator makes of it.  For each statement of the same corpus (default
optimizer only), ``plan_sources.json`` holds three hashes:

* ``miss``: the source a plan-cache miss runs (the guarded text);
* ``kept``: the source of the plan the cache entry keeps, emitted on the
  first hit and typed from the optimized core;
* ``probed``: the source a profiled first run (a miss) executes, with
  its counter lines.

Fresh names and slots (``v12``, ``t3``, ``_k4`` …) are normalised
before hashing, so a change that only renumbers them keeps the file; a
renamed accumulator (``s`` → ``t``) or any moved or changed line does
not.  Kernel blocks exist only when numpy imports, so the test needs it.

Regenerate with ``PYTHONPATH=src python tests/test_plan_sources.py
--write``; without ``--write`` it prints the table, for diffing two
checkouts.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.core import kernels
from repro.surface.parser import parse_program

from test_plan_digests import _sessions

SOURCES = Path(__file__).parent / "plan_sources.json"
#: a fresh local, temporary, set, grid, def, helper or slot name
FRESH = re.compile(r"\b(_k|[vtsgfh])\d+\b")
TEXTS = ("miss", "kept", "probed")


def _hash(source: str) -> str:
    return hashlib.sha256(FRESH.sub(r"\1#", source).encode()) \
        .hexdigest()[:16]


def plan_texts(session, text: str) -> dict:
    """``{miss, kept, probed}`` sources of one statement, each from an
    empty plan cache."""
    session.plan_cache.clear()
    probed = session.explain(text).code
    core = session._desugarer.desugar(parse_program(text)[0].expr)
    session.plan_cache.clear()
    miss, kept = session.prepare(core), session.prepare(core)
    assert not miss.cached and kept.cached
    return {"miss": miss.evaluator.source, "kept": kept.evaluator.source,
            "probed": probed}


def sources() -> dict:
    """Per statement: the hashes of its :data:`TEXTS`."""
    out = {}
    for prefix, session, texts in _sessions(True):
        for key, text in texts.items():
            found = plan_texts(session, text)
            out[f"{prefix}{key}"] = [_hash(found[name]) for name in TEXTS]
    return out


def test_plan_sources_match_the_pinned_hashes():
    if not kernels.available():
        pytest.skip("kernel blocks are emitted only when numpy imports")
    pinned = json.loads(SOURCES.read_text("utf-8"))
    assert len(pinned) == 67
    assert sources() == pinned


if __name__ == "__main__":
    table = json.dumps(sources(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        SOURCES.write_text(table, "utf-8")
    else:
        sys.stdout.write(table)
