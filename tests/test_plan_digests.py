"""Plan identity: every statement of a fixed corpus keeps its optimized
core and its optimizer firings.

The corpus is the nine ``frontend_cold`` templates of
``benchmarks/suite/workloads.py`` at ``@k = 7``, the paper's Q1 and Q2
as ``scalar_eval`` writes them, and one application of every stdlib
macro (``test_macro_compilation.APPLICATIONS``).  Each statement is
planned under the default optimizer and under the strictly-sound one
(``default_optimizer(False)``).  ``plan_digests.json`` holds, per mode
and statement, a hash of the optimized core (⊥ reasons dropped) and the
total firings.  An optimizer refactor that keeps plans leaves the file
as it is; a change that only saves firings lowers counts beside equal
hashes.

The vals are small pure-Python values of the benchmark's types (the
optimized core names a val; it never holds its value), so the file is
the same with or without numpy and under any ``PYTHONHASHSEED``.

Regenerate with ``PYTHONPATH=src python tests/test_plan_digests.py
--write``.
"""

from __future__ import annotations

import ast as pyast
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.ast import fingerprint
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer
from repro.system.session import Session
from repro.types.types import TArray, TArrow, TNat, TProduct, TReal

from test_macro_compilation import APPLICATIONS, _environment

HERE = Path(__file__).parent
DIGESTS = HERE / "plan_digests.json"
WORKLOADS = HERE.parent / "benchmarks" / "suite" / "workloads.py"
MODES = {"default": True, "strict": False}


def _workload_texts(name: str, **values) -> list:
    """A statement list of the benchmark's workloads module, read from
    its source (importing it needs numpy), with ``@key`` filled."""
    module = pyast.parse(WORKLOADS.read_text("utf-8"))
    for node in module.body:
        if isinstance(node, pyast.Assign) \
                and node.targets[0].id == name:
            texts = pyast.literal_eval(node.value)
            break
    else:  # pragma: no cover - the benchmark renamed its list
        raise LookupError(name)
    for key, value in values.items():
        texts = [text.replace(f"@{key}", str(value)) for text in texts]
    return texts


def _reals(shape, start=60.0):
    size = 1
    for extent in shape:
        size *= extent
    return Array(shape, [start + (n % 37) * 0.5 for n in range(size)])


def _sessions(assume_error_free: bool):
    """(label prefix, session, texts) for each part of the corpus."""
    def fresh():
        session = Session()
        session.env.optimizer = default_optimizer(assume_error_free)
        return session

    frontend = fresh()
    frontend.env.set_val("M", Array((3, 3), [1 + n % 9 for n in range(9)]))
    for name in ("A", "B"):
        frontend.env.set_val(name, Array((48,), [n % 10 for n in range(48)]))

    days = 10  # inputs.HEATWAVE_DAYS
    scalar = fresh()
    triples = TArray(TProduct((TReal(), TReal(), TReal())), 1)
    scalar.register_co("heatindex", lambda day: 90.0,
                       TArrow(triples, TReal()))
    scalar.register_co("june_sunset", lambda args: 20,
                       TArrow(TProduct((TReal(), TReal(), TNat())), TNat()))
    scalar.env.set_val("T", _reals((days * 24,), 78.0))
    scalar.env.set_val("RH", _reals((days * 24,), 60.0))
    scalar.env.set_val("WS", _reals((days * 48, 4), 6.0))
    scalar.env.set_val("T3", _reals((720, 1, 1), 80.0))
    for name, value in (("threshold", 96.0), ("NYlat", 40.78),
                        ("NYlon", 73.97)):
        scalar.env.set_val(name, value)

    stdlib = fresh()
    env = _environment(False)
    for name in ("Av", "Rv", "Mv"):
        stdlib.env.set_val(name, env.get_val(name))

    templates = _workload_texts("FRONTEND_TEMPLATES", k=7)
    queries = _workload_texts("SCALAR_STATEMENTS", days=days)[:2]
    yield "template", frontend, dict(enumerate(templates))
    yield "Q", scalar, {n + 1: text for n, text in enumerate(queries)}
    yield "", stdlib, {name: APPLICATIONS[name] + ";"
                       for name in sorted(APPLICATIONS)}


def _unreasoned(fp):
    if not isinstance(fp, tuple):
        return fp
    if fp[:1] == ("Bottom",):
        return ("Bottom",)
    return tuple(_unreasoned(part) for part in fp)


def digests() -> dict:
    """Per mode, per statement: ``[core hash, total firings]``."""
    out = {}
    for mode, assume_error_free in MODES.items():
        table = out[mode] = {}
        for prefix, session, texts in _sessions(assume_error_free):
            for key, text in texts.items():
                report = session.explain(text)
                core = repr(_unreasoned(fingerprint(report.core)))
                table[f"{prefix}{key}"] = [
                    hashlib.sha256(core.encode()).hexdigest()[:16],
                    sum(stats.applications
                        for stats in report.phase_stats.values()),
                ]
    return out


@pytest.fixture(scope="module")
def current() -> dict:
    return digests()


@pytest.mark.parametrize("mode", list(MODES))
def test_plans_match_the_pinned_digests(current, mode):
    pinned = json.loads(DIGESTS.read_text("utf-8"))[mode]
    assert len(pinned) == 67
    assert current[mode] == pinned


if __name__ == "__main__":
    table = json.dumps(digests(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        DIGESTS.write_text(table, "utf-8")
    else:
        sys.stdout.write(table)
