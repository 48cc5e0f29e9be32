"""Every script under ``examples/`` runs to completion.

Each example is a user-facing walkthrough of the public API; running
them here keeps one from rotting silently when the library moves under
it (a stdlib macro shadowing a name an example registers, a renamed
entry point).  Each runs in its own interpreter with the working and
temporary directories pointed at a per-test path, so files an example
writes never land in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script, tmp_path):
    # the example runs from tmp_path, so inherited entries (a numpy
    # shadow in the no-numpy lane, say) must not be relative
    inherited = [os.path.abspath(entry) for entry in
                 os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *inherited])}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
