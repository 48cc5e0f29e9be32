"""Script entry point: ``python3 benchmarks/suite/run.py [options]``.

The same command as ``python -m benchmarks.suite``, for callers that
name a file; it only puts the repository root on the import path.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
