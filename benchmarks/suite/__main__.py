"""``python -m benchmarks.suite`` (from the repository root)."""

import sys

from .cli import main

sys.exit(main())
