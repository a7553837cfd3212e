"""Entry script: ``python3 benchmarks/perf/run.py`` from a checkout root.

``BENCHMARK.json`` names this file as the benchmark command.  It only
puts the checkout root (for ``benchmarks.perf``) and ``src`` (for
``repro``) on ``sys.path``; ``python -m benchmarks.perf`` with
``PYTHONPATH=src`` is the same program.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf.cli import main  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    sys.exit(main())
