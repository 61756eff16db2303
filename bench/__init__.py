"""The repo's one benchmark: five workloads, end-to-end and per-layer metrics.

Importing the package makes ``src/`` importable, so ``python3 bench/run.py``
works from a bare checkout without ``PYTHONPATH=src``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
