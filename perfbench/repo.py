"""Where the benchmark finds the program it measures and writes its files.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from ``src/``.  Everything it writes (span dumps, the
engine's scratch files) goes under ``perfbench/out/``, which git ignores.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_DIR = HERE / "reference"


def require_sources() -> None:
    """Put ``src/`` on the import path, or exit non-zero without it."""
    if not (SRC / "repro" / "kernel" / "kernel.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources under {SRC}; run from the root "
            "of a source checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
