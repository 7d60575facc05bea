"""Locate the program under test: the `blochcomplexity` package in `src/`
of the checkout that holds this benchmark, never an installed copy."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))

import blochcomplexity as bc  # noqa: E402

if not Path(bc.__file__).resolve().is_relative_to(SOURCE):
    raise ImportError(f"blochcomplexity was imported from {bc.__file__}, "
                      f"not from {SOURCE}")
