#!/usr/bin/env python3
"""Run one traced second of every benchmark workload and check the results.

Usage: python scripts/bench_smoke.py

Runs `perfbench/run.py --workload W --seed 0 --seconds 1 --trace 1` for
each workload, about 5 s in all. The traced runs replay `analyze` stage by
stage, and that replay is the only caller outside the tests of
`bounding_box` and `accessed_volume`. It still passes a sample count, as
`sample_trajectory(problem, params, n)` and `AnalysisConfig(samples=...)`,
which the library accepts and ignores. `run.py` exits 0 even when a result
is wrong, so this script exits 1 when a run exits nonzero or its last line
does not read "correct": true.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOAD_NAMES  # noqa: E402


def correct(stdout):
    """Whether the result line, the last one ``run.py`` prints, reads
    "correct": true."""
    try:
        return json.loads(stdout.splitlines()[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        return False


def main():
    failed = []
    for workload in WORKLOAD_NAMES:
        run = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True)
        ok = run.returncode == 0 and correct(run.stdout)
        print(f"{workload}: {'ok' if ok else 'FAILED'} "
              f"(exit {run.returncode})")
        if not ok:
            print(run.stdout + run.stderr, file=sys.stderr)
            failed.append(workload)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
