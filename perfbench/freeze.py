"""Freeze the expected outputs the benchmark checks every op against.

    python3 perfbench/freeze.py

Run once, at the commit whose behaviour is the reference; it rewrites
perfbench/expected/. The manifest records that commit, this command, the
versions used and a digest of each input pool, so a run can tell when its
inputs are no longer the ones the outputs were frozen for.
"""

import csv
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from harness import git_commit, source_digest
from program import ROOT, bc
from blochcomplexity import cli
from workloads import (EXPECTED_DIR, MANIFEST, general_pool, oracle_pool,
                       pool_digest)

COMMAND = "python3 perfbench/freeze.py"


def freeze_sweep():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        status = cli.main(["sweep", "--out", str(out)])
        if status != 0:
            raise SystemExit(f"sweep exited with status {status}")
        (EXPECTED_DIR / "table_sweep.csv").write_text(out.read_text())


def freeze_general(pool):
    """Uniform-mode reports of every pool draw, or the error class raised."""
    config = bc.AnalysisConfig(averaging_mode="uniform")
    rows = []
    for k, (a, b, alpha, omega) in enumerate(pool):
        problem = bc.EvolutionProblem(np.array(a), np.array(b), energy=omega)
        try:
            rep = bc.analyze(problem, bc.SubOptimalParams(alpha), config)
        except bc.BlochComplexityError as err:
            rows.append([k, "", "", "", "", type(err).__name__])
            continue
        rows.append([k] + [f"{x:.12g}" for x in (
            rep.volume.v_bar, rep.volume.v_max, rep.complexity,
            rep.length_scale)] + [""])
    _write_csv("general_uniform.csv",
               ["index", "v_bar", "v_max", "complexity", "l_c", "error"], rows)


def freeze_oracle(pool):
    """Closed-form final amplitudes; the integrator must agree with them."""
    rows = []
    for k, (a, b, alpha, total_time) in enumerate(pool):
        problem = bc.EvolutionProblem(np.array(a), np.array(b))
        f = bc.suboptimal_field(problem, bc.SubOptimalParams(alpha))
        exact = bc.propagator(f, total_time) @ problem.source_state
        numeric = bc.integrate_schrodinger(f, problem.source_state, total_time)
        if not np.max(np.abs(exact - numeric)) <= 1e-9:
            raise SystemExit(f"oracle draw {k} fails the 1e-9 gate")
        rows.append([k] + [f"{x:.12g}" for x in (
            exact[0].real, exact[0].imag, exact[1].real, exact[1].imag)])
    _write_csv("oracle.csv", ["index", "re0", "im0", "re1", "im1"], rows)


def _write_csv(name, header, rows):
    with open(EXPECTED_DIR / name, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def main():
    EXPECTED_DIR.mkdir(exist_ok=True)
    general, oracle = general_pool(), oracle_pool()
    freeze_sweep()
    freeze_general(general)
    freeze_oracle(oracle)
    MANIFEST.write_text(json.dumps({
        "command": COMMAND,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pools": {"general_uniform": pool_digest(general),
                  "oracle": pool_digest(oracle)},
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
