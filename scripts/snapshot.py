#!/usr/bin/env python3
"""Write every output that a behaviour-preserving change must keep to
OUTDIR, so that `diff -r` of two snapshots is the byte-identity check.

Usage: PYTHONPATH=<checkout>/src python scripts/snapshot.py OUTDIR

The package is the one that `import blochcomplexity` finds, and the input
pool is read from the `perfbench/` next to that package's `src/`, so the
same script snapshots any checkout. OUTDIR gets:

- ``cli_<name>.txt`` for each CLI run in ``RUNS``: its exit code, stdout
  and stderr;
- ``general_pool.txt``: one line per `perfbench` general-pool draw and
  averaging mode, with the `repr` of every number of the `analyze` report
  (the box and segments included) and its degeneracy label, or the class
  and message of the typed error it raised.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np

import blochcomplexity as bc

RUNS = {
    "sweep": ["sweep"],
    "sweep_uniform": ["sweep", "--averaging", "uniform"],
    "sweep_omega_theta": ["sweep", "--omega", "2.5", "--theta-ab", "0.3"],
    "tables_I": ["tables", "I"],
    "tables_II": ["tables", "II"],
    "tables_III": ["tables", "III"],
    "figdata_fig2": ["figdata", "fig2", "--points", "513"],
    "figdata_fig4": ["figdata", "fig4"],
    "figdata_fig5": ["figdata", "fig5"],
    "evolve_pi16": ["evolve", "--alpha", "1/16pi"],
    "evolve_omega_theta": ["evolve", "--alpha", "1/4pi", "--omega", "2.5",
                           "--theta-ab", "0.3"],
    "evolve_2049": ["evolve", "--alpha", "3/4pi", "--samples", "2049"],
    "evolve_tiny": ["evolve", "--alpha", "1/4pi", "--samples", "10"],
    "verify": ["verify"],
    "sweep_unwritable": ["sweep", "--out", "/nonexistent/dir/x.csv"],
}
MODES = ("uniform", "appendix_piecewise")


def cli_snapshot(argv):
    run = subprocess.run([sys.executable, "-m", "blochcomplexity.cli", *argv],
                         capture_output=True, text=True)
    return (f"exit {run.returncode}\n--- stdout\n{run.stdout}"
            f"--- stderr\n{run.stderr}")


def _cells(value):
    """The report's fields, flattened: floats as their `repr`, so that
    equal text means equal bits."""
    if isinstance(value, (tuple, list)):
        return [cell for item in value for cell in _cells(item)]
    if isinstance(value, str):
        return [value]
    return [repr(float(value))]


def pool_lines():
    sys.path.insert(0, str(Path(bc.__file__).resolve().parents[2]
                           / "perfbench"))
    from workloads import general_pool

    for k, (a, b, alpha, omega) in enumerate(general_pool()):
        problem = bc.EvolutionProblem(np.array(a), np.array(b), energy=omega)
        for mode in MODES:
            try:
                rep = bc.analyze(problem, bc.SubOptimalParams(alpha),
                                 bc.AnalysisConfig(averaging_mode=mode))
                cells = _cells(dataclasses.astuple(rep))
            except bc.BlochComplexityError as err:
                cells = [type(err).__name__, str(err)]
            yield ",".join([str(k), mode, *cells])


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (out / f"cli_{name}.txt").write_text(cli_snapshot(argv))
    (out / "general_pool.txt").write_text("\n".join(pool_lines()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
