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
  and message of the typed error it raised;
- ``pole_cases.txt``: the same lines for the problems in `pole_cases`,
  which meet an exact pole at an end or between the ends, next to one, or
  not at all; no general-pool draw meets one. The last cases cannot be
  built, and their lines hold the construction error;
- ``golden_reports.csv``: the regression net that `tests/test_golden.py`
  checks the library against, built from the same reports: one row per
  averaging mode and case among the first GOLDEN_DRAWS general-pool draws
  and the pole cases (`golden_key`), with the columns
  - ``case``: ``pool <k>`` for the k-th pool draw, ``pole <k>`` for the
    k-th pole case;
  - ``a0 a1 a2 b0 b1 b2 alpha energy``: the inputs, each float as its
    `repr`, so that the test rebuilds them bit for bit;
  - ``mode``, and ``outcome``: the degeneracy label of the report, or the
    class of the typed error that `analyze` (or the problem's
    construction) raised;
  - ``segments``: the report's number of averaging segments (empty for an
    error);
  - ``C V_bar V_max s L_C``: the report's complexity, volumes, path length
    and length scale as `repr` (empty for an error).

Byte identity is a property of one machine: compare only snapshots taken
on the same machine. numpy's batch kernels (the evaluation
kernel `trajectory.evaluate_states`, the multiply that phases the target's
state in `sample_trajectory` and the complex product in `bloch_angles`)
fuse multiply-adds where the CPU has FMA, so two machines can write
different last digits with no code change.

That is why `tests/test_golden.py` compares the outcome and the segment
count exactly but the five values only to a relative 1e-9: moving a and b
by up to 2 units in the last place moved them by at most about 1e-11.
Regenerate the committed net (``cp OUTDIR/golden_reports.csv tests/``)
only for a change that is meant to change these reports, and say so where
the change is recorded.
"""

import csv
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
    # rows of these sweeps bisect, and bisect together
    "sweep_wide": ["sweep", "--theta-ab", "3.1", "--steps", "256"],
    "sweep_wide_uniform": ["sweep", "--theta-ab", "3.1", "--steps", "256",
                           "--averaging", "uniform"],
    "tables_I": ["tables", "I"],
    "tables_II": ["tables", "II"],
    "tables_III": ["tables", "III"],
    "figdata_fig2": ["figdata", "fig2", "--points", "513"],
    "figdata_fig4": ["figdata", "fig4"],
    "figdata_fig5": ["figdata", "fig5"],
    "figdata_fig4_theta": ["figdata", "fig4", "--theta-ab", "0.3",
                           "--points", "33"],
    "evolve_pi16": ["evolve", "--alpha", "1/16pi"],
    "evolve_omega_theta": ["evolve", "--alpha", "1/4pi", "--omega", "2.5",
                           "--theta-ab", "0.3"],
    "evolve_2049": ["evolve", "--alpha", "3/4pi", "--samples", "2049"],
    "evolve_tiny": ["evolve", "--alpha", "1/4pi", "--samples", "10"],
    "verify": ["verify"],
    "sweep_unwritable": ["sweep", "--out", "/nonexistent/dir/x.csv"],
    "sweep_degenerate": ["sweep", "--theta-ab", "1e-13", "--steps", "2"],
    "figdata_degenerate": ["figdata", "fig4", "--theta-ab", "5e-10",
                           "--points", "2"],
}
MODES = ("uniform", "appendix_piecewise")
GOLDEN_DRAWS = 512
GOLDEN_COLUMNS = ("case", "a0", "a1", "a2", "b0", "b1", "b2", "alpha",
                  "energy", "mode", "outcome", "segments", "C", "V_bar",
                  "V_max", "s", "L_C")
FILES = {"pool": "general_pool.txt", "pole": "pole_cases.txt"}
# a path off any meridian through the north pole, and moves of its a and b
# in units of np.spacing
PASSAGE = ([0.1591020297601654, -0.834757507664317, 0.5271303894903547],
           [0.4267351851184539, 0.9005208855683895, -0.08342191820524425],
           2.8326732369948786)
PASSAGE_MOVES = (((2, 1, 0), (-2, -1, -3)), ((-1, 3, 0), (-3, 2, 2)),
                 ((-2, 1, 2), (-1, 0, 3)))
# pushes of `through_pole` off the pole, on both sides of the exact passage
CIRCLE_PUSHES = (0.0, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9)


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


def pole_cases():
    """(a, b, alpha, energy): the geodesics over the north pole from
    (0, 0.6, 0.8) and (0, 0.8, 0.6), turned about the y axis by 0, 1e-13,
    1e-11 and 1e-7; `PASSAGE` and its `PASSAGE_MOVES`; sources and targets
    at +-z; a source 1e-9 from the north pole; pairs that cannot be built
    (parallel, antiparallel with signed zeros, and antiparallel to 1e-12
    without a bisector); sources 5e-13 from the north pole and
    9.999999999999998e-13 from the south pole; and `through_pole` at
    `CIRCLE_PUSHES`, whose piecewise cuts meet a branch root next to the
    pole."""
    for a, b in (([0.0, 0.6, 0.8], [0.0, -0.6, 0.8]),
                 ([0.0, 0.8, 0.6], [0.0, -0.28, 0.96])):
        for delta in (0.0, 1e-13, 1e-11, 1e-7):
            yield (*([r[2] * np.sin(delta), r[1], r[2] * np.cos(delta)]
                     for r in (a, b)), 0.5 * np.pi, 1.0)
    a, b, alpha = (np.array(item) for item in PASSAGE)
    yield a, b, alpha, 1.0
    for da, db in PASSAGE_MOVES:
        yield a + np.spacing(a) * da, b + np.spacing(b) * db, alpha, 1.0
    w = [0.6, -0.48, 0.64]
    for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
        for alpha in (0.25 * np.pi, 2.5):
            yield pole, w, alpha, 1.0
            yield w, pole, alpha, 1.0
    yield [1e-9, 1e-17, 1.0], [0.0, 1.0, 0.0], 0.0, 1.0
    x, z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    yield x, x, 0.25 * np.pi, 1.0
    yield z, -np.array(z), 0.25 * np.pi, 1.0
    yield ([-0.40499928034712485, 0.19483031443833962, -0.8933178222190402],
           [0.40499928034621474, -0.19483031443851911, 0.8933178222194137],
           0.25 * np.pi, 1.0)
    for pole, off, phase in ((1.0, 5e-13, 1.0), (-1.0, 1e-12, 2.97265625)):
        a = [off * np.cos(phase), off * np.sin(phase),
             pole * np.sqrt(1.0 - off * off)]
        yield a, w, 0.25 * np.pi, 1.0
    for push in CIRCLE_PUSHES:
        yield (*through_pole(push), 1.0)


def through_pole(push):
    """(a, b, alpha): the circle about n = (sin 0.203125, 0, cos 0.203125)
    from the north pole turned by -0.5 to it turned by 1.0, both moved by
    the angle ``push`` towards n, at the alpha whose field axis is n."""
    n = np.array([np.sin(0.203125), 0.0, np.cos(0.203125)])
    z = np.array([0.0, 0.0, 1.0])
    a, b = (np.cos(t) * z + np.sin(t) * np.cross(n, z)
            + (1.0 - np.cos(t)) * (n @ z) * n for t in (-0.5, 1.0))
    a, b = (np.cos(push) * r + np.sin(push) * (n - (n @ r) * r)
            / np.linalg.norm(n - (n @ r) * r) for r in (a, b))
    ab = np.cross(a, b)
    return a, b, np.arctan2(n @ ab / np.linalg.norm(ab),
                            n @ (a + b) / np.linalg.norm(a + b))


def perfbench_workloads():
    """The `perfbench/workloads.py` next to the package's `src/`, only read
    from."""
    sys.path.insert(0, str(Path(bc.__file__).resolve().parents[2]
                           / "perfbench"))
    import workloads

    return workloads


def cases():
    """(name, inputs) of every general-pool draw and then every pole case:
    ``pool <k>`` or ``pole <k>`` for the k-th of each, and (a0, a1, a2, b0,
    b1, b2, alpha, energy), each a float."""
    for prefix, source in (("pool", perfbench_workloads().general_pool()),
                           ("pole", pole_cases())):
        for k, (a, b, alpha, energy) in enumerate(source):
            yield f"{prefix} {k}", (*map(float, a), *map(float, b),
                                    float(alpha), float(energy))


def golden_key(name, inputs, mode):
    """The case, input and mode cells of the ``golden_reports.csv`` row of
    a case in one mode; None for a pool draw after the first
    GOLDEN_DRAWS, which the file leaves out."""
    prefix, k = name.split()
    if prefix == "pool" and int(k) >= GOLDEN_DRAWS:
        return None
    return [name, *map(repr, inputs), mode]


def report(inputs, mode):
    """`analyze`'s report on a case in one averaging mode, or the typed
    error that it or the problem's construction raised."""
    try:
        problem = bc.EvolutionProblem(np.array(inputs[:3]),
                                      np.array(inputs[3:6]),
                                      energy=inputs[7])
        return bc.analyze(problem, bc.SubOptimalParams(inputs[6]),
                          bc.AnalysisConfig(averaging_mode=mode))
    except bc.BlochComplexityError as err:
        return err


def report_cells(rep):
    """Every number of a report, the box and segments included, and its
    degeneracy label; or the class and message of the error."""
    if isinstance(rep, bc.BlochComplexityError):
        return [type(rep).__name__, str(rep)]
    return _cells(dataclasses.astuple(rep))


def golden_cells(rep):
    """The outcome, segment count and values of a ``golden_reports.csv``
    row."""
    if isinstance(rep, bc.BlochComplexityError):
        return [type(rep).__name__] + [""] * 6
    values = (rep.complexity, rep.volume.v_bar, rep.volume.v_max, rep.s,
              rep.length_scale)
    return [rep.degeneracy_label, str(len(rep.volume.segments)),
            *(repr(float(x)) for x in values)]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS.items():
        (out / f"cli_{name}.txt").write_text(cli_snapshot(argv))
    lines = {prefix: [] for prefix in FILES}
    golden = [GOLDEN_COLUMNS]
    for name, inputs in cases():
        prefix, k = name.split()
        for mode in MODES:
            rep = report(inputs, mode)
            lines[prefix].append(",".join([k, mode, *report_cells(rep)]))
            key = golden_key(name, inputs, mode)
            if key:
                golden.append(key + golden_cells(rep))
    for prefix, file in FILES.items():
        (out / file).write_text("\n".join(lines[prefix]) + "\n")
    with (out / "golden_reports.csv").open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
