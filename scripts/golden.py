#!/usr/bin/env python3
"""Write the golden reports that `tests/test_golden.py` checks the library
against: both averaging modes on the first GOLDEN_DRAWS general-pool draws
and on `snapshot.pole_cases()`.

Usage: PYTHONPATH=<checkout>/src python scripts/golden.py [OUT]

OUT defaults to ``tests/golden_reports.csv`` of the checkout that
`import blochcomplexity` finds, and the general pool is read from the
`perfbench/` next to that package's `src/`, as `snapshot.py` reads it. Each
row is one case and mode:

- ``case``: ``pool <k>`` for the k-th pool draw, ``pole <k>`` for the k-th
  pole case;
- ``a0 a1 a2 b0 b1 b2 alpha energy``: the inputs, each float as its
  `repr`, so that the test rebuilds them bit for bit;
- ``mode``, and ``outcome``: the degeneracy label of the report, or the
  class of the typed error that `analyze` (or the problem's construction)
  raised;
- ``segments``: the report's number of averaging segments (empty for an
  error);
- ``C V_bar V_max s L_C``: the report's complexity, volumes, path length
  and length scale as `repr` (empty for an error).

The test compares the outcome and the segment count exactly and the five
values to a relative 1e-9. The values move by far less than that between
machines, whose last digits may differ where numpy fuses multiply-adds
(see `snapshot.py`): moving a and b by up to 2 units in the last place
moved them by at most about 1e-11. Regenerate the file only for a change
that is meant to change these reports, and say so where the change is
recorded.
"""

import csv
import sys
from pathlib import Path

import numpy as np

import blochcomplexity as bc
from snapshot import MODES, pole_cases

GOLDEN_DRAWS = 512
INPUTS = ("a0", "a1", "a2", "b0", "b1", "b2", "alpha", "energy")
VALUES = ("C", "V_bar", "V_max", "s", "L_C")
COLUMNS = ("case", *INPUTS, "mode", "outcome", "segments", *VALUES)


def cases():
    """(name, (a, b, alpha, energy)) for the pool draws and the pole cases,
    with every input a float."""
    sys.path.insert(0, str(Path(bc.__file__).resolve().parents[2]
                           / "perfbench"))
    from workloads import general_pool

    for prefix, source in (("pool", general_pool()[:GOLDEN_DRAWS]),
                           ("pole", pole_cases())):
        for k, (a, b, alpha, energy) in enumerate(source):
            yield f"{prefix} {k}", (*(float(x) for x in a),
                                    *(float(x) for x in b),
                                    float(alpha), float(energy))


def row(name, inputs, mode):
    """The golden row of one case in one averaging mode."""
    cells = [name, *(repr(x) for x in inputs), mode]
    try:
        problem = bc.EvolutionProblem(np.array(inputs[:3]),
                                      np.array(inputs[3:6]),
                                      energy=inputs[7])
        rep = bc.analyze(problem, bc.SubOptimalParams(inputs[6]),
                         bc.AnalysisConfig(averaging_mode=mode))
    except bc.BlochComplexityError as err:
        return cells + [type(err).__name__] + [""] * (1 + len(VALUES))
    values = (rep.complexity, rep.volume.v_bar, rep.volume.v_max, rep.s,
              rep.length_scale)
    return cells + [rep.degeneracy_label, str(len(rep.volume.segments)),
                    *(repr(float(x)) for x in values)]


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1] if len(sys.argv) == 2 else
               Path(bc.__file__).resolve().parents[2] / "tests"
               / "golden_reports.csv")
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for name, inputs in cases():
            for mode in MODES:
                writer.writerow(row(name, inputs, mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
