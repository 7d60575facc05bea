"""Regression net on general input: both averaging modes on fixed general
draws and on the pole cases, against the reports that `scripts/snapshot.py`
wrote to ``golden_reports.csv``. The outcome (degeneracy label or error
class) and the segment count must match exactly, and C, V_bar, V_max, s
and L_C to a relative 1e-9."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from blochcomplexity import (AnalysisConfig, BlochComplexityError,
                             EvolutionProblem, SubOptimalParams, analyze)
from blochcomplexity.complexity import AVERAGING_MODES

GOLDEN = Path(__file__).resolve().parent / "golden_reports.csv"
INPUTS = ("a0", "a1", "a2", "b0", "b1", "b2", "alpha", "energy")
VALUES = ("C", "V_bar", "V_max", "s", "L_C")


def _golden_rows(mode):
    with GOLDEN.open(newline="") as handle:
        return [row for row in csv.DictReader(handle) if row["mode"] == mode]


def _report(row):
    """(outcome, segment count, values) of `analyze` on a golden row's
    inputs, in the form the file records them."""
    a0, a1, a2, b0, b1, b2, alpha, energy = (float(row[k]) for k in INPUTS)
    try:
        problem = EvolutionProblem(np.array([a0, a1, a2]),
                                   np.array([b0, b1, b2]), energy=energy)
        rep = analyze(problem, SubOptimalParams(alpha),
                      AnalysisConfig(averaging_mode=row["mode"]))
    except BlochComplexityError as err:
        return type(err).__name__, "", ()
    return (rep.degeneracy_label, str(len(rep.volume.segments)),
            (rep.complexity, rep.volume.v_bar, rep.volume.v_max, rep.s,
             rep.length_scale))


@pytest.mark.parametrize("mode", sorted(AVERAGING_MODES))
def test_reports_match_the_golden_file(mode):
    rows = _golden_rows(mode)
    assert len(rows) == 545
    mismatches = []
    for row in rows:
        outcome, segments, values = _report(row)
        expected = tuple(float(row[k]) for k in VALUES) if segments else ()
        if (outcome, segments) != (row["outcome"], row["segments"]) or not all(
                math.isclose(got, want, rel_tol=1e-9)
                for got, want in zip(values, expected)):
            mismatches.append((row["case"], row["outcome"], row["segments"],
                               expected, outcome, segments, values))
    assert not mismatches, (f"{len(mismatches)} reports differ from "
                            f"{GOLDEN.name}, first: {mismatches[:3]}")
