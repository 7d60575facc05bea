"""The golden view of `scripts/snapshot.py`."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def snapshot(monkeypatch):
    # `cases` puts `perfbench/` on the path; the test's end takes it off
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec = importlib.util.spec_from_file_location(
        "snapshot", ROOT / "scripts" / "snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_golden_view_has_the_committed_cases(snapshot):
    # the inputs are the `repr`s of fixed floats, so they are the same on
    # every machine; the reports' last digits are not
    keys = [key for name, inputs in snapshot.cases()
            for mode in snapshot.MODES
            if (key := snapshot.golden_key(name, inputs, mode))]
    with (ROOT / "tests" / "golden_reports.csv").open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert list(snapshot.GOLDEN_COLUMNS) == header
    assert keys == [row[:10] for row in rows]
