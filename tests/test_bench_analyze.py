"""The work counter and the memory probes of `scripts/bench_analyze.py`."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def bench_analyze(monkeypatch):
    # the script imports `snapshot` from its own directory
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "bench_analyze", SCRIPTS / "bench_analyze.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _consume(n):
    return sum(x for x in range(n))


def test_a_generator_counts_as_one_call_however_long(bench_analyze):
    # each resume of the generator is a "call" event of `sys.setprofile`
    assert [bench_analyze._counted(_consume, n)[1]
            for n in (3, 300)] == [2, 2]


def test_fig2_evaluates_no_state(bench_analyze, tmp_path):
    # the figure's efficiencies and curvature are closed-form in the field
    # direction: its counted work has no kernel point and no level
    argv, _ = bench_analyze.COMMANDS["fig2"]
    points, calls, levels = bench_analyze._counted(
        bench_analyze.bc.cli.main, [*argv, "--out", str(tmp_path / "f.csv")])
    assert (points, levels) == (0, 0)
    assert calls > 0


def test_evolve_makes_no_python_call_per_row(bench_analyze, tmp_path):
    # each of the trajectory's 4097 rows is one % format of plain floats,
    # which the profiler does not see as a call
    argv, _ = bench_analyze.COMMANDS["evolve"]
    out = tmp_path / "evolve.csv"
    _, calls, _ = bench_analyze._counted(bench_analyze.bc.cli.main,
                                         [*argv, "--out", str(out)])
    rows = len(out.read_text().splitlines()) - 1
    assert rows == 4097
    assert calls < rows


def test_fig4_peak_is_a_fresh_interpreters_own(bench_analyze, monkeypatch):
    # the child imports the package under test and reports its own peak
    # resident memory, which the package and numpy alone put above 10 MB
    monkeypatch.setattr(bench_analyze, "FIG4_PEAK_POINTS", 3)
    record = bench_analyze._fig4_peak()
    assert record["alphas"] == 3
    assert 10.0 < record["peak_rss_mb"] < 1000.0


def test_fig4_kernel_peak_grows_with_the_grid(bench_analyze, monkeypatch):
    # the peak is read inside the kernel calls of the command alone, and
    # the kernel and tracing are left as they were found
    complexity = sys.modules["blochcomplexity.complexity"]
    kernel = complexity.evaluate_angles
    peaks = []
    for points in (17, 257):
        monkeypatch.setattr(bench_analyze, "FIG4_PEAK_POINTS", points)
        peaks.append(bench_analyze._fig4_kernel_peak())
    assert 0.0 < peaks[0] < peaks[1] < 100.0
    assert complexity.evaluate_angles is kernel
    assert not tracemalloc.is_tracing()
