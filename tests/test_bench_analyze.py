"""The work counter and the memory probe of `scripts/bench_analyze.py`."""

import importlib.util
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


def test_fig4_peak_is_a_fresh_interpreters_own(bench_analyze, monkeypatch):
    # the child imports the package under test and reports its own peak
    # resident memory, which the package and numpy alone put above 10 MB
    monkeypatch.setattr(bench_analyze, "FIG4_PEAK_POINTS", 3)
    record = bench_analyze._fig4_peak()
    assert record["alphas"] == 3
    assert 10.0 < record["peak_rss_mb"] < 1000.0
