import argparse
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blochcomplexity import (AveragingDomainError, NonPositiveVolume,
                             QuadratureNotConverged, SubOptimalParams,
                             equatorial_problem, sample_trajectory)
from blochcomplexity.cli import (_SWEEP_ROW, build_parser, fmt, main,
                                  parse_angle)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_parse_angle_forms():
    assert parse_angle("0.75") == 0.75
    assert parse_angle("3/16pi") == pytest.approx(3 * np.pi / 16)
    assert parse_angle("1/2 pi") == pytest.approx(np.pi / 2)
    assert parse_angle("-1/4pi") == pytest.approx(-np.pi / 4)
    with pytest.raises(Exception):
        parse_angle("threepi")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("1/0pi")


def test_sweep_rejects_zero_denominator(capsys):
    # an argument error (usage message, status 2), not a ZeroDivisionError
    with pytest.raises(SystemExit) as exit_info:
        run_cli("sweep", "--alpha-start", "1/0pi")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha-start" in err and "zero denominator" in err
    assert "Traceback" not in err


def test_sweep_default_matches_reference_tables(tmp_path, oracle_gate):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["alpha", "t_ab", "s", "eta_ge", "eta_se", "kappa2",
                      "v_bar", "v_max", "complexity", "l_c", "degenerate"]
    assert len(rows) == 17
    by_alpha = {round(float(r[0]) / (np.pi / 16)): r for r in rows}
    row = by_alpha[2]  # alpha = pi/8
    assert float(row[3]) == pytest.approx(0.8607, abs=1e-3)   # eta_ge
    assert float(row[4]) == pytest.approx(0.7571, abs=1e-3)   # eta_se
    assert float(row[5]) == pytest.approx(2.9781, abs=1e-3)   # kappa2
    assert float(row[8]) == pytest.approx(0.3973, abs=2e-3)   # complexity
    assert float(row[9]) == pytest.approx(2.3509, abs=2e-3)   # l_c
    # supplementary rows carry identical values
    sup = by_alpha[14]
    for i in range(2, 10):
        assert float(sup[i]) == pytest.approx(float(row[i]), abs=1e-6)
    assert by_alpha[8][10] == "theta"
    assert row[10] == "none"


def test_sweep_matches_frozen_benchmark_output(tmp_path):
    # the benchmark checks every table_sweep op against this file at 1e-9
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--out", str(out)) == 0
    with open(out, newline="") as stream:
        got = list(csv.DictReader(stream))
    frozen = REPO_ROOT / "perfbench" / "expected" / "table_sweep.csv"
    with open(frozen, newline="") as stream:
        want = list(csv.DictReader(stream))
    assert len(got) == len(want) and got[0].keys() == want[0].keys()
    for row, ref in zip(got, want):
        assert row["degenerate"] == ref["degenerate"]
        for column, value in ref.items():
            if column != "degenerate":
                assert float(row[column]) == pytest.approx(float(value),
                                                           abs=1e-9)


@pytest.mark.parametrize("argv", [("sweep",), ("tables", "I"),
                                  ("figdata", "fig4")])
def test_only_evolve_takes_a_sample_count(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv, "--samples", "4097")
    assert exit_info.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("tables", "I"), ("figdata", "fig4")])
def test_only_sweep_and_evolve_take_an_energy(argv, capsys):
    # tables and figdata print energy-free quantities only
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv, "--omega", "2")
    assert exit_info.value.code == 2
    assert "--omega" in capsys.readouterr().err


def test_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli("sweep", "--alpha-start", "1/2pi", "--alpha-end", "1/2pi",
                   "--steps", "1", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row[3]) == pytest.approx(1.0, abs=1e-9)
    assert float(row[4]) == pytest.approx(1.0, abs=1e-9)
    assert float(row[5]) == pytest.approx(0.0, abs=1e-9)
    assert float(row[8]) == pytest.approx(0.5, abs=1e-9)
    assert float(row[9]) == pytest.approx(2.2214, abs=1e-3)


@pytest.mark.parametrize("omega", ["2", "1e12", "1e-300", "1e300"])
def test_sweep_omega_scaling(tmp_path, omega):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert run_cli("sweep", "--steps", "4", "--out", str(out1)) == 0
    assert run_cli("sweep", "--steps", "4", "--omega", omega, "--out",
                   str(out2)) == 0
    _, rows1 = read_rows(out1)
    _, rows2 = read_rows(out2)
    for r1, r2 in zip(rows1, rows2):
        # t_ab scales as 1/omega; compared in units of 1/omega
        assert float(r2[1]) * float(omega) == pytest.approx(float(r1[1]),
                                                            abs=1e-10)
        for i in (8, 9):  # complexity and l_c unchanged
            assert float(r2[i]) == pytest.approx(float(r1[i]), abs=1e-8)


def test_sweep_csv_round_trip(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--steps", "4", "--out", str(out)) == 0
    original = Path(out).read_bytes()
    header, rows = read_rows(out)
    rebuilt = [",".join(header)]
    for row in rows:
        rebuilt.append(",".join(
            cell if i == 10 else f"{float(cell):.12g}"
            for i, cell in enumerate(row)))
    assert ("\n".join(rebuilt) + "\n").encode() == original


@pytest.mark.parametrize("value", [
    0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.0 / 3.0, -2.0 / 3.0, 1e17,
    123456789012.5, 1e-5, 0.1, np.pi, 1.7976931348623157e308,
    float("inf"), float("nan")])
def test_sweep_row_template_is_fmt_of_each_number(value):
    # the row is one % format: each number reads as `fmt` gives it, the
    # label as it is
    numbers = [value, -value, value / 7.0, value * 3.0, 0.5, 2.0, value,
               1e-12, 1.0 - 1e-16, value]
    assert _SWEEP_ROW % (*numbers, "theta") == ",".join(
        [*map(fmt, numbers), "theta"])


def test_sweep_averaging_flag(tmp_path):
    uni = tmp_path / "uni.csv"
    pw = tmp_path / "pw.csv"
    args = ["sweep", "--alpha-start", "1/16pi", "--alpha-end", "1/16pi",
            "--steps", "1"]
    assert run_cli(*args, "--averaging", "uniform", "--out", str(uni)) == 0
    assert run_cli(*args, "--averaging", "appendix-piecewise", "--out",
                   str(pw)) == 0
    _, rows_u = read_rows(uni)
    _, rows_p = read_rows(pw)
    assert float(rows_p[0][6]) == pytest.approx(0.1536, abs=2e-4)
    assert float(rows_u[0][6]) == pytest.approx(0.0722, abs=2e-4)


def test_sweep_to_stdout(capsys):
    assert run_cli("sweep", "--alpha-start", "1/4pi", "--alpha-end", "1/4pi",
                   "--steps", "1") == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0].startswith("alpha,")
    assert len(captured) == 2


def test_sweep_rejects_nonfinite_omega(capsys, recwarn):
    assert run_cli("sweep", "--steps", "1", "--omega", "nan") == 1
    err = capsys.readouterr().err
    assert "energy" in err and "Traceback" not in err
    assert not recwarn.list


def test_sweep_rejects_omega_beyond_supported_range(capsys, recwarn):
    assert run_cli("sweep", "--steps", "1", "--omega", "1e308") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "energy" in err
    assert "Traceback" not in err
    assert not recwarn.list


def test_sweep_bad_path_reports_error(capsys):
    assert run_cli("sweep", "--steps", "1", "--out",
                   "/nonexistent-dir/x.csv") == 1
    assert "/nonexistent-dir/x.csv" in capsys.readouterr().err


def test_sweep_rejects_zero_steps(capsys):
    assert run_cli("sweep", "--steps", "0") == 1
    assert "steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("error", [NonPositiveVolume, QuadratureNotConverged,
                                   AveragingDomainError],
                         ids=lambda error: error.__name__)
def test_sweep_aborts_row_on_typed_error(error, tmp_path, capsys, monkeypatch):
    # the error is injected at the step that builds each row's report
    home = sys.modules["blochcomplexity.complexity"]
    real_report = home._report

    def flaky(problem, params, *args):
        if params.alpha > 2.0:
            raise error("synthetic undersampling")
        return real_report(problem, params, *args)

    monkeypatch.setattr(home, "_report", flaky)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--steps", "4", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "aborted" in err and "synthetic undersampling" in err
    _, rows = read_rows(out)
    assert len(rows) == 3  # the two failing rows are skipped


def test_evolve_optimal_phi_column(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli("evolve", "--alpha", "1/2pi", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["t", "theta", "phi", "re_c0", "im_c0", "re_c1", "im_c1"]
    for row in rows[:: len(rows) // 16]:
        assert float(row[2]) == pytest.approx(2.0 * float(row[0]), abs=1e-10)


def test_evolve_final_row_pi16(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli("evolve", "--alpha", "1/16pi", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4097
    last = rows[-1]
    assert round(float(last[0]), 4) == 1.3781
    assert round(float(last[2]), 4) == 1.5708


def test_evolve_time_grid(capsys):
    # n rows from 0 to t_b, strictly increasing
    assert run_cli("evolve", "--alpha", "0.9", "--samples", "2049") == 0
    t = [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]]
    t_b = sample_trajectory(equatorial_problem(), SubOptimalParams(0.9)).t_b
    assert len(t) == 2049
    assert t[0] == "0"
    assert np.all(np.diff(np.array(t, dtype=float)) > 0)
    assert t[-1] == f"{t_b:.12g}"


def test_evolve_to_stdout(capsys):
    assert run_cli("evolve", "--alpha", "1/4pi", "--samples", "2049") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,theta,phi,re_c0,im_c0,re_c1,im_c1"
    assert len(lines) == 2050
    # the first row is the source x-hat, at 12 significant digits
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(1 / np.sqrt(2.0), abs=1e-12)
    assert first[1] == f"{np.pi / 2:.12g}"


def test_evolve_bad_path_reports_error(tmp_path, capsys):
    out = tmp_path / "missing" / "traj.csv"
    assert run_cli("evolve", "--alpha", "1/4pi", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert not out.exists()


def test_evolve_rejects_tiny_sample_count(capsys):
    assert run_cli("evolve", "--alpha", "1/4pi", "--samples", "10") == 1
    assert capsys.readouterr().err == (
        "error: need at least 2049 samples, got 10\n")


def _row_floats(row):
    cells = [c for c in row.split() if c not in ("pi",)]
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            pass
    return values


def test_tables_output(capsys):
    assert run_cli("tables", "III") == 0
    out = capsys.readouterr().out
    assert "5/16 pi" in out
    row = next(line for line in out.splitlines() if line.startswith("5/16"))
    assert "0.8772" in row and "1.6133" in row

    assert run_cli("tables", "II") == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("7/16"))
    assert "0.0776" in row

    assert run_cli("tables", "I") == 0
    out = capsys.readouterr().out
    assert "pi-alpha" in out
    row = next(line for line in out.splitlines() if line.startswith("3/16"))
    assert "0.0508" in row
    # the exact accessible volume here is 0.1358504, one display ulp above
    # the published 0.1358; compare numerically at the table tolerance
    v_bar, v_max = _row_floats(row)[:2]
    assert v_bar == pytest.approx(0.0508, abs=2e-3)
    assert v_max == pytest.approx(0.1358, abs=2e-3)


def test_figdata_fig2(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run_cli("figdata", "fig2", "--points", "9", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["alpha", "eta_ge", "eta_se", "kappa2"]
    mid = rows[4]  # alpha = pi/2
    assert float(mid[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(mid[2]) == pytest.approx(1.0, abs=1e-12)
    assert float(mid[3]) == pytest.approx(0.0, abs=1e-12)


def test_figdata_fig4_matches_table(tmp_path, canonical, oracle_gate):
    from blochcomplexity import analyze
    out = tmp_path / "fig4.csv"
    assert run_cli("figdata", "fig4", "--points", "17", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 17
    for row in rows:
        # the 12-digit CSV can round a hair past pi; clamp for re-analysis
        alpha = min(float(row[0]), np.pi)
        rep = analyze(canonical, SubOptimalParams(alpha))
        assert float(row[1]) == pytest.approx(rep.complexity, abs=1e-6)


def test_figdata_fig5_minimum_at_midpoint(tmp_path):
    out = tmp_path / "fig5.csv"
    assert run_cli("figdata", "fig5", "--points", "257", "--out",
                   str(out)) == 0
    _, rows = read_rows(out)
    values = np.array([[float(row[0]), float(row[1])] for row in rows])
    k_min = int(np.argmin(values[:, 1]))
    assert values[k_min, 0] == pytest.approx(np.pi / 2, abs=1e-9)
    assert values[k_min, 1] == pytest.approx(2.2214, abs=1e-3)


def test_figdata_rejects_single_point(capsys):
    assert run_cli("figdata", "fig4", "--points", "1") == 1
    assert capsys.readouterr().err == "error: --points must be >= 2\n"


def test_figdata_stops_at_a_failing_row(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    assert run_cli("figdata", "fig4", "--theta-ab", "5e-10", "--points", "2",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error: trajectory's box extents 2.5e-10 in theta and 5e-10 in phi"
        " are both below EPS_DEGENERATE = 1e-09\n")
    assert not out.exists()


def test_verify_command(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out.splitlines()
    # the contract is each row's check, param and verdict; the delta is a
    # rounding residual printed for inspection
    assert out[0] == "check,param,delta,pass"
    assert len(out) == 1 + 94
    assert all(line.endswith(",pass") for line in out[1:])
    assert any(line.startswith("propagator_oracle") for line in out)
    assert any(line.startswith("supplementary") for line in out)
    assert any(line.startswith("omega_invariance") for line in out)


def test_every_call_shares_one_parser():
    assert build_parser() is build_parser()


def test_a_sweep_after_other_flags_writes_the_same_bytes(tmp_path):
    before, other, after = (tmp_path / name for name in
                            ("before.csv", "other.csv", "after.csv"))
    assert run_cli("sweep", "--out", str(before)) == 0
    assert run_cli("sweep", "--averaging", "uniform", "--steps", "4",
                   "--alpha-end", "1/2pi", "--out", str(other)) == 0
    assert run_cli("sweep", "--out", str(after)) == 0
    assert after.read_bytes() == before.read_bytes()


def test_a_sweep_after_an_argument_error_writes_the_same_bytes(tmp_path,
                                                               capsys):
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert run_cli("sweep", "--out", str(before)) == 0
    with pytest.raises(SystemExit) as exit_info:
        run_cli("sweep", "--steps", "x")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "blochcomplexity sweep: error: argument --steps: "
        "invalid int value: 'x'")
    assert run_cli("sweep", "--out", str(after)) == 0
    assert after.read_bytes() == before.read_bytes()
    assert capsys.readouterr() == ("", "")


def _printed_help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_the_shared_parser_prints_the_help_of_a_fresh_one(argv, capsys,
                                                          monkeypatch):
    # a width set after the shared parser was built still sets the help's
    # line breaks
    build_parser()
    monkeypatch.setenv("COLUMNS", "50")
    fresh = build_parser.__wrapped__()
    assert (_printed_help(main, argv, capsys)
            == _printed_help(fresh.parse_args, argv, capsys))


def _child_env():
    """The environment of a child process that runs the package under test,
    from src/."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "blochcomplexity.cli", "sweep",
         "--alpha-start", "1/8pi", "--alpha-end", "1/8pi", "--steps", "1",
         "--out", str(tmp_path / "s.csv")],
        cwd=REPO_ROOT, capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0
    assert (tmp_path / "s.csv").exists()


def test_runtime_imports_nothing_beyond_numpy():
    # the package depends on numpy alone, and the quadrature's nodes avoid
    # numpy.polynomial, whose import costs resident memory
    code = ("import sys\n"
            "import blochcomplexity as bc\n"
            "import blochcomplexity.cli\n"
            "bc.analyze(bc.equatorial_problem(), bc.SubOptimalParams(0.3))\n"
            "print('\\n'.join(sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                            capture_output=True, text=True, check=True,
                            env=_child_env())
    loaded = result.stdout.split()
    assert "blochcomplexity.complexity" in loaded
    for banned in ("scipy", "hypothesis", "pytest", "numpy.polynomial"):
        assert not [name for name in loaded
                    if name == banned or name.startswith(banned + ".")]
