"""Acceptance gate: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (run with ``pytest -s`` to see the lines)."""

import time

import numpy as np

from blochcomplexity import (AnalysisConfig, EvolutionProblem,
                             SubOptimalParams, analyze, bloch_angles,
                             check_omega_independence,
                             check_supplementary_symmetry, curvature_coefficient,
                             geodesic_efficiency, path_length, propagator,
                             sample_trajectory, speed_efficiency,
                             suboptimal_field)
from blochcomplexity.cli import main as cli_main
from blochcomplexity.complexity import DEFAULT_AVERAGING_MODE
from oracles import amplitudes, path_length_numeric
from reference_values import (EFFICIENCY_TABLE, SEGMENT_AVERAGES_PI16,
                              TIME_LENGTH_TABLE, VOLUME_TABLE)

PI = np.pi
TABLE_ALPHAS = {k: k * PI / 16 for k in range(0, 9)}


def _verdict(number, name, ok):
    print(f"\nacceptance criterion {number} ({name}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_volume_table(canonical, oracle_gate):
    start = time.perf_counter()
    ok = True
    for k, (v_bar, v_max, c_ref, lc_ref) in VOLUME_TABLE.items():
        rep = analyze(canonical, SubOptimalParams(TABLE_ALPHAS[k]))
        ok &= abs(rep.volume.v_bar - v_bar) <= 2e-3
        ok &= abs(rep.volume.v_max - v_max) <= 2e-3
        ok &= abs(rep.complexity - c_ref) <= 2e-3
        ok &= abs(rep.length_scale - lc_ref) <= 2e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(1, f"volume/complexity table, {elapsed:.2f}s", ok)


def test_criterion_2_efficiency_table(canonical):
    start = time.perf_counter()
    ok = True
    for k, (ge, se, k2) in EFFICIENCY_TABLE.items():
        params = SubOptimalParams(TABLE_ALPHAS[k])
        f = suboptimal_field(canonical, params)
        ok &= abs(geodesic_efficiency(canonical, params) - ge) <= 1e-3
        ok &= abs(speed_efficiency(f, canonical.a_hat) - se) <= 1e-3
        ok &= abs(curvature_coefficient(f, canonical.a_hat) - k2) <= 1e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(2, f"efficiency/curvature table, {elapsed:.3f}s", ok)


def test_criterion_3_time_length_table(canonical):
    ok = True
    for k, (t_ref, s_ref) in TIME_LENGTH_TABLE.items():
        params = SubOptimalParams(TABLE_ALPHAS[k])
        ok &= abs(sample_trajectory(canonical, params).t_b - t_ref) <= 1e-3
        ok &= abs(path_length(canonical, params) - s_ref) <= 1e-3
    _verdict(3, "evolution time and path length table", ok)


def test_criterion_4_worked_case_replication(canonical, oracle_gate):
    rep = analyze(canonical, SubOptimalParams(PI / 16))
    segments = rep.volume.segments
    ok = len(segments) == 2
    (_, t1, avg1), (_, _, avg2) = segments
    ok &= abs(avg1 - SEGMENT_AVERAGES_PI16[0]) <= 2e-4
    ok &= abs(avg2 - SEGMENT_AVERAGES_PI16[1]) <= 2e-4
    ok &= abs(t1 - 0.9644) <= 1e-3
    theta_mid, _ = bloch_angles(amplitudes(canonical, SubOptimalParams(PI / 16),
                                           rep.t_ab / 2.0))
    ok &= abs(theta_mid - 2.1789) <= 1e-3
    ok &= abs(rep.volume.v_max - 0.2243) <= 5e-4

    sup = SubOptimalParams(15 * PI / 16)
    rep_sup = analyze(canonical, sup)
    theta_min, _ = bloch_angles(amplitudes(canonical, sup, rep_sup.t_ab / 2.0))
    ok &= abs(theta_min - 0.9627) <= 1e-3
    for got, expect in ((rep_sup.volume.v_bar, rep.volume.v_bar),
                        (rep_sup.volume.v_max, rep.volume.v_max),
                        (rep_sup.complexity, rep.complexity),
                        (rep_sup.length_scale, rep.length_scale),
                        (rep_sup.t_ab, rep.t_ab)):
        ok &= abs(got - expect) <= 1e-6
    _verdict(4, "branch-segment replication at pi/16 and 15pi/16", ok)


def test_criterion_5_degenerate_worked_examples(canonical):
    rep_parallel = analyze(canonical, SubOptimalParams(PI / 2))
    meridian_problem = EvolutionProblem(a_hat=np.array([0.0, 1.0, 0.0]),
                                        b_hat=np.array([0.0, 0.0, 1.0]))
    rep_meridian = analyze(meridian_problem, SubOptimalParams(PI / 2))
    ok = True
    for rep in (rep_parallel, rep_meridian):
        ok &= abs(rep.volume.v_bar - PI / 8) <= 1e-9
        ok &= abs(rep.volume.v_max - PI / 4) <= 1e-9
        ok &= abs(rep.complexity - 0.5) <= 1e-9
    ok &= rep_parallel.degeneracy_label == "theta"
    ok &= rep_meridian.degeneracy_label == "phi"
    _verdict(5, "parallel and meridian degenerate evolutions", ok)


def test_criterion_6_property_suite(canonical, oracle_gate):
    ok = True
    alphas_16 = [k * PI / 16 for k in range(0, 16)]
    times_8 = np.linspace(0.1, 2.0, 8)

    # propagator unitarity and amplitude norm at zero tolerance budget
    for alpha in alphas_16:
        params = SubOptimalParams(alpha)
        f = suboptimal_field(canonical, params)
        for t in times_8:
            u = propagator(f, t)
            ok &= float(np.max(np.abs(u.conj().T @ u - np.eye(2)))) <= 1e-12
            c = amplitudes(canonical, params, t)
            ok &= abs(np.linalg.norm(c) - 1.0) <= 1e-12

    # reference-integrator agreement on the 16 x 8 grid, from the gate
    ok &= len(oracle_gate) == 16 and all(r.passed for r in oracle_gate)

    # supplementary-angle symmetry on all grid pairs; the (0, pi) endpoint
    # pair sits outside the harness precondition, so compare reports directly
    for k in range(1, 8):
        for r in check_supplementary_symmetry(k * PI / 16):
            ok &= r.passed and r.delta <= 1e-6
    rep_0 = analyze(canonical, SubOptimalParams(0.0))
    rep_pi = analyze(canonical, SubOptimalParams(PI))
    for got, expect in ((rep_pi.volume.v_bar, rep_0.volume.v_bar),
                        (rep_pi.volume.v_max, rep_0.volume.v_max),
                        (rep_pi.complexity, rep_0.complexity),
                        (rep_pi.length_scale, rep_0.length_scale)):
        ok &= abs(got - expect) <= 1e-6

    # omega invariance
    for omega in (0.5, 2.0, 3.7):
        for r in check_omega_independence(PI / 16, 1.0, omega):
            ok &= r.passed
            if not r.param.endswith("time_ratio"):
                ok &= r.delta <= 1e-8

    # bounds and closed-form-vs-quadrature everywhere on the sweep grid
    for alpha in np.linspace(0.0, PI, 17):
        params = SubOptimalParams(alpha)
        rep = analyze(canonical, params)
        ok &= rep.length_scale >= rep.s - 1e-12
        ok &= 0.0 <= rep.complexity < 1.0
        traj = sample_trajectory(canonical, params)
        numeric = path_length_numeric(traj)
        ok &= abs(numeric - rep.s) <= 1e-6

    # monotonic efficiencies / curvature on [0, pi/2], 64 points
    grid = np.linspace(0.0, PI / 2, 64)
    ge, se, k2 = [], [], []
    for alpha in grid:
        params = SubOptimalParams(alpha)
        f = suboptimal_field(canonical, params)
        ge.append(geodesic_efficiency(canonical, params))
        se.append(speed_efficiency(f, canonical.a_hat))
        k2.append(curvature_coefficient(f, canonical.a_hat))
    ok &= bool(np.all(np.diff(ge) > 0))
    ok &= bool(np.all(np.diff(se) > 0))
    ok &= bool(np.all(np.diff(k2) < 0))

    _verdict(6, "property suite", ok)


def test_criterion_7_figure_data(canonical, tmp_path, oracle_gate):
    fig5 = tmp_path / "fig5.csv"
    ok = cli_main(["figdata", "fig5", "--points", "257", "--out",
                   str(fig5)]) == 0
    rows = [line.split(",") for line in
            fig5.read_text().splitlines()[1:]]
    values = np.array([[float(a), float(v)] for a, v in rows])
    k_min = int(np.argmin(values[:, 1]))
    ok &= abs(values[k_min, 0] - PI / 2) <= 1e-9
    ok &= abs(values[k_min, 1] - 2.2214) <= 1e-3

    fig4 = tmp_path / "fig4.csv"
    ok &= cli_main(["figdata", "fig4", "--points", "17", "--out",
                    str(fig4)]) == 0
    rows = [line.split(",") for line in fig4.read_text().splitlines()[1:]]
    for a_text, c_text in rows:
        alpha = min(float(a_text), PI)
        rep = analyze(canonical, SubOptimalParams(alpha))
        ok &= abs(float(c_text) - rep.complexity) <= 1e-6
    _verdict(7, "figure-data extrema and consistency", ok)


def test_criterion_8_averaging_mode_resolution(canonical, oracle_gate):
    ok = DEFAULT_AVERAGING_MODE == "appendix_piecewise"
    piecewise = AnalysisConfig(averaging_mode="appendix_piecewise")
    uniform = AnalysisConfig(averaging_mode="uniform")
    deltas = []
    for k, (v_bar_ref, _, _, _) in VOLUME_TABLE.items():
        params = SubOptimalParams(TABLE_ALPHAS[k])
        v_piecewise = analyze(canonical, params, piecewise).volume.v_bar
        v_uniform = analyze(canonical, params, uniform).volume.v_bar
        ok &= abs(v_piecewise - v_bar_ref) <= 2e-3
        deltas.append((k, v_uniform - v_bar_ref))
    print("\nuniform-mode deltas against the reference volume column:")
    for k, delta in deltas:
        print(f"  alpha = {k:2d}/16 pi: uniform - reference = {delta:+.4f}")
    _verdict(8, "averaging-mode resolution (appendix_piecewise pinned)", ok)
