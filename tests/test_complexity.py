import io
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from blochcomplexity import (AnalysisConfig, AngularBox, AveragingDomainError,
                             BlochComplexityError, EvolutionProblem,
                             NonPositiveVolume, QuadratureNotConverged,
                             SubOptimalParams, accessed_volume, analyze,
                             bloch_angles, bounding_box, branch_times,
                             complexity, complexity_length_scale,
                             equatorial_problem, sample_trajectory,
                             write_trajectory_csv)
from blochcomplexity import hamiltonians
from blochcomplexity import trajectory
from blochcomplexity.complexity import (AVERAGING_MODES, _degeneracy_kind,
                                        _volume_samples)
from blochcomplexity.trajectory import AZIMUTH_POLE_EPS, nearest_branch
from oracles import path_length_numeric
from reference_values import (ARRIVAL_TIME_PI16, BRANCH_TIME_PI16,
                              SEGMENT_AVERAGES_PI16_PRECISE, THETA_MAX_PI16,
                              UNIFORM_VBAR, VBAR_PI16, VMAX_PI16, VOLUME_TABLE)

PI = np.pi

# draw 165 of the benchmark's general pool: a pass 0.019 rad from the north
# pole, where the azimuth turns fast and panels must be bisected
DRAW_165 = (EvolutionProblem(
    np.array([-0.8137139379033355, 0.39103157742910793,
              -0.43007433394141326]),
    np.array([-0.03813177170735362, -0.18659953385244862,
              0.981695768531426]),
    energy=1.7252040145262153), SubOptimalParams(2.972744480645931))


def _unwrapped(states, anchor):
    """Reference azimuths at a sequence of states, unwrapped sample to
    sample: a pole sample (sin(theta) < AZIMUTH_POLE_EPS) takes the raw
    azimuth of the last sample off the poles, or of the first one, the
    direction of departure, when none precedes it; np.unwrap then removes
    the 2*pi jumps, and the result moves to the 2*pi branch nearest
    ``anchor`` at the first sample. Returns the azimuths and the largest
    step left between neighbours; above pi/2 the sampling cannot tell the
    winding direction."""
    theta, raw = bloch_angles(states)
    pole = np.sin(theta) < AZIMUTH_POLE_EPS
    off = np.flatnonzero(~pole)
    if off.size == 0:
        return np.full_like(raw, anchor), 0.0
    raw = raw[np.maximum.accumulate(np.where(pole, off[0],
                                             np.arange(raw.size)))]
    phi = np.unwrap(raw)
    phi += 2.0 * PI * np.round((anchor - phi[0]) / (2.0 * PI))
    return phi, float(np.max(np.abs(np.diff(phi)), initial=0.0))


def _source_azimuth(traj):
    return float(bloch_angles(traj.source)[1])


def fubini_study_density(theta):
    """Square root of the metric determinant, the oracle for the volumes."""
    return np.sin(theta) / 4.0


def test_density_normalization():
    total, _ = quad(fubini_study_density, 0.0, PI)
    assert total == pytest.approx(0.5, abs=1e-12)
    sphere_area = 2.0 * PI * total  # times the full azimuthal range
    assert sphere_area == pytest.approx(PI, abs=1e-12)
    # V at the far corner of a box, which is how V_max is computed, gives
    # the same area for the whole sphere
    sphere = AngularBox(theta_min=0.0, theta_max=PI, phi_min=0.0,
                        phi_max=2.0 * PI)
    v_max = _volume_samples(sphere.theta_min, sphere.phi_min,
                            sphere.theta_max, sphere.phi_max, "none")
    assert v_max == pytest.approx(sphere_area, abs=1e-12)


def test_instantaneous_volume_zero_at_start():
    assert _volume_samples(1.2, 0.4, 1.2, 0.4, "none") == 0.0


def test_instantaneous_volume_rectangle():
    # quarter-turn azimuth strip from the equator down to THETA_MAX_PI16
    value = _volume_samples(PI / 2, 0.0, THETA_MAX_PI16, PI / 2, "none")
    assert value == pytest.approx(0.2243, abs=5e-4)
    # independent route: double integral of the density over the rectangle
    strip, _ = quad(fubini_study_density, PI / 2, THETA_MAX_PI16)
    assert value == pytest.approx(strip * (PI / 2), abs=1e-12)


def test_instantaneous_volume_degenerate_conventions():
    # parallel: theta frozen -> |d phi| / 2
    assert _volume_samples(PI / 2, 0.0, PI / 2, 0.8, "theta") == \
        pytest.approx(0.4)
    # meridian: phi frozen -> |d theta| / 2
    assert _volume_samples(PI / 2, 1.0, PI / 2 - 0.6, 1.0, "phi") == \
        pytest.approx(0.3)


def test_parallel_time_average_oracle(canonical):
    # degenerate parallel evolution has V(t) = w t; its time average over
    # [0, pi/4w] is pi/8 by the trivial integral -- the accessed volume
    # must reproduce it through the quadrature path
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 2))
    v = accessed_volume(traj)
    assert v == pytest.approx(PI / 8, abs=1e-12)
    # sanity: V at the final sample is w*t_B = pi/4
    theta, phi = traj.angles_at(traj.t)
    assert _volume_samples(theta[0], phi[0], theta[-1], phi[-1],
                           "theta") == \
        pytest.approx(PI / 4, abs=1e-10)


def test_branch_times_pi16(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 16))
    times = branch_times(traj)
    assert len(times) == 1
    assert times[0] == pytest.approx(BRANCH_TIME_PI16, abs=1e-9)


def test_branch_times_none_beyond_transition(canonical):
    # no interior crossing once alpha exceeds arctan(1/sqrt(2))
    for alpha in (PI / 4, 3 * PI / 8, PI / 2):
        traj = sample_trajectory(canonical, SubOptimalParams(alpha))
        assert branch_times(traj) == []


def test_segment_averages_pi16(canonical, oracle_gate):
    segments = analyze(canonical, SubOptimalParams(PI / 16)).volume.segments
    assert len(segments) == 2
    (t0, t1, avg1), (t1b, t2, avg2) = segments
    assert t0 == 0.0
    assert t1 == t1b
    assert t1 == pytest.approx(BRANCH_TIME_PI16, abs=1e-9)
    assert t2 == pytest.approx(ARRIVAL_TIME_PI16, abs=1e-12)
    assert avg1 == pytest.approx(SEGMENT_AVERAGES_PI16_PRECISE[0], abs=1e-8)
    assert avg2 == pytest.approx(SEGMENT_AVERAGES_PI16_PRECISE[1], abs=1e-8)


def test_accessed_volume_modes_differ_only_with_branches(canonical):
    for k, uniform_ref in UNIFORM_VBAR.items():
        traj = sample_trajectory(canonical, SubOptimalParams(k * PI / 16))
        uniform = accessed_volume(traj, "uniform")
        piecewise = accessed_volume(traj, "appendix_piecewise")
        assert uniform == pytest.approx(uniform_ref, abs=2e-6)
        if k <= 3:
            assert piecewise > uniform + 1e-3
        else:
            assert piecewise == pytest.approx(uniform, abs=1e-12)


def test_accessed_volume_pi16(canonical, oracle_gate):
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 16))
    assert accessed_volume(traj) == pytest.approx(VBAR_PI16, abs=1e-8)
    assert accessed_volume(traj) == pytest.approx(0.1536, abs=2e-4)


def test_accessed_volume_rejects_unknown_mode(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 16))
    with pytest.raises(ValueError):
        accessed_volume(traj, "riemann")


def test_accessible_volume_pi16(canonical, oracle_gate):
    volume = analyze(canonical, SubOptimalParams(PI / 16)).volume
    assert volume.v_max == pytest.approx(VMAX_PI16, abs=1e-8)
    assert volume.box.theta_min == pytest.approx(PI / 2, abs=1e-10)
    assert volume.box.theta_max == pytest.approx(THETA_MAX_PI16, abs=1e-9)
    assert volume.box.phi_min == pytest.approx(0.0, abs=1e-10)
    assert volume.box.phi_max == pytest.approx(PI / 2, abs=1e-10)


def test_accessible_volume_degenerate_parallel(canonical):
    volume = analyze(canonical, SubOptimalParams(PI / 2)).volume
    assert volume.v_max == pytest.approx(PI / 4, abs=1e-12)
    assert volume.box.theta_max - volume.box.theta_min < 1e-9


def test_accessible_volume_7pi16(canonical):
    rep = analyze(canonical, SubOptimalParams(7 * PI / 16))
    assert rep.volume.v_max == pytest.approx(0.0228, abs=2e-4)


def test_complexity_values():
    assert complexity(0.5, 0.5) == 0.0
    assert complexity(PI / 8, PI / 4) == pytest.approx(0.5, abs=1e-15)
    assert complexity(0.1536, 0.2243) == pytest.approx(0.3152, abs=1e-3)


def test_complexity_rejects_bad_volumes():
    with pytest.raises(NonPositiveVolume):
        complexity(0.0, 1.0)
    with pytest.raises(NonPositiveVolume):
        complexity(1.0, 0.0)
    with pytest.raises(AveragingDomainError):
        complexity(2.0, 1.0)


def test_length_scale_values():
    assert complexity_length_scale(1.3, 0.0) == 1.3
    assert complexity_length_scale(1.5708, 0.5) == pytest.approx(2.2214,
                                                                 abs=1e-4)
    assert complexity_length_scale(1.6547, 0.6719) == pytest.approx(2.8888,
                                                                    abs=1e-3)


def test_length_scale_rejects_saturated_complexity():
    with pytest.raises(ValueError):
        complexity_length_scale(1.0, 1.0)
    with pytest.raises(ValueError):
        complexity_length_scale(0.0, 0.5)


def test_length_scale_equals_volume_ratio_form(canonical):
    # s/sqrt(1-C) must agree with s/sqrt(v_bar/v_max) as evaluated
    for k in (1, 4, 6):
        rep = analyze(canonical, SubOptimalParams(k * PI / 16))
        alt = rep.s / np.sqrt(rep.volume.v_bar / rep.volume.v_max)
        assert rep.length_scale == pytest.approx(alt, abs=1e-10)


def test_analyze_reproduces_volume_table(canonical, oracle_gate):
    for k, (v_bar, v_max, c_ref, lc_ref) in VOLUME_TABLE.items():
        rep = analyze(canonical, SubOptimalParams(k * PI / 16))
        assert rep.volume.v_bar == pytest.approx(v_bar, abs=2e-3)
        assert rep.volume.v_max == pytest.approx(v_max, abs=2e-3)
        assert rep.complexity == pytest.approx(c_ref, abs=2e-3)
        assert rep.length_scale == pytest.approx(lc_ref, abs=2e-3)


def test_analyze_supplementary_pair_identical(canonical, oracle_gate):
    rep_a = analyze(canonical, SubOptimalParams(PI / 16))
    rep_b = analyze(canonical, SubOptimalParams(15 * PI / 16))
    assert rep_a.volume.v_bar == pytest.approx(rep_b.volume.v_bar, abs=1e-6)
    assert rep_a.volume.v_max == pytest.approx(rep_b.volume.v_max, abs=1e-6)
    assert rep_a.complexity == pytest.approx(rep_b.complexity, abs=1e-6)
    assert rep_a.length_scale == pytest.approx(rep_b.length_scale, abs=1e-6)


def test_analyze_endpoint_pair_identical(canonical):
    # alpha = 0 and pi sit outside the harness precondition but are still a
    # supplementary pair of the sweep grid
    rep_a = analyze(canonical, SubOptimalParams(0.0))
    rep_b = analyze(canonical, SubOptimalParams(PI))
    assert rep_a.volume.v_bar == pytest.approx(rep_b.volume.v_bar, abs=1e-6)
    assert rep_a.volume.v_max == pytest.approx(rep_b.volume.v_max, abs=1e-6)
    assert rep_a.complexity == pytest.approx(rep_b.complexity, abs=1e-6)
    assert rep_a.length_scale == pytest.approx(rep_b.length_scale, abs=1e-6)


def test_analyze_volume_bounds(canonical):
    for alpha in np.linspace(0.0, PI, 21):
        rep = analyze(canonical, SubOptimalParams(alpha))
        assert 0.0 < rep.volume.v_bar <= rep.volume.v_max
        assert 0.0 <= rep.complexity < 1.0
        assert rep.length_scale >= rep.s - 1e-12


def test_accessed_rectangle_inside_accessible_box(canonical):
    for alpha in (PI / 16, PI / 3, 0.9 * PI):
        traj = sample_trajectory(canonical, SubOptimalParams(alpha))
        box = bounding_box(traj)
        theta, phi = traj.angles_at(traj.t)
        assert np.all(theta >= box.theta_min - 1e-12)
        assert np.all(theta <= box.theta_max + 1e-12)
        assert np.all(phi >= box.phi_min - 1e-12)
        assert np.all(phi <= box.phi_max + 1e-12)


def test_polar_reflection_identity(canonical):
    # integral of sin from pi/2 to xi equals integral from pi-xi to pi/2,
    # with xi the refined maximal polar angle
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 16))
    xi = bounding_box(traj).theta_max
    left, _ = quad(np.sin, PI / 2, xi)
    right, _ = quad(np.sin, PI - xi, PI / 2)
    assert left == pytest.approx(right, abs=1e-10)


def test_omega_invariance_of_analyze(canonical):
    params = SubOptimalParams(PI / 16)
    rep_1 = analyze(canonical, params)
    for omega in (0.5, 2.0, 3.7):
        rep_w = analyze(equatorial_problem(energy=omega), params)
        assert rep_w.volume.v_bar == pytest.approx(rep_1.volume.v_bar,
                                                   abs=1e-8)
        assert rep_w.volume.v_max == pytest.approx(rep_1.volume.v_max,
                                                   abs=1e-8)
        assert rep_w.complexity == pytest.approx(rep_1.complexity, abs=1e-8)
        assert rep_w.length_scale == pytest.approx(rep_1.length_scale,
                                                   abs=1e-8)
        assert rep_w.t_ab * omega == pytest.approx(rep_1.t_ab, abs=1e-10)


def test_parallel_worked_example(canonical):
    rep = analyze(canonical, SubOptimalParams(PI / 2))
    assert rep.volume.v_bar == pytest.approx(PI / 8, abs=1e-9)
    assert rep.volume.v_max == pytest.approx(PI / 4, abs=1e-9)
    assert rep.complexity == pytest.approx(0.5, abs=1e-9)
    assert rep.degeneracy_label == "theta"


def test_meridian_worked_example():
    # y-hat -> z-hat under the rotation-axis field: constant azimuth, the
    # polar angle runs linearly up to the pole
    p = EvolutionProblem(a_hat=np.array([0.0, 1.0, 0.0]),
                         b_hat=np.array([0.0, 0.0, 1.0]))
    rep = analyze(p, SubOptimalParams(PI / 2))
    assert rep.volume.v_bar == pytest.approx(PI / 8, abs=1e-9)
    assert rep.volume.v_max == pytest.approx(PI / 4, abs=1e-9)
    assert rep.complexity == pytest.approx(0.5, abs=1e-9)
    assert rep.degeneracy_label == "phi"


def test_bisection_cap_raises_naming_the_panel(monkeypatch):
    # draw 165 needs bisected panels; allowed none, the quadrature refuses
    # the run and says which panel failed
    monkeypatch.setattr(sys.modules[analyze.__module__], "MAX_BISECTIONS", 0)
    with pytest.raises(QuadratureNotConverged,
                       match=r"panel \[[-+.e0-9]+, [-+.e0-9]+\] .* after 0 "
                             r"bisections"):
        analyze(*DRAW_165, AnalysisConfig(averaging_mode="uniform"))


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_pole_passage_draw_returns_valid_report(mode):
    rep = analyze(*DRAW_165, AnalysisConfig(averaging_mode=mode))
    assert 0.0 <= rep.complexity < 1.0
    assert rep.volume.v_bar <= rep.volume.v_max
    assert rep.length_scale >= rep.s


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(averaging_mode="trapezoid")
    with pytest.raises(ValueError):
        AnalysisConfig(samples=4096)


def test_bounding_box_matches_accessible(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 8))
    box = bounding_box(traj)
    volume = analyze(canonical, SubOptimalParams(PI / 8)).volume
    assert box == volume.box


def test_invariants_across_separation_angles():
    # geometry beyond the canonical pi/2 pair, up to a nearly antipodal one
    for theta_ab in (PI / 6, PI / 3, 2 * PI / 3, 0.97 * PI):
        problem = equatorial_problem(theta_ab)
        for alpha in np.linspace(0.0, PI, 9):
            params = SubOptimalParams(alpha)
            rep = analyze(problem, params)
            assert 0.0 < rep.volume.v_bar <= rep.volume.v_max + 1e-15
            assert 0.0 <= rep.complexity < 1.0
            assert rep.length_scale >= rep.s - 1e-12
            traj = sample_trajectory(problem, params)
            assert traj.angles_at(traj.t_b)[1] == pytest.approx(theta_ab,
                                                                abs=1e-7)
            numeric = path_length_numeric(traj)
            assert numeric == pytest.approx(rep.s, abs=1e-6)


def test_piecewise_outside_its_domain_raises_typed_error():
    # a general problem whose piecewise sum of segment averages exceeds the
    # box volume; uniform averaging stays inside the contract
    problem = EvolutionProblem(
        np.array([0.032807050312592505, -0.8991911881825332,
                  -0.43632431120059234]),
        np.array([-0.00309099437953687, 0.9715686122235768,
                  0.23673799335066326]),
        energy=4.805686989940074)
    params = SubOptimalParams(2.8580521543806428)
    with pytest.raises(AveragingDomainError):
        analyze(problem, params)
    rep = analyze(problem, params, AnalysisConfig(averaging_mode="uniform"))
    assert 0.0 < rep.volume.v_bar <= rep.volume.v_max
    assert 0.0 <= rep.complexity < 1.0


@pytest.mark.parametrize("pole", (1.0, -1.0))
@pytest.mark.parametrize("alpha", (PI / 2, PI / 4, 0.3, 2.5))
def test_pole_source_invariant_under_rotation_about_z(pole, alpha):
    # a source at a pole has no azimuth of its own: turning the target about
    # z turns the whole evolution with it and must change no result
    config = AnalysisConfig(averaging_mode="uniform")
    reports = []
    for r in np.linspace(0.0, 2.0 * PI, 7, endpoint=False):
        b = np.array([np.cos(r), np.sin(r), 0.3])
        problem = EvolutionProblem(np.array([0.0, 0.0, pole]),
                                   b / np.linalg.norm(b))
        reports.append(analyze(problem, SubOptimalParams(alpha), config))
    first = reports[0]
    for rep in reports[1:]:
        assert rep.complexity == pytest.approx(first.complexity, abs=1e-9)
        assert rep.volume.v_bar == pytest.approx(first.volume.v_bar, abs=1e-9)
        assert rep.volume.v_max == pytest.approx(first.volume.v_max, abs=1e-9)
        assert rep.degeneracy_label == first.degeneracy_label


def _count_calls(monkeypatch, home, fn_name):
    """Replace ``home.fn_name`` in every package module that holds it by a
    wrapper that logs each call; returns the log."""
    original = getattr(home, fn_name)
    log = []

    def counted(*args):
        log.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "blochcomplexity"
                and getattr(module, fn_name, None) is original):
            monkeypatch.setattr(module, fn_name, counted)
    return log


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_builds_the_field_once(canonical, monkeypatch, mode):
    # pi/16 has an interior branch time, so piecewise mode cuts a segment;
    # the field and the evolution time are each computed once per analyze
    calls = {fn_name: _count_calls(monkeypatch, hamiltonians, fn_name)
             for fn_name in ("suboptimal_field", "evolution_time")}
    rep = analyze(canonical, SubOptimalParams(PI / 16),
                  AnalysisConfig(averaging_mode=mode))
    assert len(rep.volume.segments) == (1 if mode == "uniform" else 2)
    assert {fn_name: len(log) for fn_name, log in calls.items()} == {
        "suboptimal_field": 1, "evolution_time": 1}


def _log_builds(monkeypatch, log, name):
    """Make ``Trajectory.name`` log each build in ``log``."""
    build = getattr(trajectory.Trajectory, name).func

    def logged(traj):
        log.append(name)
        return build(traj)

    monkeypatch.setattr(trajectory.Trajectory, name, property(logged))


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_samples_nothing(canonical, monkeypatch, mode):
    # the sampled grid is the times t and the states there; every sampled
    # angle is angles_at at those times
    log = []
    for name in ("t", "states"):
        _log_builds(monkeypatch, log, name)
    for problem, params in ((canonical, SubOptimalParams(PI / 16)),
                            DRAW_165):
        analyze(problem, params, AnalysisConfig(averaging_mode=mode))
    assert log == []


def test_analyze_ignores_changes_to_a_copy_of_the_source_state():
    problem, params = equatorial_problem(), SubOptimalParams(PI / 16)
    before = analyze(problem, params)
    psi = problem.source_state.copy()
    psi[:] = [0.0, 1.0]
    assert not np.array_equal(problem.source_state, psi)
    assert analyze(problem, params) == before


@pytest.mark.parametrize("energy, hbar", [(1e308, 1.0), (1e10, 1e-300),
                                          (1e-300, 1e10), (5e-324, 1.0)])
def test_analyze_rejects_a_rotation_span_that_overflows(energy, hbar):
    # E/hbar outside [1e-300, 1e300]: 2|h|/hbar or t_b, and the rotation
    # angle 2wt_b with it, would overflow to inf; the problem is rejected
    # when it is built, before analyze can run
    with pytest.raises(ValueError, match="energy/hbar"):
        EvolutionProblem(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                         energy=energy, hbar=hbar)


@pytest.mark.parametrize("energy, hbar, name", [(5e-324, 5e-324, "energy"),
                                                (1e-310, 1e-310, "energy"),
                                                (1e300, 1e301, "hbar")])
def test_problem_rejects_energy_or_hbar_outside_the_supported_range(
        energy, hbar, name):
    # E/hbar is in range, but a subnormal E leaves the field h = E n with
    # subnormal components and no reliable direction
    with pytest.raises(ValueError, match=f"^{name} must lie in"):
        EvolutionProblem(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                         energy=energy, hbar=hbar)


@pytest.mark.parametrize("alpha", [1.0, PI / 2])
def test_analyze_resolves_a_tiny_separation(alpha):
    # cos of the arrival angle rounds to 1 at theta_AB = 1e-8; the arrival
    # time and the volumes must not collapse to 0
    problem = equatorial_problem(1e-8)
    rep = analyze(problem, SubOptimalParams(alpha))
    assert rep.t_ab > 0.0
    assert 0.0 <= rep.complexity < 1.0
    assert rep.volume.v_bar <= rep.volume.v_max


@pytest.mark.parametrize("beta", [k * PI / 16 for k in range(-7, 8)])
def test_vanishing_real_part_gives_no_branch_time(beta):
    # a source in the yz-plane with target z-hat: Re c1 vanishes identically,
    # so its rounding noise must not cut segments that depend on the energy
    a = np.array([0.0, np.cos(beta), np.sin(beta)])
    for alpha in np.linspace(0.0, PI, 9):
        params = SubOptimalParams(alpha)
        reps = [analyze(EvolutionProblem(a, np.array([0.0, 0.0, 1.0]),
                                         energy=energy), params)
                for energy in (1e-3, 1.0, 3.0, 10.0 ** 1.75, 1e5)]
        for rep in reps:
            assert len(rep.volume.segments) == len(reps[1].volume.segments)
            assert rep.complexity == pytest.approx(reps[1].complexity,
                                                   abs=1e-9)


def test_bounding_box_finds_extremum_inside_last_interval():
    # the theta maximum lies between the last two samples, where a scan over
    # the sample grid brackets nothing
    problem = EvolutionProblem(
        np.array([-0.6881756923821589, 0.2805924557488438,
                  0.6690904947697056]),
        np.array([0.012159279202548327, 0.08242226114636786,
                  -0.9965233177386239]),
        energy=0.7342144100281651)
    params = SubOptimalParams(1.9129557205149939)
    traj = sample_trajectory(problem, params)
    dense = np.linspace(0.0, traj.t_b, 2_000_001)
    theta, _ = bloch_angles(traj.states_at(dense))
    assert bounding_box(traj).theta_max == pytest.approx(theta.max(),
                                                         abs=1e-10)


# -- closed form against a dense search on general problems -------------------

_unit_vectors = (st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                 .filter(lambda v: np.linalg.norm(v) > 0.1)
                 .map(lambda v: np.array(v) / np.linalg.norm(v)))


def _dense_extrema(t, y, f):
    """Min and max of f over [t[0], t[-1]]: every local extremum of the
    samples y = f(t), the two ends included, refined by a bounded scalar
    search over its neighbouring intervals. The search runs on the offset
    from the bracket start, since its tolerance grows with |x|."""
    found = [y.min(), y.max()]
    for sign in (1.0, -1.0):
        s = sign * y
        peak = np.ones(y.size, dtype=bool)
        peak[1:] &= s[1:] >= s[:-1]
        peak[:-1] &= s[:-1] >= s[1:]
        for k in np.nonzero(peak)[0]:
            lo, hi = t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]
            res = minimize_scalar(lambda dx: -sign * f(lo + dx, k),
                                  bounds=(0.0, hi - lo), method="bounded",
                                  options={"xatol": 1e-15})
            found.append(-sign * res.fun)
    return min(found), max(found)


def _dense_box(traj, n=100_001):
    ev = traj.states_at
    t = np.linspace(0.0, traj.t_b, n)
    theta = bloch_angles(ev(t))[0]
    phi, _ = _unwrapped(ev(t), _source_azimuth(traj))

    def theta_at(x, k):
        return float(bloch_angles(ev(x))[0])

    def phi_at(x, k):
        # the sampler's pole convention: no azimuth of its own near a pole
        polar, raw = bloch_angles(ev(x))
        if np.sin(polar) < AZIMUTH_POLE_EPS:
            return phi[k]
        return float(nearest_branch(raw, phi[k]))

    def sin_theta_off_rim(x):
        return np.sin(bloch_angles(ev(x))[0]) - AZIMUTH_POLE_EPS

    phi_lo, phi_hi = _dense_extrema(t, phi, phi_at)
    # the azimuth where the trajectory crosses the rim of a pole cap
    frozen = np.sin(theta) < AZIMUTH_POLE_EPS
    for k in np.nonzero(frozen[:-1] != frozen[1:])[0]:
        rim = brentq(sin_theta_off_rim, t[k], t[k + 1], xtol=1e-15)
        outside = k if frozen[k + 1] else k + 1
        rim_phi = float(nearest_branch(bloch_angles(ev(rim))[1],
                                       phi[outside]))
        phi_lo, phi_hi = min(phi_lo, rim_phi), max(phi_hi, rim_phi)
    return _dense_extrema(t, theta, theta_at) + (phi_lo, phi_hi)


def _dense_branch_times(traj, n=100_001):
    ev = traj.states_at
    t = np.linspace(0.0, traj.t_b, n)
    roots = []
    for comp in range(2):
        re = ev(t)[:, comp].real
        if np.abs(re).max() <= 1e-12:  # Re c_k vanishes identically
            continue
        for k in np.nonzero(np.sign(re[:-1]) * np.sign(re[1:]) < 0)[0]:
            root = brentq(lambda x: ev(x)[comp].real, t[k], t[k + 1],
                          xtol=1e-14)
            if abs(ev(root)[comp]) > 1e-9:  # a pole, not a branch flip
                roots.append(root)
    # the same end and merge rules as branch_times
    merged = []
    for r in sorted(roots):
        if (1e-12 < r < traj.t_b - 1e-12
                and (not merged or r - merged[-1] > 1e-9)):
            merged.append(r)
    return merged


@settings(max_examples=40, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors, alpha=st.floats(0.0, PI),
       omega=st.floats(0.5, 5.0))
# a source or target at a pole, or inside the cap where phi is frozen
@example(a=np.array([0.0, 0.0, 1.0]), b=np.array([1.0, 0.0, 0.0]),
         alpha=0.0, omega=1.0)
@example(a=np.array([0.0, 1.0, 0.0]), b=np.array([0.0, 0.0, 1.0]),
         alpha=0.0, omega=1.0)
@example(a=np.array([0.0, 2.0, -1.0]) / np.sqrt(5.0),
         b=np.array([0.0, 0.0, -1.0]), alpha=1.0, omega=1.0)
@example(a=np.array([0.0, -1.0, 0.0]),
         b=np.array([0.0, 1e-6, 1.0]) / np.hypot(1e-6, 1.0),
         alpha=0.0, omega=1.0)
# Re c1 vanishes at the start: no branch time there
@example(a=np.array([0.0, -1.0, 0.0]), b=np.array([1.0, 0.0, 0.0]),
         alpha=0.0, omega=1.0)
# Re c1 vanishes identically: its rounding noise has no branch times
@example(a=np.array([0.0, -1.0, 0.0]), b=np.array([0.0, 0.0, 1.0]),
         alpha=0.0, omega=1.0)
def test_closed_form_matches_dense_search(a, b, alpha, omega):
    assume(abs(a @ b) <= 0.98)
    problem = EvolutionProblem(a, b, energy=omega)
    try:
        traj = sample_trajectory(problem, SubOptimalParams(alpha))
        box = bounding_box(traj)
        times = branch_times(traj)
    except BlochComplexityError:
        assume(False)
    # the dense reference needs a sampling that resolves the winding
    assume(_unwrapped(traj.states, _source_azimuth(traj))[1] <= PI / 2)
    got = (box.theta_min, box.theta_max, box.phi_min, box.phi_max)
    assert got == pytest.approx(_dense_box(traj), abs=1e-9)
    dense = _dense_branch_times(traj)
    assert len(times) == len(dense)
    assert times == pytest.approx(dense, abs=1e-9)


# -- closed-form azimuth and quadrature against independent routes ----------

@settings(max_examples=40, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors, alpha=st.floats(0.0, PI),
       omega=st.floats(0.5, 5.0))
@example(a=DRAW_165[0].a_hat, b=DRAW_165[0].b_hat,
         alpha=DRAW_165[1].alpha, omega=DRAW_165[0].energy)
# the target on the far ray of the start azimuth's plane
@example(a=np.array([1.0, 0.0, 0.0]), b=np.array([-0.6, 0.0, 0.8]),
         alpha=0.4, omega=1.0)
def test_angles_at_matches_sampled_unwrap(a, b, alpha, omega):
    assume(abs(a @ b) <= 0.98)
    try:
        traj = sample_trajectory(EvolutionProblem(a, b, energy=omega),
                                 SubOptimalParams(alpha))
    except BlochComplexityError:
        assume(False)
    sampled, worst = _unwrapped(traj.states, _source_azimuth(traj))
    assume(worst <= PI / 2)
    theta, phi = traj.angles_at(traj.t)
    assert np.array_equal(theta, bloch_angles(traj.states)[0])
    away = np.sin(theta) > 1e-3
    assert np.abs(phi - sampled)[away].max(initial=0.0) <= 1e-12


def test_angles_at_matches_sampled_unwrap_on_canonical_grid(canonical):
    for k in range(17):
        traj = sample_trajectory(canonical, SubOptimalParams(k * PI / 16))
        theta, phi = traj.angles_at(traj.t)
        sampled, _ = _unwrapped(traj.states, _source_azimuth(traj))
        assert np.array_equal(theta, bloch_angles(traj.states)[0])
        assert np.max(np.abs(phi - sampled)) <= 1e-12


def test_evolve_columns_match_the_unwrapped_samples(canonical):
    # evolve's theta and phi columns, every row, against the polar angles
    # and the unwrapped azimuths of the samples, at the CSV's 12 digits
    for k in range(17):
        traj = sample_trajectory(canonical, SubOptimalParams(k * PI / 16),
                                 n=2049)
        buffer = io.StringIO()
        write_trajectory_csv(traj, buffer)
        rows = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
        phi, _ = _unwrapped(traj.states, _source_azimuth(traj))
        assert [row[1] for row in rows] == [
            f"{x:.12g}" for x in bloch_angles(traj.states)[0]]
        assert [row[2] for row in rows] == [f"{x:.12g}" for x in phi]


_cap_sources = st.builds(
    lambda pole, off, phase: (np.array([off * np.cos(phase),
                                        off * np.sin(phase), pole])
                              / np.hypot(off, 1.0)),
    st.sampled_from([1.0, -1.0]), st.floats(0.0, 2.0 * AZIMUTH_POLE_EPS),
    st.floats(-PI, PI))


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(_unit_vectors, _cap_sources), b=_unit_vectors,
       alpha=st.floats(0.0, PI))
def test_start_is_the_angles_at_t_a(a, b, alpha):
    # the azimuth at t_a is the lift's anchor azimuth; for a source inside a
    # pole cap that is the azimuth at which the trajectory leaves the cap
    assume(abs(a @ b) <= 0.98)
    traj = sample_trajectory(EvolutionProblem(a, b), SubOptimalParams(alpha))
    theta, phi = traj.angles_at(0.0)
    assert traj.start[0] == theta
    assert traj.start[1] == phi


def _oracle_accessed_volume(traj, mode):
    """Accessed volume by scipy's adaptive quadrature in time. The azimuth
    is resolved against the unwrapped samples; inside a pole cap it holds its
    value at the rim crossed last (the first one, for a start inside a
    cap), each rim found by brentq between the samples that bracket it.
    Each segment is split at those rims, at the zeros of cos(theta) -
    cos(theta_A) and of phi - phi_A (brentq again), and next to each polar
    turning point."""
    ev = traj.states_at
    sampled_theta = bloch_angles(traj.states)[0]
    sampled_phi, _ = _unwrapped(traj.states, _source_azimuth(traj))

    def sin_theta_off_rim(t):
        return np.sin(bloch_angles(ev(t))[0]) - AZIMUTH_POLE_EPS

    def unfrozen(t, raw):
        return float(nearest_branch(raw, np.interp(t, traj.t, sampled_phi)))

    capped = np.sin(sampled_theta) < AZIMUTH_POLE_EPS
    rims = [brentq(sin_theta_off_rim, traj.t[k], traj.t[k + 1], xtol=1e-15)
            for k in np.flatnonzero(capped[:-1] != capped[1:])]
    rim_phi = [unfrozen(t, bloch_angles(ev(t))[1]) for t in rims]

    def angles(t):
        theta, raw = bloch_angles(ev(t))
        if np.sin(theta) >= AZIMUTH_POLE_EPS:
            return theta, unfrozen(t, raw)
        if not rims:
            return theta, float(sampled_phi[0])
        return theta, rim_phi[max(np.searchsorted(rims, t, "right") - 1, 0)]

    theta_a, phi_a = angles(0.0)
    kind = _degeneracy_kind(bounding_box(traj))

    def volume(t):
        theta, phi = angles(t)
        return float(_volume_samples(theta_a, phi_a, theta, phi, kind))

    def zeros(f, y):
        return [brentq(f, traj.t[k], traj.t[k + 1], xtol=1e-15)
                for k in np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)]

    turns = np.diff(np.sign(np.diff(sampled_theta)))
    points = np.concatenate([
        rims, traj.t[np.flatnonzero(turns) + 1],
        zeros(lambda t: np.cos(angles(t)[0]) - np.cos(theta_a),
              np.cos(sampled_theta) - np.cos(theta_a)),
        zeros(lambda t: angles(t)[1] - phi_a, sampled_phi - phi_a)])
    cuts = branch_times(traj) if mode == "appendix_piecewise" else []
    bounds = [0.0] + cuts + [traj.t_b]
    total = 0.0
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        inner = points[(points > t0) & (points < t1)]
        value, _ = quad(volume, t0, t1, points=inner if inner.size else None,
                        epsabs=1e-14, epsrel=1e-13, limit=500)
        total += value / (t1 - t0)
    return total


@settings(max_examples=25, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors, alpha=st.floats(0.0, PI),
       omega=st.floats(0.5, 5.0))
@example(a=DRAW_165[0].a_hat, b=DRAW_165[0].b_hat,
         alpha=DRAW_165[1].alpha, omega=DRAW_165[0].energy)
# a source at a pole: the azimuth is the one at which it leaves the cap
@example(a=np.array([0.0, 0.0, 1.0]), b=np.array([0.0, 1.0, 0.0]),
         alpha=0.0, omega=1.0)
def test_accessed_volume_matches_scipy_quadrature(a, b, alpha, omega):
    assume(abs(a @ b) <= 0.98)
    try:
        traj = sample_trajectory(EvolutionProblem(a, b, energy=omega),
                                 SubOptimalParams(alpha))
        volumes = {mode: accessed_volume(traj, mode)
                   for mode in AVERAGING_MODES}
    except BlochComplexityError:
        assume(False)
    # the oracle resolves the azimuth against the unwrapped samples
    assume(_unwrapped(traj.states, _source_azimuth(traj))[1] <= PI / 2)
    for mode, v_bar in volumes.items():
        assert v_bar == pytest.approx(_oracle_accessed_volume(traj, mode),
                                      abs=1e-10)


# -- the contract at every energy --------------------------------------------

@settings(max_examples=200, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors, alpha=st.floats(0.0, PI),
       log_energy=st.floats(-300.0, 300.0))
# cos(theta_AB / 2) rounds to 1: the family's arrival time and length must
# not cancel to 0/0
@example(a=np.array([1.0, 0.0, 0.0]), b=np.array([1.0, 1e-10, 0.0]),
         alpha=0.0, log_energy=0.0)
# Re c1 vanishes identically: its rounding noise must not cut a segment
@example(a=np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0),
         b=np.array([0.0, 0.0, 1.0]), alpha=0.0, log_energy=1.75)
def test_contract_holds_and_is_energy_free(a, b, alpha, log_energy):
    # every valid input returns a report inside the contract or raises a
    # typed error, and the energy only scales time: the report at E matches
    # the one at E = 1 (or both raise the same error). The match is to 1e-9,
    # relative above 1: kappa2 ~ 1/(1 - (n.a)^2) and L_C ~ 1/sqrt(1 - C)
    # grow without bound and carry their rounding with them.
    params = SubOptimalParams(alpha)

    def run(energy, mode):
        try:
            return analyze(EvolutionProblem(a, b, energy=energy), params,
                           AnalysisConfig(averaging_mode=mode))
        except BlochComplexityError as err:
            return type(err)

    for mode in AVERAGING_MODES:
        rep, unit = run(10.0 ** log_energy, mode), run(1.0, mode)
        if isinstance(rep, type):
            assert rep is unit
            continue
        assert 0.0 <= rep.complexity < 1.0
        assert rep.volume.v_bar <= rep.volume.v_max
        assert rep.length_scale >= rep.s
        assert not isinstance(unit, type), unit
        for name in ("complexity", "length_scale", "eta_se", "kappa2"):
            assert getattr(rep, name) == pytest.approx(getattr(unit, name),
                                                       rel=1e-9, abs=1e-9)
