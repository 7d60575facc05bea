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
from blochcomplexity.complexity import (AVERAGING_MODES, _branch_angles,
                                        _degeneracy_kind, _volume_samples)
from blochcomplexity.qubit import POLE_EPS
from blochcomplexity.trajectory import nearest_branch
from oracles import path_length_numeric
from reference_values import (ARRIVAL_TIME_PI16, BRANCH_TIME_PI16,
                              SEGMENT_AVERAGES_PI16_PRECISE, THETA_MAX_PI16,
                              UNIFORM_VBAR, VBAR_PI16, VMAX_PI16, VOLUME_TABLE)

PI = np.pi

# the near-pole references evaluate the path in numpy's longdouble, which
# has no more precision than a double on some platforms (MSVC, Apple
# silicon); there they cannot resolve the azimuth next to a pole
needs_extended_precision = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="numpy's longdouble is a double on this platform")

# draw 165 of the benchmark's general pool: a pass 0.019 rad from the north
# pole, where the azimuth turns fast and panels must be bisected
DRAW_165 = (EvolutionProblem(
    np.array([-0.8137139379033355, 0.39103157742910793,
              -0.43007433394141326]),
    np.array([-0.03813177170735362, -0.18659953385244862,
              0.981695768531426]),
    energy=1.7252040145262153), SubOptimalParams(2.972744480645931))


def _unwrapped(traj, t):
    """Reference azimuths at the sorted times ``t`` from 0 to t_b, unwrapped
    sample to sample from the literal azimuths arg(c1 c0*). The path runs
    from the source to the target, so the first and last samples take
    their angles. A sample at an exact pole (sin(theta) < POLE_EPS) takes a
    one-sided limit: the azimuth of the tangent r', found by a central
    difference of the Bloch vector, along which the path departs, or at the
    last sample the azimuth of -r', from which it arrives. np.unwrap then
    removes the 2*pi jumps, and the result is on the 2*pi branch of the
    source's azimuth at the first sample. Returns the azimuths and the
    largest step left between neighbours; above pi/2 the sampling cannot
    tell the winding direction."""
    theta, raw = bloch_angles(traj.states_at(t))
    ends = bloch_angles(np.array([traj.source, traj.problem.target_state]))
    theta[[0, -1]], raw[[0, -1]] = ends
    for k in np.flatnonzero(np.sin(theta) < POLE_EPS):
        raw[k] = _tangent_azimuth(traj, t[k], arriving=k == t.size - 1)
    phi = np.unwrap(raw)
    phi += 2.0 * PI * np.round((_source_azimuth(traj) - phi[0]) / (2.0 * PI))
    return phi, float(np.max(np.abs(np.diff(phi)), initial=0.0))


def _reference_times(traj, t):
    """The sorted times ``t`` from 0 to t_b, with points added at every
    halving of the distance to either end, down to 6e-14 t_b: next to an end
    near a pole the azimuth swings within about sin(theta) of rotation,
    where a uniform grid cannot follow its winding (closer to the end than
    the exact-pole threshold, theta no longer changes in double precision
    near the south pole)."""
    near = 0.5 * traj.t_b * 0.5 ** np.arange(44.0)
    return np.unique(np.concatenate([t, near, traj.t_b - near]))


def _extended_angles(traj, x, from_target=False):
    """Polar angle and arg(c1 c0*) of the state at rotation angle ``x``, or
    with ``from_target`` at x_b + x, built as `states_along` builds it and
    evaluated in extended precision: from psi0 over the first half of the
    path and from the target's own state over the second (the same state
    in exact arithmetic, up to a phase), at a rotation angle measured from
    that end. Near a pole, where |c1| or |c0| is small, the double precision
    amplitudes' rounding moves the azimuth by 1e-16/sin(theta)."""
    n = traj.field.direction.astype(np.longdouble)
    turn = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]],
                    dtype=np.clongdouble)
    x = np.longdouble(x)
    psi, ang = traj.source, x / 2.0
    if from_target:
        psi = traj.problem.target_state
    elif x > traj.x_b / 2.0:
        psi, ang = traj.problem.target_state, (x - traj.x_b) / 2.0
    psi = psi.astype(np.clongdouble)
    c0, c1 = np.cos(ang) * psi - 1j * np.sin(ang) * (turn @ psi)
    z = c1 * np.conj(c0)
    return (float(2.0 * np.arctan2(abs(c1), abs(c0))),
            float(np.arctan2(z.imag, z.real)))


def _bloch_vector(states):
    c0, c1 = states[..., 0], states[..., 1]
    return np.stack([2.0 * (np.conj(c0) * c1).real,
                     2.0 * (np.conj(c0) * c1).imag,
                     np.abs(c0) ** 2 - np.abs(c1) ** 2], axis=-1)


def _tangent_azimuth(traj, t, arriving):
    """Azimuth of the direction the Bloch vector leaves r(t) along, or of
    the one it arrives from: a central difference over 1e-5 of rotation."""
    h = 1e-5 / (2.0 * traj.problem.omega)
    step = np.diff(_bloch_vector(traj.states_at([t - h, t + h])), axis=0)[0]
    if arriving:
        step = -step
    return float(np.arctan2(step[1], step[0]))


def _source_azimuth(traj):
    """The source's azimuth; at a pole its departure azimuth, on the 2*pi
    branch of the lift's (the branch of phi_A is a convention)."""
    theta, raw = bloch_angles(traj.source)
    if np.sin(theta) < POLE_EPS:
        return float(nearest_branch(
            _tangent_azimuth(traj, 0.0, arriving=False), traj.start[1]))
    return float(raw)


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
    # C = 1 - 1e-17 rounds to 1, where L_C = s/sqrt(1 - C) is undefined
    with pytest.raises(NonPositiveVolume, match="rounds to 1"):
        complexity(1e-17, 1.0)


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


def _assert_invariant_under_rotation_about_z(pole, alpha, pole_is_source):
    # an end at a pole has no azimuth of its own: turning the other end about
    # z turns the whole evolution with it and must change no result
    config = AnalysisConfig(averaging_mode="uniform")
    reports = []
    for r in np.linspace(0.0, 2.0 * PI, 7, endpoint=False):
        other = np.array([np.cos(r), np.sin(r), 0.3])
        ends = (np.array([0.0, 0.0, pole]), other / np.linalg.norm(other))
        problem = EvolutionProblem(*(ends if pole_is_source else ends[::-1]))
        reports.append(analyze(problem, SubOptimalParams(alpha), config))
    first = reports[0]
    for rep in reports[1:]:
        assert rep.complexity == pytest.approx(first.complexity, abs=1e-9)
        assert rep.volume.v_bar == pytest.approx(first.volume.v_bar, abs=1e-9)
        assert rep.volume.v_max == pytest.approx(first.volume.v_max, abs=1e-9)
        assert rep.degeneracy_label == first.degeneracy_label


@pytest.mark.parametrize("pole", (1.0, -1.0))
@pytest.mark.parametrize("alpha", (PI / 2, PI / 4, 0.3, 2.5))
def test_pole_source_invariant_under_rotation_about_z(pole, alpha):
    _assert_invariant_under_rotation_about_z(pole, alpha, pole_is_source=True)


@pytest.mark.parametrize("pole", (1.0, -1.0))
@pytest.mark.parametrize("alpha", (PI / 2, PI / 4, 0.3, 2.5))
def test_pole_target_invariant_under_rotation_about_z(pole, alpha):
    # the azimuth at the target is the one the path arrives from
    _assert_invariant_under_rotation_about_z(pole, alpha, pole_is_source=False)


@pytest.mark.parametrize("pole", (1.0, -1.0))
@pytest.mark.parametrize("b", ([1.0, 0.0, 0.0], [0.6, -0.48, 0.64],
                               [-0.36, 0.48, -0.8]), ids=("x", "up", "down"))
@pytest.mark.parametrize("alpha", (PI / 2, PI / 4, 0.3, 2.5))
def test_pole_source_is_the_limit_along_its_departure_azimuth(pole, b, alpha):
    # sources eps from the pole, on the ray of the azimuth that the pole
    # source departs along, approach its results linearly in eps
    b, params = np.array(b), SubOptimalParams(alpha)
    exact = EvolutionProblem(np.array([0.0, 0.0, pole]), b)
    traj = sample_trajectory(exact, params)
    departure = traj.start[1]
    for mode in AVERAGING_MODES:
        config = AnalysisConfig(averaging_mode=mode)
        try:
            c_pole = analyze(exact, params, config).complexity
        except AveragingDomainError:
            continue
        for eps in (1e-6, 1e-8):
            a = np.array([eps * np.cos(departure), eps * np.sin(departure),
                          pole * np.sqrt(1.0 - eps * eps)])
            rep = analyze(EvolutionProblem(a, b), params, config)
            assert abs(rep.complexity - c_pole) <= 10.0 * eps


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
    t = _reference_times(traj, np.linspace(0.0, traj.t_b, n))
    theta = bloch_angles(ev(t))[0]
    phi, _ = _unwrapped(traj, t)
    limits, swings = _pole_approaches(traj, t, theta, phi)
    ends = bloch_angles(np.array([traj.source, traj.problem.target_state]))[0]
    # a path through an exact pole misses it by up to POLE_EPS, which turns
    # its azimuth by POLE_EPS/d at a distance d from the pole; the azimuth
    # runs monotonically into the pole, so the search leaves out the stretch
    # within sin(theta) < 1e-3 of it, where the limits are the extremes
    near = 1e-3 if limits or np.any(np.sin(ends) < POLE_EPS) else POLE_EPS
    keep = np.sin(theta) >= near
    keep[[0, -1]] = True

    def theta_at(x, k):
        return float(bloch_angles(ev(x))[0])

    def phi_at(x, k):
        # the literal azimuth, in extended precision
        if np.sin(bloch_angles(ev(x))[0]) < near:
            return phi[keep][k]
        x = 2.0 * traj.problem.omega * x
        return float(nearest_branch(_extended_angles(traj, x)[1],
                                    phi[keep][k]))

    phi_range = [*_dense_extrema(t[keep], phi[keep], phi_at), *limits,
                 *swings]
    return _dense_extrema(t, theta, theta_at) + (min(phi_range),
                                                 max(phi_range))


def _pole_approaches(traj, t, theta, phi):
    """Azimuths where the path comes near a pole between the samples ``t``,
    at each local minimum of sin(theta) over the samples, refined by a
    bounded search over its neighbouring intervals. Below POLE_EPS the pole
    is exact: the azimuths the path arrives from and departs along, on the
    branches of the samples on either side (an end sample at a pole is the
    source's or target's own limit). Below 1e-3, at sin(theta) = delta, the
    azimuth swings by about pi and is stationary about sqrt(delta) from
    there, too close for the samples: the extremes of the literal azimuth
    on a grid of offsets inside the path, log-spaced down to sqrt(delta)/10
    (closer, the rounding of the computed path, 1e-16/offset, would show),
    each refined by a bounded search. Returns the exact-pole limits and the
    swing extremes."""
    s = np.sin(theta)
    peak = np.ones(s.size, dtype=bool)
    peak[1:] &= s[1:] <= s[:-1]
    peak[:-1] &= s[:-1] <= s[1:]
    # an end at an exact pole owns the samples next to it that stay within
    # POLE_EPS of the pole: the path is still at that pole there
    away = np.flatnonzero(s >= POLE_EPS)
    peak[:away[0]] = peak[away[-1] + 1:] = False
    limits, swings = [], []
    for k in np.flatnonzero(peak):
        lo, hi = max(k - 1, 0), min(k + 1, s.size - 1)
        res = minimize_scalar(
            lambda dt: np.sin(bloch_angles(traj.states_at(t[lo] + dt))[0]),
            bounds=(0.0, t[hi] - t[lo]), method="bounded",
            options={"xatol": 1e-15})
        t_p = t[lo] + res.x
        if res.fun < POLE_EPS:
            limits += [
                float(nearest_branch(_tangent_azimuth(traj, t_p, True),
                                     phi[lo])),
                float(nearest_branch(_tangent_azimuth(traj, t_p, False),
                                     phi[hi]))]
        elif res.fun < 1e-3:
            reach = np.geomspace(
                0.1 * np.sqrt(res.fun) / (2.0 * traj.problem.omega),
                t[hi] - t[lo], 400)
            for side, ref in ((-1.0, phi[lo]), (1.0, phi[hi])):
                ts = t_p + side * reach
                ts = ts[(ts > 0.0) & (ts < traj.t_b)]
                if ts.size < 3:
                    continue

                def swing(t, ref=ref):
                    x = 2.0 * traj.problem.omega * t
                    return float(nearest_branch(_extended_angles(traj, x)[1],
                                                ref))

                y = np.array([swing(x) for x in ts])
                for j in (np.argmin(y), np.argmax(y)):
                    a, b = sorted(ts[[max(j - 1, 0), min(j + 1, y.size - 1)]])
                    sign = 1.0 if j == np.argmin(y) else -1.0
                    best = minimize_scalar(lambda x: sign * swing(x),
                                           bounds=(a, b), method="bounded",
                                           options={"xatol": 1e-15})
                    swings += [y[j], sign * best.fun]
    return limits, swings


def _dense_branch_times(traj, n=100_001):
    # the branch times are the zeros of Re c_k of the state evolved from the
    # source; where Re c_k vanishes at the target (within rounding) the
    # states built from the target's end could put that zero 1e-10 off it
    def ev(t):
        ang = traj.problem.omega * np.asarray(t, dtype=float)
        return (np.cos(ang)[..., None] * traj.source
                - 1j * np.sin(ang)[..., None] * traj.turned)

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
    # the same end and merge rules as branch_times, on the rotation angle wt
    w = traj.problem.omega
    merged = []
    for r in sorted(roots):
        if (1e-12 < w * r < w * traj.t_b - 1e-12
                and (not merged or w * (r - merged[-1]) > 1e-9)):
            merged.append(r)
    return merged


@needs_extended_precision
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
# source and target on one meridian plane, the path over the north pole:
# the azimuth jumps by pi there and the box holds both one-sided limits
@example(a=np.array([0.0, 0.6, 0.8]), b=np.array([0.0, -0.6, 0.8]),
         alpha=PI / 2, omega=1.0)
@example(a=np.array([0.0, 0.8, 0.6]), b=np.array([0.0, -0.28, 0.96]),
         alpha=PI / 2, omega=1.0)
# a subnormal component: the box's quadratic for the azimuth's stationary
# points must not overflow
@example(a=np.array([0.0, 1.0, 2.22507386e-311]), b=np.array([1.0, 0.0, 0.0]),
         alpha=0.0, omega=1.0)
# a source 1e-13 from the pole, within the exact-pole threshold, whose
# path passes still closer to the pole
@example(a=np.array([0.0, 1e-13, -1.0]), b=np.array([0.0, 1.0, 0.0]),
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
    assume(_unwrapped(traj, _reference_times(traj, traj.t))[1] <= PI / 2)
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
    sampled, worst = _unwrapped(traj, traj.t)
    assume(worst <= PI / 2)
    theta, phi = traj.angles_at(traj.t)
    assert np.array_equal(theta, bloch_angles(traj.states)[0])
    away = np.sin(theta) > 1e-3
    assert np.abs(phi - sampled)[away].max(initial=0.0) <= 1e-12


def test_angles_at_matches_sampled_unwrap_on_canonical_grid(canonical):
    for k in range(17):
        traj = sample_trajectory(canonical, SubOptimalParams(k * PI / 16))
        theta, phi = traj.angles_at(traj.t)
        sampled, _ = _unwrapped(traj, traj.t)
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
        phi, _ = _unwrapped(traj, traj.t)
        assert [row[1] for row in rows] == [
            f"{x:.12g}" for x in bloch_angles(traj.states)[0]]
        assert [row[2] for row in rows] == [f"{x:.12g}" for x in phi]


def _near_pole(pole, log_sin, phase):
    off = 10.0 ** log_sin
    return np.array([off * np.cos(phase), off * np.sin(phase),
                     pole * np.sqrt(1.0 - off * off)])


_poles = st.sampled_from([1.0, -1.0])
_exact_poles = _poles.map(lambda pole: np.array([0.0, 0.0, pole]))


def _near_pole_vectors(lo):
    """Unit vectors with sin(theta) log-uniform on [10**lo, 1e-3]."""
    return st.builds(_near_pole, _poles, st.floats(lo, -3.0),
                     st.floats(-PI, PI))


_near_or_at_poles = st.one_of(_near_pole_vectors(-14.0), _exact_poles)


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(_unit_vectors, _near_or_at_poles), b=_unit_vectors,
       alpha=st.floats(0.0, PI))
def test_start_is_the_angles_at_t_a(a, b, alpha):
    # the azimuth at t_a is the lift's anchor azimuth; for a source at an
    # exact pole that is the azimuth of the direction it departs along
    assume(abs(a @ b) <= 0.98)
    traj = sample_trajectory(EvolutionProblem(a, b), SubOptimalParams(alpha))
    theta, phi = traj.angles_at(0.0)
    assert traj.start[0] == theta
    assert traj.start[1] == phi


def _oracle_accessed_volume(traj, mode):
    """Accessed volume by scipy's adaptive quadrature in the rotation angle
    x = 2wt, over the library's segments, of the literal definition: the
    angles in extended precision, the azimuth resolved against the unwrapped
    samples, and at an exact pole the one-sided limit that the samples carry
    there. Each segment is split at the zeros of cos(theta) - cos(theta_A)
    and of phi - phi_A (brentq), next to each polar turning point and next
    to an end near a pole, and at x_b/2: the second half is integrated in
    x - x_b, back from the target, from whose state its states are built."""
    ts = _reference_times(traj, traj.t)
    xs = 2.0 * traj.problem.omega * ts
    sampled_theta = bloch_angles(traj.states_at(ts))[0]
    sampled_theta[[0, -1]] = bloch_angles(
        np.array([traj.source, traj.problem.target_state]))[0]
    sampled_phi, _ = _unwrapped(traj, ts)
    # the source's and the target's own angles
    ends = {(0.0, False): (sampled_theta[0], sampled_phi[0]),
            (traj.x_b, False): (sampled_theta[-1], sampled_phi[-1]),
            (0.0, True): (sampled_theta[-1], sampled_phi[-1])}

    def angles(x, from_target=False):
        if (x, from_target) in ends:
            return ends[x, from_target]
        theta, raw = _extended_angles(traj, x, from_target)
        at = traj.x_b + x if from_target else x
        ref = float(np.interp(at, xs, sampled_phi))
        if np.sin(theta) < POLE_EPS:
            return theta, ref
        return theta, float(nearest_branch(raw, ref))

    theta_a, phi_a = angles(0.0)
    kind = _degeneracy_kind(bounding_box(traj))

    def volume(x, from_target):
        theta, phi = angles(x, from_target)
        return float(_volume_samples(theta_a, phi_a, theta, phi, kind))

    def zeros(f, y):
        # a zero of f in each interval where the samples y change sign; where
        # f itself does not (the zero is within rounding of a sample), the
        # sample nearer to it
        found = []
        for k in np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0):
            ends = f(xs[k]), f(xs[k + 1])
            found.append(brentq(f, xs[k], xs[k + 1], xtol=1e-15)
                         if ends[0] * ends[1] < 0
                         else xs[k + np.argmin(np.abs(ends))])
        return found

    turns = np.diff(np.sign(np.diff(sampled_theta)))
    # an end sin(theta) from a pole has its azimuth turn within about that
    # much rotation of it, and turn back about sqrt(sin(theta)) from it:
    # points at every decade from there to the other end
    reach = np.sin(sampled_theta[[0, -1]])
    points = np.concatenate([
        xs[np.flatnonzero(turns) + 1],
        (np.outer(reach, 10.0 ** np.arange(17)) * [[1.0], [-1.0]]
         + [[0.0], [traj.x_b]]).ravel(),
        zeros(lambda x: np.cos(angles(x)[0]) - np.cos(theta_a),
              np.cos(sampled_theta) - np.cos(theta_a)),
        zeros(lambda x: angles(x)[1] - phi_a, sampled_phi - phi_a)])
    cuts = _branch_angles(traj) if mode == "appendix_piecewise" else []
    bounds = [0.0] + cuts + [traj.x_b]
    half = traj.x_b / 2.0
    total = 0.0
    for x0, x1 in zip(bounds[:-1], bounds[1:]):
        value = 0.0
        for lo, hi, shift in ((x0, min(x1, half), 0.0),
                              (max(x0, half), x1, traj.x_b)):
            if lo >= hi:
                continue
            inner = points[(points > lo) & (points < hi)] - shift
            # the requested error is 1e-14 on the segment's average (or on
            # the integral, for a segment longer than 1)
            part, _ = quad(volume, lo - shift, hi - shift, args=(shift > 0.0,),
                           points=inner if inner.size else None,
                           epsabs=1e-14 * min(x1 - x0, 1.0), epsrel=1e-13,
                           limit=500)
            value += part
        total += value / (x1 - x0)
    return total


@needs_extended_precision
@settings(max_examples=25, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors, alpha=st.floats(0.0, PI),
       omega=st.floats(0.5, 5.0))
@example(a=DRAW_165[0].a_hat, b=DRAW_165[0].b_hat,
         alpha=DRAW_165[1].alpha, omega=DRAW_165[0].energy)
# a source at a pole: phi_A is the azimuth of its direction of departure
@example(a=np.array([0.0, 0.0, 1.0]), b=np.array([0.0, 1.0, 0.0]),
         alpha=0.0, omega=1.0)
# piecewise segments of 1e-9 and 1e-10 rad that end at a target at or next
# to a pole: their averages need the rotation angle measured from x_b
@example(a=np.array([-1.0, 1e-9, 0.0]), b=np.array([0.0, 0.0, -1.0]),
         alpha=0.0, omega=1.0)
@example(a=np.array([0.06237829, -0.99805258, 0.0])
         / np.hypot(0.06237829, 0.99805258),
         b=np.array([1e-10, 0.0, 1.0]), alpha=0.0, omega=1.0)
@example(a=np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
         b=np.array([0.0, 1e-9, 1.0]), alpha=0.0, omega=1.5)
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
    assume(_unwrapped(traj, _reference_times(traj, traj.t))[1] <= PI / 2)
    for mode, v_bar in volumes.items():
        assert v_bar == pytest.approx(_oracle_accessed_volume(traj, mode),
                                      abs=1e-10)


@needs_extended_precision
@settings(max_examples=20, deadline=None)
@given(a=_near_pole_vectors(-12.0), b=_unit_vectors, alpha=st.floats(0.0, PI))
# the azimuth is stationary 3e-9 rad from the source, where the box's
# closed form must keep the root's relative precision
@example(a=_near_pole(1.0, -9.0, 1e-8), b=np.array([0.0, 1.0, 0.0]),
         alpha=0.0)
def test_near_pole_source_matches_the_literal_definition(a, b, alpha):
    # no cap near the pole: phi_A is the source's own azimuth and the lift
    # holds nothing, so C is the literal definition's, with the box from
    # the dense search and the accessed volume from scipy's quadrature
    assume(abs(a @ b) <= 0.98)
    problem, params = EvolutionProblem(a, b), SubOptimalParams(alpha)
    traj = sample_trajectory(problem, params)
    # with an exact pole on the path the azimuth there is a one-sided limit,
    # which the departure, rotation and passage tests cover
    assume(not traj.azimuth.limits)
    # the references need a sampling that resolves the winding: a path that
    # passes a pole 1e-11 away turns its azimuth by pi between samples
    assume(_unwrapped(traj, _reference_times(traj, traj.t))[1] <= PI / 2)
    theta_lo, theta_hi, phi_lo, phi_hi = _dense_box(traj)
    kind = _degeneracy_kind(bounding_box(traj))
    v_max = float(_volume_samples(theta_lo, phi_lo, theta_hi, phi_hi, kind))
    for mode in AVERAGING_MODES:
        ratio = _oracle_accessed_volume(traj, mode) / v_max
        try:
            rep = analyze(problem, params, AnalysisConfig(averaging_mode=mode))
        except AveragingDomainError:
            assert ratio > 1.0
            continue
        assert rep.complexity == pytest.approx(1.0 - ratio, abs=1e-9)


# -- the contract at every energy --------------------------------------------

@settings(max_examples=200, deadline=None)
@given(a=st.one_of(_unit_vectors, _near_or_at_poles),
       b=st.one_of(_unit_vectors, _near_or_at_poles), alpha=st.floats(0.0, PI),
       log_energy=st.floats(-300.0, 300.0))
# cos(theta_AB / 2) rounds to 1: the family's arrival time and length must
# not cancel to 0/0
@example(a=np.array([1.0, 0.0, 0.0]), b=np.array([1.0, 1e-10, 0.0]),
         alpha=0.0, log_energy=0.0)
# Re c1 vanishes identically: its rounding noise must not cut a segment
@example(a=np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0),
         b=np.array([0.0, 0.0, 1.0]), alpha=0.0, log_energy=1.75)
# sources near and at a pole: the literal azimuth, or the departure limit;
# a path through the pole just after a source 1e-12 from it
@example(a=_near_pole(1.0, -9.0, 0.3), b=np.array([0.6, 0.0, -0.8]),
         alpha=1.1, log_energy=3.0)
@example(a=_near_pole(-1.0, -5.0, 2.0), b=np.array([0.0, 1.0, 0.0]),
         alpha=2.6, log_energy=-40.0)
@example(a=np.array([0.0, 0.0, -1.0]), b=np.array([0.48, 0.64, 0.6]),
         alpha=0.7, log_energy=100.0)
@example(a=np.array([0.0, 1e-12, 1.0]), b=np.array([1.0, 0.0, 0.0]),
         alpha=0.0, log_energy=1.0)
# a pole source whose near-meridian path ends 2e-8 from the other pole:
# C = 1 - 8e-8, so L_C carries any energy dependence of the path 1e8-fold
@example(a=np.array([0.0, 0.0, -1.0]), b=np.array([0.0, 2e-8, 1.0]),
         alpha=0.0, log_energy=2.0)
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
