import cmath
import copy
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from blochcomplexity import (AnalysisConfig, AngularBox, AveragingDomainError,
                             BlochComplexityError, EvolutionProblem,
                             EvolutionReport, NonPositiveVolume,
                             QuadratureNotConverged, SubOptimalParams,
                             VolumeReport, accessed_volume, analyze,
                             analyze_alphas, bloch_angles, bounding_box,
                             branch_times,
                             complexity_from_volumes, complexity_length_scale,
                             curvature_coefficient, equatorial_problem,
                             path_length, sample_trajectory,
                             speed_efficiency, suboptimal_field)
from blochcomplexity import hamiltonians, qubit, trajectory
from blochcomplexity.cli import main
from blochcomplexity.complexity import (AVERAGING_MODES, _branch_angles,
                                        _degeneracy_kind, _panel_edges,
                                        _volume_samples)
from blochcomplexity.hamiltonians import FieldVector
from blochcomplexity.qubit import _require_unit, state_from_bloch
from blochcomplexity.trajectory import (POLE_EPS, Circle, Trajectory,
                                        nearest_branch)
from oracles import path_length_numeric, sample
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
# pole, where the azimuth turns fast
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
    with ``from_target`` at x_b + x, built as `evaluate_states` builds it and
    evaluated in extended precision: from psi0 over the first half of the
    path and from the target's own state over the second (the same state
    in exact arithmetic, up to a phase), at a rotation angle measured from
    that end. Near a pole, where |c1| or |c0| is small, the double precision
    amplitudes' rounding moves the azimuth by 1e-16/sin(theta)."""
    n = suboptimal_field(traj.problem, traj.params).direction.astype(
        np.longdouble)
    turn = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]],
                    dtype=np.clongdouble)
    x = np.longdouble(x)
    psi, ang = traj.source, x / 2.0
    if from_target:
        psi = traj.problem.target_state
    elif x > traj.x_b / 2.0:
        psi, ang = traj.problem.target_state, (x - traj.x_b) / 2.0
    psi = np.asarray(psi, dtype=np.clongdouble)
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
    h = 1e-5 / (2.0 * traj.problem.energy)
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
    _, _, theta, phi = sample(traj)
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
    assert complexity_from_volumes(0.5, 0.5) == 0.0
    assert complexity_from_volumes(PI / 8, PI / 4) == pytest.approx(
        0.5, abs=1e-15)
    assert complexity_from_volumes(0.1536, 0.2243) == pytest.approx(
        0.3152, abs=1e-3)


def test_complexity_rejects_bad_volumes():
    with pytest.raises(NonPositiveVolume):
        complexity_from_volumes(0.0, 1.0)
    with pytest.raises(NonPositiveVolume):
        complexity_from_volumes(1.0, 0.0)
    with pytest.raises(AveragingDomainError):
        complexity_from_volumes(2.0, 1.0)
    # C = 1 - 1e-17 rounds to 1, where L_C = s/sqrt(1 - C) is undefined
    with pytest.raises(NonPositiveVolume, match="rounds to 1"):
        complexity_from_volumes(1e-17, 1.0)


def test_the_complexity_module_keeps_its_name():
    # the package exports no function under the name of its module
    import blochcomplexity.complexity as home
    assert home is sys.modules["blochcomplexity.complexity"]


# short paths next to a pole (ROADMAP item 11): the closed-form box misses
# angles that the quadrature evaluates, so V at a node exceeds V_max and
# uniform mode, a time average of V <= V_max, raises; the fix of the box
# makes these pass, and must remove the marker
@pytest.mark.xfail(strict=True, raises=AveragingDomainError,
                   reason="the box misses angles next to a pole")
@pytest.mark.parametrize("a, b, alpha", [
    ((-2.0455411379630578e-14, -3.447287304304718e-14, 1.0),
     (6.464294903835765e-10, -1.9830672796525886e-10, 1.0), PI / 2),
    ((-2.008321944074569e-08, 6.391275672092676e-09, 0.9999999999999998),
     (-2.0982143315718132e-08, 6.318873732622572e-09, 0.9999999999999998),
     PI),
    ((-5.389369383639388e-07, -3.8447023207795e-06, 0.999999999992464),
     (7.570314139288953e-14, -1.745132481615192e-13, 1.0),
     1.5707963267949783)])
def test_uniform_mode_holds_short_paths_next_to_a_pole(a, b, alpha):
    rep = analyze(EvolutionProblem(np.array(a), np.array(b)),
                  SubOptimalParams(alpha),
                  AnalysisConfig(averaging_mode="uniform"))
    assert rep.volume.v_bar <= rep.volume.v_max


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_a_box_below_the_threshold_names_its_extents(mode):
    # the path moves by 5e-10 rad, under EPS_DEGENERATE on both axes: the
    # error gives both extents and the threshold, not "does not move"
    with pytest.raises(NonPositiveVolume,
                       match=r"box extents \S+ in theta and \S+ in phi are "
                             r"both below EPS_DEGENERATE = 1e-09"):
        analyze(equatorial_problem(5e-10), SubOptimalParams(0.7),
                AnalysisConfig(averaging_mode=mode))


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
        _, _, theta, phi = sample(traj)
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


def _geometry(rep):
    """Every report field that no energy scale enters."""
    return (rep.complexity, rep.s, rep.eta_ge, rep.eta_se, rep.kappa2,
            rep.length_scale, rep.volume.v_bar, rep.volume.v_max,
            rep.volume.box, rep.degeneracy_label, len(rep.volume.segments))


def test_omega_invariance_of_analyze(canonical):
    params = SubOptimalParams(PI / 16)
    rep_1 = analyze(canonical, params)
    for omega in (0.5, 0.7, 2.0, 2.5, 3.7):
        rep_w = analyze(equatorial_problem(energy=omega), params)
        assert _geometry(rep_w) == _geometry(rep_1)
        assert rep_w.t_ab * omega == pytest.approx(rep_1.t_ab, abs=1e-10)


@pytest.mark.parametrize("mode", AVERAGING_MODES)
@pytest.mark.parametrize("energy", [1e-300, 1e300])
def test_analyze_at_the_ends_of_the_energy_range(canonical, energy, mode):
    # the rotation angles are energy-free, so nothing overflows at either end
    # of the range: the geometry is the one at E = 1 and only t_ab scales
    params = SubOptimalParams(PI / 16)
    config = AnalysisConfig(averaging_mode=mode)
    rep_1 = analyze(canonical, params, config)
    rep_e = analyze(equatorial_problem(energy=energy), params, config)
    assert _geometry(rep_e) == _geometry(rep_1)
    assert np.isfinite(rep_e.t_ab)
    assert rep_e.t_ab * energy == pytest.approx(rep_1.t_ab, rel=1e-15)


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
    # at a tolerance of 0 some panel of draw 165 needs bisecting; allowed
    # none, the quadrature refuses the run and says which panel failed
    module = sys.modules[analyze.__module__]
    monkeypatch.setattr(module, "PANEL_TOL", 0.0)
    monkeypatch.setattr(module, "MAX_BISECTIONS", 0)
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


@pytest.mark.parametrize("alpha", (0.3, PI / 4, 1.0, 2.5))
def test_south_pole_source_takes_the_phase_of_its_departure_azimuth(alpha):
    # on the south pole c0 vanishes and cannot fix the global phase that
    # piecewise mode's branch roots follow, so a source there takes the
    # phase of its departure azimuth, not the raw azimuth of its zero or
    # subnormal components (with that, (-5e-324, 1e-323, -1) gave C = 0.1415
    # in two segments at pi/4, and (0, 0, -1) 0.7676 in one): every source
    # inside the pole threshold gives one C
    w = np.array([0.6, -0.48, 0.64])
    for mode in AVERAGING_MODES:
        config = AnalysisConfig(averaging_mode=mode)

        def report(a):
            return analyze(EvolutionProblem(np.array(a), w),
                           SubOptimalParams(alpha), config)

        exact = report([0.0, 0.0, -1.0])
        for a in ([-5e-324, 1e-323, -1.0], [-0.0, -0.0, -1.0],
                  [1e-13, 0.0, -1.0], [0.0, 1e-13, -1.0]):
            rep = report(a)
            assert len(rep.volume.segments) == len(exact.volume.segments)
            assert rep.complexity == pytest.approx(exact.complexity,
                                                   abs=1e-12)


def _count_calls(monkeypatch, home, fn_name):
    """Replace ``home.fn_name`` by a wrapper that logs each call: in the
    class ``home`` itself, or in every package module that holds it;
    returns the log."""
    original = getattr(home, fn_name)
    log = []

    def counted(*args):
        log.append(args)
        return original(*args)

    if isinstance(home, type):
        monkeypatch.setattr(home, fn_name, counted)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "blochcomplexity"
                and getattr(module, fn_name, None) is original):
            monkeypatch.setattr(module, fn_name, counted)
    return log


_POLES_AND_EQUATOR = pytest.mark.parametrize(
    "a", ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]),
    ids=("south", "north", "equator"))


@_POLES_AND_EQUATOR
def test_sample_trajectory_builds_each_part_once(monkeypatch, a):
    # a source on the south pole is re-phased before (n.sigma) psi0 is
    # built, not built twice: like every other source it takes (n.sigma) of
    # psi0 and of the arrival state, and one field direction per trajectory;
    # the source's bloch_angles are the problem's, taken once at its
    # construction, and reading the kernel's constants and the start angles
    # computes nothing
    turned = _count_calls(monkeypatch, qubit, "pauli_dot_times")
    direction = _count_calls(monkeypatch, hamiltonians, "field_direction")
    angles = _count_calls(monkeypatch, qubit, "bloch_angles")
    problem = EvolutionProblem(np.array(a), np.array([0.6, -0.48, 0.64]))
    assert (len(turned), len(direction), len(angles)) == (0, 0, 1)
    for rows, alpha in enumerate((PI / 4, PI / 3), start=1):
        traj = sample_trajectory(problem, SubOptimalParams(alpha))
        assert traj.constants.x_b == traj.x_b and len(traj.start) == 2
        assert (len(turned), len(direction), len(angles)) == (
            2 * rows, rows, 1)


@_POLES_AND_EQUATOR
def test_the_trajectory_field_is_the_family_member(a):
    # the axis the trajectory turns about is, bit for bit, the direction of
    # the family member that `suboptimal_field` builds
    problem = EvolutionProblem(np.array(a), np.array([0.6, -0.48, 0.64]),
                               energy=1.7)
    params = SubOptimalParams(PI / 4)
    traj = sample_trajectory(problem, params)
    want = suboptimal_field(problem, params)
    assert traj.circle.n == tuple(want.direction.tolist())


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_builds_the_field_once(canonical, monkeypatch, mode):
    # pi/16 has an interior branch time, so piecewise mode cuts a segment;
    # the field's direction is computed once per analyze
    calls = _count_calls(monkeypatch, hamiltonians, "field_direction")
    rep = analyze(canonical, SubOptimalParams(PI / 16),
                  AnalysisConfig(averaging_mode=mode))
    assert len(rep.volume.segments) == (1 if mode == "uniform" else 2)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_builds_no_field_vector(canonical, monkeypatch, mode):
    # no row of `analyze` or `analyze_alphas` builds a FieldVector; the
    # counter does see the one that `suboptimal_field` builds
    built = _count_calls(monkeypatch, FieldVector, "__post_init__")
    config = AnalysisConfig(averaging_mode=mode)
    analyze(canonical, SubOptimalParams(PI / 16), config)
    analyze_alphas(canonical, np.linspace(0.0, PI, 17), config)
    assert len(built) == 0
    suboptimal_field(canonical, SubOptimalParams(PI / 16))
    assert len(built) == 1


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_a_sweep_takes_the_source_angles_once(monkeypatch, mode):
    # the source's angles belong to the problem: its construction calls
    # bloch_angles once for them, and a 17-row sweep on it once more, in
    # the kernel call that evaluates every row
    calls = _count_calls(monkeypatch, qubit, "bloch_angles")
    problem = equatorial_problem()
    assert len(calls) == 1
    rows = analyze_alphas(problem, np.linspace(0.0, PI, 17),
                          AnalysisConfig(averaging_mode=mode))
    assert all(isinstance(row, EvolutionReport) for row in rows)
    assert len(calls) == 2


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_splits_each_end_once(canonical, monkeypatch, mode):
    # the source's circle is the trajectory's, and eta_SE and kappa2 read
    # it; the other split is the target's circle about -n in the box
    calls = _count_calls(monkeypatch, Circle, "about")
    rep = analyze(canonical, SubOptimalParams(PI / 16),
                  AnalysisConfig(averaging_mode=mode))
    assert len(calls) == 2
    field = suboptimal_field(canonical, SubOptimalParams(PI / 16))
    assert rep.eta_se == speed_efficiency(field, canonical.a_hat)
    assert rep.kappa2 == curvature_coefficient(field, canonical.a_hat)


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_evaluates_the_path_in_one_pass(canonical, monkeypatch, mode):
    # the box, the degeneracy, V_max and the first quadrature level read one
    # call of the evaluation kernel; the path keeps far from the poles, so
    # neither the lift nor piecewise mode's branch roots evaluate a state to
    # test for one
    config = AnalysisConfig(averaging_mode=mode)
    calls = {fn_name: _count_calls(monkeypatch, trajectory, fn_name)
             for fn_name in ("evaluate_angles", "evaluate_states")}
    rep = analyze(canonical, SubOptimalParams(PI / 16), config)
    assert len(rep.volume.segments) == (1 if mode == "uniform" else 2)
    assert {fn_name: len(log) for fn_name, log in calls.items()} == {
        "evaluate_angles": 1, "evaluate_states": 1}
    # a whole sweep evaluates every row's first level in one kernel call;
    # no row of the reference sweep is bisected
    for log in calls.values():
        log.clear()
    rows = analyze_alphas(canonical, np.linspace(0.0, PI, 17), config)
    assert all(isinstance(row, EvolutionReport) for row in rows)
    assert {fn_name: len(log) for fn_name, log in calls.items()} == {
        "evaluate_angles": 1, "evaluate_states": 1}


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_computes_the_arrival_angle_once(canonical, monkeypatch,
                                                  mode):
    # the trajectory's x_b holds it, and the path length reads it from there
    calls = _count_calls(monkeypatch, hamiltonians, "arrival_angle")
    analyze(canonical, SubOptimalParams(PI / 16),
            AnalysisConfig(averaging_mode=mode))
    assert len(calls) == 1


def _general_draws(count):
    """The first ``count`` (problem, alpha) draws of the benchmark's general
    pool."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import general_pool

    return [(EvolutionProblem(np.array(a), np.array(b), energy=omega), alpha)
            for a, b, alpha, omega in general_pool()[:count]]


def _reports(canonical, mode):
    """`analyze` at the 17 alphas of the reference sweep, as `cli sweep`
    passes them (numpy floats), and on 200 general-pool draws, skipping the
    draws that raise."""
    config = AnalysisConfig(averaging_mode=mode)
    cases = ([(canonical, alpha) for alpha in np.linspace(0.0, PI, 17)]
             + _general_draws(200))
    for problem, alpha in cases:
        params = SubOptimalParams(alpha)
        try:
            yield problem, params, analyze(problem, params, config)
        except BlochComplexityError:
            continue


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_report_length_is_path_length_bit_for_bit(canonical, mode):
    count = 0
    for problem, params, rep in _reports(canonical, mode):
        assert rep.s == path_length(problem, params)
        count += 1
    assert count > 150


def _numbers(value):
    """Every number in a report, its volume, box and segments included."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    elif not isinstance(value, str):
        yield value


def test_efficiency_and_curvature_read_the_trajectory_circle():
    # both come from the one split of a about the field axis n: with
    # na = n.a and u = a - na n, eta_SE = |u| and kappa^2 = 4 na^2 / |u|^2,
    # bit for bit
    for problem, alpha in _general_draws(200):
        params = SubOptimalParams(alpha)
        _, na, u, _ = sample_trajectory(problem, params).circle
        field = suboptimal_field(problem, params)
        perp = sum(x * x for x in u)
        assert speed_efficiency(field, problem.a_hat) == math.sqrt(perp)
        assert (curvature_coefficient(field, problem.a_hat)
                == 4.0 * na * na / perp)


def test_each_unit_vector_is_validated_once_and_its_state_reads_it(
        monkeypatch):
    # general-pool draw 997, whose b a second division by its rounded norm
    # moves by an ulp: the target state is the state of the b_hat that the
    # circle, the box and the metrics read
    a = (-0.41639410003863575, 0.33253262034940695, 0.8461902917527309)
    b = (0.8979141761767451, 0.11284184990972573, 0.42546074922346055)
    calls = _count_calls(monkeypatch, qubit, "_require_unit")
    problem = EvolutionProblem(np.array(a), np.array(b))
    analyze(problem, SubOptimalParams(1.9876606565295185))
    assert len(calls) == 2
    b_hat = problem.b_hat.tolist()
    state = problem.target_state.tobytes()
    assert state == state_from_bloch(*b_hat).tobytes()
    assert state != state_from_bloch(*_require_unit(b_hat, "b")).tobytes()


def test_an_unknown_averaging_mode_is_rejected_by_name(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(PI / 4))
    with pytest.raises(ValueError, match="averaging mode 'bogus'"):
        AnalysisConfig(averaging_mode="bogus")
    with pytest.raises(ValueError, match="averaging mode 'bogus'"):
        accessed_volume(traj, "bogus")


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_every_number_on_a_report_is_a_builtin_float(canonical, mode):
    # a numpy float would print as np.float64(...) in a repr
    for _, _, rep in _reports(canonical, mode):
        numbers = list(_numbers(rep))
        assert len(numbers) == 14 + 3 * len(rep.volume.segments)
        assert {type(x) for x in numbers} == {float}


def test_analyze_ignores_changes_to_a_copy_of_the_source_state():
    problem, params = equatorial_problem(), SubOptimalParams(PI / 16)
    before = analyze(problem, params)
    psi = problem.source_state.copy()
    psi[:] = [0.0, 1.0]
    assert not np.array_equal(problem.source_state, psi)
    assert analyze(problem, params) == before


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
        x = 2.0 * traj.problem.energy * x
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
                0.1 * np.sqrt(res.fun) / (2.0 * traj.problem.energy),
                t[hi] - t[lo], 400)
            for side, ref in ((-1.0, phi[lo]), (1.0, phi[hi])):
                ts = t_p + side * reach
                ts = ts[(ts > 0.0) & (ts < traj.t_b)]
                if ts.size < 3:
                    continue

                def swing(t, ref=ref):
                    x = 2.0 * traj.problem.energy * t
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
        ang = traj.problem.energy * np.asarray(t, dtype=float)
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
            # a root at an exact pole is not a branch flip
            if np.sin(bloch_angles(ev(root))[0]) >= POLE_EPS:
                roots.append(root)
    # the same end and merge rules as branch_times, on the phase angle Et
    w = traj.problem.energy
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
# a source 4.5e-11 from the pole: Re c1's root 5.9e-11 later, at
# sin(theta) = 1e-10, is next to the pole but not on it, so it is a cut
@example(a=np.array([-4.53e-11, 0.0, 1.0]), b=np.array([0.0, 1.0, 0.0]),
         alpha=1.0, omega=1.0)
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
    ts = _reference_times(traj, sample(traj).t)
    assume(_unwrapped(traj, ts)[1] <= PI / 2)
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
    t, states, theta, phi = sample(traj)
    sampled, worst = _unwrapped(traj, t)
    assume(worst <= PI / 2)
    assert np.array_equal(theta, bloch_angles(states)[0])
    away = np.sin(theta) > 1e-3
    assert np.abs(phi - sampled)[away].max(initial=0.0) <= 1e-12


def test_angles_at_matches_sampled_unwrap_on_canonical_grid(canonical):
    for k in range(17):
        traj = sample_trajectory(canonical, SubOptimalParams(k * PI / 16))
        t, states, theta, phi = sample(traj)
        sampled, _ = _unwrapped(traj, t)
        assert np.array_equal(theta, bloch_angles(states)[0])
        assert np.max(np.abs(phi - sampled)) <= 1e-12


def test_evolve_columns_match_the_unwrapped_samples(canonical, capsys):
    # evolve's theta and phi columns, every row, against the polar angles
    # and the unwrapped azimuths of the samples, at the CSV's 12 digits
    for k in range(17):
        traj = sample_trajectory(canonical, SubOptimalParams(k * PI / 16))
        assert main(["evolve", "--alpha", f"{k}/16pi", "--samples",
                     "2049"]) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        t, states, _, _ = sample(traj, 2049)
        phi, _ = _unwrapped(traj, t)
        assert [row[1] for row in rows] == [
            f"{x:.12g}" for x in bloch_angles(states)[0]]
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
    x = 2Et, over the library's segments, of the literal definition: the
    angles in extended precision, the azimuth resolved against the unwrapped
    samples, and at an exact pole the one-sided limit that the samples carry
    there. Each segment is split at the zeros of cos(theta) - cos(theta_A)
    and of phi - phi_A (brentq), next to each polar turning point and next
    to an end near a pole, and at x_b/2: the second half is integrated in
    x - x_b, back from the target, from whose state its states are built."""
    ts = _reference_times(traj, sample(traj).t)
    xs = 2.0 * traj.problem.energy * ts
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
    ts = _reference_times(traj, sample(traj).t)
    assume(_unwrapped(traj, ts)[1] <= PI / 2)
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
# a source on the exact-pole threshold, whose state keeps the azimuth of a
@example(a=_near_pole(1.0, -12.0, 1.0), b=np.array([1.0, 0.0, 0.0]),
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
    assume(not traj.limits)
    # the references need a sampling that resolves the winding: a path that
    # passes a pole 1e-11 away turns its azimuth by pi between samples
    ts = _reference_times(traj, sample(traj).t)
    assume(_unwrapped(traj, ts)[1] <= PI / 2)
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


def test_source_inside_the_pole_threshold_starts_the_path_of_a():
    # a source 5e-13 from the north pole reads as a pole, but its state is
    # still a's own, so the path is the circle of a about n: it passes the
    # pole 4.3754084235e-13 away (the circle's closest approach, at 50
    # digits), nearer than the source. A state moved to azimuth 0 would
    # start another circle, whose closest approach is the source
    a = np.array([5e-13 * np.cos(1.0), 5e-13 * np.sin(1.0), 1.0])
    traj = sample_trajectory(EvolutionProblem(a, np.array([0.6, -0.48, 0.64])),
                             SubOptimalParams(PI / 4))
    assert np.sin(traj.start[0]) < POLE_EPS
    assert bounding_box(traj).theta_min == pytest.approx(4.3754084235e-13,
                                                         rel=1e-7, abs=0.0)


# -- piecewise mode follows the source's global phase ----------------------

def _phased(problem, chi):
    """``problem`` with its read-only ``source_state`` multiplied by the
    global phase e^(i chi): the same source, in another phase than the one
    `state_from_bloch` fixes (c0 real and >= 0)."""
    phased = copy.copy(problem)
    state = problem.source_state * cmath.exp(1j * chi)
    state.setflags(write=False)
    object.__setattr__(phased, "source_state", state)
    return phased


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(_unit_vectors, _near_or_at_poles),
       b=st.one_of(_unit_vectors, _near_or_at_poles), alpha=st.floats(0.0, PI),
       chi=st.floats(-PI, PI))
# a path 1e-6 long from the north pole: C moves by 6.9e-11 relative
@example(a=np.array([0.0, 0.0, 1.0]),
         b=np.array([0.0, 1e-6, 1.0]) / np.hypot(1e-6, 1.0), alpha=1.0,
         chi=1.0)
# a theta extent of 6.2e-5, next to the parallel at alpha = pi/2: 3.9e-12
@example(a=np.array([1.0, 4.0, 0.0]) / np.sqrt(17.0),
         b=np.array([0.0, 1.0, 0.0]), alpha=1.5625, chi=1.0)
def test_uniform_complexity_is_invariant_under_the_source_phase(a, b, alpha,
                                                                chi):
    # the angles of a state carry no global phase, so neither does uniform
    # mode's average of V over them, to rounding: the multiply's rounding
    # moves an angle by about eps, and so C, a ratio of box areas, by about
    # eps over the box's smaller extent. That is 1e-12 relative on a box
    # at least 0.01 wide both ways, and more on a thinner one
    uniform = AnalysisConfig(averaging_mode="uniform")
    try:
        problem = EvolutionProblem(a, b)
        rep = analyze(problem, SubOptimalParams(alpha), uniform)
    except BlochComplexityError:
        assume(False)
    got = analyze(_phased(problem, chi), SubOptimalParams(alpha),
                  uniform).complexity
    box = rep.volume.box
    width = min(box.theta_extent, box.phi_extent, 0.01)
    assert abs(got - rep.complexity) * width <= 1e-14 * abs(rep.complexity)


def test_piecewise_complexity_follows_the_source_phase(canonical):
    # the cuts are the sign changes of Re c0 and Re c1, which a global phase
    # moves: the table's value holds in the phase that `state_from_bloch`
    # fixes, and a quarter turn of it leaves one segment, the uniform value
    params = SubOptimalParams(PI / 16)
    table = analyze(canonical, params)
    assert table.complexity == pytest.approx(0.315278, abs=1e-6)
    assert table.complexity == pytest.approx(VOLUME_TABLE[1][2], abs=1e-4)
    assert len(table.volume.segments) == 2
    turned = analyze(_phased(canonical, PI / 2), params)
    assert turned.complexity == pytest.approx(0.677982, abs=1e-6)
    assert len(turned.volume.segments) == 1
    uniform = analyze(canonical, params,
                      AnalysisConfig(averaging_mode="uniform"))
    assert turned.complexity == pytest.approx(uniform.complexity, rel=1e-12)


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
    # typed error, and the energy only scales time: every other field of the
    # report at E is the one at E = 1, bit for bit (or both raise the same
    # error)
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
        assert _geometry(rep) == _geometry(unit)


# -- analyze against its stages, and the lift's pole check -------------------

def _tilted_passage(passage, delta):
    """An exact-pole passage (a and b in the plane x = 0, the geodesic over
    the north pole at alpha = pi/2) turned about the y axis by ``delta``,
    so that the path's closest approach has sin(theta) = sin(delta)."""
    def turn(r):
        return np.array([r[2] * np.sin(delta), r[1], r[2] * np.cos(delta)])
    a, b = passage
    return EvolutionProblem(turn(np.array(a)), turn(np.array(b)))


_PASSAGES = {"0.6": ([0.0, 0.6, 0.8], [0.0, -0.6, 0.8]),
             "0.8": ([0.0, 0.8, 0.6], [0.0, -0.28, 0.96])}

# alpha = 0 and 15pi/16 give one segment, pi/16 two, and pi/2 a parallel;
# a source at an exact pole; a path over an exact pole mid-way
_STAGE_CASES = {
    **{f"{k}pi/16": (equatorial_problem(), SubOptimalParams(k * PI / 16))
       for k in (0, 1, 8, 15)},
    "pole source": (EvolutionProblem(np.array([0.0, 0.0, 1.0]),
                                     np.array([1.0, 0.0, 0.0])),
                    SubOptimalParams(0.3)),
    "pole passage": (_tilted_passage(_PASSAGES["0.6"], 0.0),
                     SubOptimalParams(PI / 2)),
}


def _assert_stages_agree(problem, params, mode):
    """analyze's box, accessed volume and segment bounds equal, bit for bit,
    what the public stage functions give on their own."""
    traj = sample_trajectory(problem, params)
    volume = analyze(problem, params,
                     AnalysisConfig(averaging_mode=mode)).volume
    assert volume.box == bounding_box(traj)
    assert volume.v_bar == accessed_volume(traj, mode)
    cuts = branch_times(traj) if mode == "appendix_piecewise" else []
    bounds = [t0 for t0, _, _ in volume.segments] + [volume.segments[-1][1]]
    assert bounds == [0.0] + cuts + [traj.t_b]


@pytest.mark.parametrize("mode", AVERAGING_MODES)
@pytest.mark.parametrize("case", _STAGE_CASES)
def test_analyze_agrees_with_its_stages(case, mode):
    _assert_stages_agree(*_STAGE_CASES[case], mode)


@settings(max_examples=20, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors, alpha=st.floats(0.0, PI),
       omega=st.floats(0.5, 5.0))
def test_analyze_agrees_with_its_stages_on_general_problems(a, b, alpha,
                                                            omega):
    assume(abs(a @ b) <= 0.98)
    problem = EvolutionProblem(a, b, energy=omega)
    for mode in AVERAGING_MODES:
        try:
            _assert_stages_agree(problem, SubOptimalParams(alpha), mode)
        except BlochComplexityError:
            continue


def _golden_pole_cases():
    """(a, b, alpha, energy) of `scripts/snapshot.py`'s pole cases, as
    ``golden_reports.csv`` records them."""
    with (Path(__file__).resolve().parent / "golden_reports.csv").open() as f:
        rows = [line.split(",") for line in f
                if line.startswith("pole ") and ",uniform," in line]
    return [(np.array(row[1:4], dtype=float), np.array(row[4:7], dtype=float),
             float(row[7]), float(row[8])) for row in rows]


def _pole_check_cases():
    """(problem, params) of the golden pole cases that can be built, by
    name; the first eight are `_tilted_passage` of the `_PASSAGES` at
    delta = 0, 1e-13, 1e-11 and 1e-7."""
    cases = {}
    for k, (a, b, alpha, energy) in enumerate(_golden_pole_cases()):
        try:
            cases[f"pole {k}"] = (EvolutionProblem(a, b, energy=energy),
                                  SubOptimalParams(alpha))
        except BlochComplexityError:
            continue
    return cases


_POLE_CHECK_CASES = _pole_check_cases()


@pytest.mark.parametrize("case", _POLE_CHECK_CASES)
def test_pole_check_margin_skips_no_pole(case):
    # the path's one pole decision, made in closed form, is the one found by
    # evaluating the states at the source, the target and every interior
    # polar turn, in that order; an interior pole is the lift's crossing,
    # with the tangent's azimuths on either side of it as its limits
    traj = sample_trajectory(*_POLE_CHECK_CASES[case])
    near = [0.0, traj.x_b, *(x for x in traj.polar_turns
                             if 0.0 < x < traj.x_b)]
    states = trajectory.evaluate_states(traj.constants, np.array(near))
    on = np.sin(bloch_angles(states)[0]) < POLE_EPS
    assert traj.pole == (near[np.argmax(on)] if on.any() else None)
    if traj.pole is None:
        assert traj.limits == ()
        return
    if traj.pole in (0.0, traj.x_b):
        return
    assert traj.crossing == traj.pole
    t_pole = traj.time_of(traj.pole)
    tangents = [_tangent_azimuth(traj, t_pole, arriving)
                for arriving in (True, False)]
    assert nearest_branch(np.array(traj.limits), tangents) == pytest.approx(
        tangents, abs=1e-9)


@pytest.mark.parametrize("delta", (0.0, 1e-13, 1e-11, 1e-7, 1e-5, 1e-4))
def test_pole_check_evaluates_no_state(monkeypatch, delta):
    # the path's pole, the lift and piecewise mode's branch roots are
    # decided in closed form, an exact passage (delta = 0) included
    traj = sample_trajectory(_tilted_passage(_PASSAGES["0.6"], delta),
                             SubOptimalParams(PI / 2))
    log = _count_calls(monkeypatch, trajectory, "evaluate_states")
    assert (traj.pole is None) == (delta >= POLE_EPS)
    assert (traj.limits == ()) == (delta >= POLE_EPS)
    _branch_angles(traj)
    assert log == []


@needs_extended_precision
@pytest.mark.parametrize("delta", (1e-2, 1e-4, 1e-7, 1e-11))
def test_near_pole_passage_converges_at_the_first_level(monkeypatch, delta):
    # the panels graded towards the polar turn resolve the azimuth's fast
    # turn there, so no panel is bisected more than once however near the
    # pole the path passes (without them, 1e-11 took 29 levels): the kernel
    # runs for the first level and for at most two bisection levels
    problem, params = _tilted_passage(_PASSAGES["0.6"], delta), \
        SubOptimalParams(PI / 2)
    traj = sample_trajectory(problem, params)
    log = _count_calls(monkeypatch, trajectory, "evaluate_angles")
    for mode in AVERAGING_MODES:
        log.clear()
        v_bar = analyze(problem, params,
                        AnalysisConfig(averaging_mode=mode)).volume.v_bar
        assert len(log) <= 3
        assert v_bar == pytest.approx(_oracle_accessed_volume(traj, mode),
                                      abs=1e-10)


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_pole_cases_cut_no_sliver_panels(mode):
    # where two edge formulas meet one point, or an edge is graded towards a
    # turn at an exact pole, the edges used to sit 1 or 2 ulp apart and cut
    # panels that cost a quadrature level of points for nothing
    cases = _golden_pole_cases()
    assert len(cases) == 33
    for a, b, alpha, energy in cases:
        try:
            traj = sample_trajectory(EvolutionProblem(a, b, energy=energy),
                                     SubOptimalParams(alpha))
        except BlochComplexityError:
            continue
        cuts = _branch_angles(traj) if mode == "appendix_piecewise" else []
        edges = _panel_edges(traj, [0.0, *cuts, traj.x_b])
        assert np.diff(edges).min() >= 8.0 * np.spacing(traj.x_b)


# a path off any meridian that meets the north pole mid-way, at its one
# crossing of the plane of the start azimuth
_PASSAGE = (
    np.array([0.1591020297601654, -0.834757507664317, 0.5271303894903547]),
    np.array([0.4267351851184539, 0.9005208855683895, -0.08342191820524425]))
_PASSAGE_ALPHA = 2.8326732369948786
# moves of a and b, in units of np.spacing, under which rounding used to
# give the passage each of the half-turn pairs (-1, 0), (-1, -2) and
# (-1, -1)
_PASSAGE_MOVES = (((2, 1, 0), (-2, -1, -3)), ((-1, 3, 0), (-3, 2, 2)),
                  ((-2, 1, 2), (-1, 0, 3)))


def test_pole_passage_takes_the_side_of_the_field_axis():
    problem = EvolutionProblem(*_PASSAGE)
    params = SubOptimalParams(_PASSAGE_ALPHA)
    traj = sample_trajectory(problem, params)
    pole = traj.crossing
    assert pole == pytest.approx(1.092250021610253, abs=1e-12)
    theta = bloch_angles(trajectory.evaluate_states(traj.constants,
                                                    np.array([pole])))[0]
    assert np.sin(theta[0]) < POLE_EPS
    for mode in AVERAGING_MODES:
        _assert_stages_agree(problem, params, mode)

    def c(problem, alpha=_PASSAGE_ALPHA):
        return analyze(problem, SubOptimalParams(alpha),
                       AnalysisConfig(averaging_mode="uniform")).complexity

    # above alpha the path passes the pole on the side of the field axis,
    # and C at the exact pole is the limit from there; below alpha it passes
    # on the other side, and C jumps by 0.01
    exact = c(problem)
    assert exact == pytest.approx(c(problem, _PASSAGE_ALPHA + 1e-10),
                                  abs=1e-5)
    assert abs(exact - c(problem, _PASSAGE_ALPHA - 1e-10)) > 1e-3
    # a rule, not rounding, picks the side: moves of a few ulp keep it
    a, b = _PASSAGE
    for da, db in _PASSAGE_MOVES:
        moved = EvolutionProblem(a + np.spacing(a) * da,
                                 b + np.spacing(b) * db)
        moved_traj = sample_trajectory(moved, params)
        assert moved_traj.half_turns == traj.half_turns
        assert c(moved) == pytest.approx(exact, abs=1e-12)


def _turned(r, n, angle):
    """r turned by ``angle`` about the unit axis n."""
    return (np.cos(angle) * r + np.sin(angle) * np.cross(n, r)
            + (1.0 - np.cos(angle)) * (n @ r) * n)


def _circle_through_pole(n, pole, t1, t2, push=0.0):
    """a and b at rotations -t1 and t2 about the unit axis n from the pole
    (0, 0, ``pole``), both moved by the angle ``push`` towards n, and the
    alpha at which the family's field axis is n."""
    a, b = (_turned(np.array([0.0, 0.0, pole]), n, t) for t in (-t1, t2))
    a, b = (np.cos(push) * r + np.sin(push) * (n - (n @ r) * r)
            / np.linalg.norm(n - (n @ r) * r) for r in (a, b))
    ab = np.cross(a, b)
    alpha = np.arctan2(n @ ab / np.linalg.norm(ab),
                       n @ (a + b) / np.linalg.norm(a + b))
    return a, b, alpha


# eight moves of each component of a and b by up to 3 ulp
_ULP_MOVES = np.random.default_rng(0).integers(-3, 4, size=(8, 2, 3))


@settings(max_examples=60, deadline=None)
@given(tilt=st.floats(0.2, 1.4), psi=st.floats(-PI, PI), pole=_poles,
       t1=st.floats(0.3, 1.2), t2=st.floats(0.3, 1.2))
# circles on which a move of the source by 1e-16 used to flip the side
@example(tilt=0.4, psi=0.0, pole=1.0, t1=0.8, t2=0.8)
@example(tilt=0.7, psi=0.0, pole=1.0, t1=0.8, t2=0.8)
@example(tilt=1.1, psi=0.0, pole=1.0, t1=0.5, t2=1.0)
# circles on which c1's branch root falls 1e-12 from the south pole, where
# ulp moves used to put it on both sides of the pole threshold: a root of
# the amplitude that does not vanish at the pole is a cut however near it
@example(tilt=1.373046875, psi=1e-13, pole=-1.0, t1=1.0, t2=1.0)
@example(tilt=1.37307, psi=1e-13, pole=-1.0, t1=1.0, t2=1.0)
def test_pole_passage_is_the_limit_towards_the_field_axis(tilt, psi, pole,
                                                          t1, t2):
    # a path through an exact pole between its ends gives one C under moves
    # of a few ulp, and in uniform mode it is the C of the path pushed off
    # the pole towards the field axis n
    n = np.array([np.sin(tilt) * np.cos(psi), np.sin(tilt) * np.sin(psi),
                  np.cos(tilt)])
    a, b, alpha = _circle_through_pole(n, pole, t1, t2)
    assume(0.0 <= alpha <= PI)

    def c(a, b, alpha, mode):
        return analyze(EvolutionProblem(a, b), SubOptimalParams(alpha),
                       AnalysisConfig(averaging_mode=mode)).complexity

    for mode in AVERAGING_MODES:
        try:
            exact = c(a, b, alpha, mode)
            moved = [c(a + np.spacing(a) * da, b + np.spacing(b) * db, alpha,
                       mode) for da, db in _ULP_MOVES]
        except AveragingDomainError:
            continue
        assert moved == pytest.approx([exact] * len(moved), abs=1e-12)
        if mode == "uniform":
            pushed = c(*_circle_through_pole(n, pole, t1, t2, 1e-10), mode)
            assert exact == pytest.approx(pushed, abs=1e-4)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_piecewise_cuts_are_continuous_next_to_a_pole(side):
    # a branch root next to the pole but outside the exact-pole threshold
    # is a cut, so piecewise C moves smoothly as the passage is pushed off
    # the pole on either side
    n = np.array([np.sin(0.203125), 0.0, np.cos(0.203125)])
    config = AnalysisConfig(averaging_mode="appendix_piecewise")

    def c(push):
        a, b, alpha = _circle_through_pole(n, 1.0, 0.5, 1.0, side * push)
        return analyze(EvolutionProblem(a, b), SubOptimalParams(alpha),
                       config).complexity

    far = c(1e-8)
    assert [c(push) for push in (1e-11, 1e-10, 1e-9)] == pytest.approx(
        [far] * 3, abs=1e-4)


def _mid_path_passages():
    """(problem, params) of every path among `scripts/snapshot.py`'s pole
    cases that meets an exact pole between its ends: the geodesics over the
    north pole, exact and tilted by 1e-13, `_PASSAGE` and its moves, a
    circle through the north pole at the alpha of its axis, and a source
    1e-12 from the south pole that reaches it just after leaving."""
    geodesics = [(_tilted_passage(passage, delta), SubOptimalParams(PI / 2))
                 for passage in _PASSAGES.values() for delta in (0.0, 1e-13)]
    a, b = _PASSAGE
    moved = [(EvolutionProblem(a + np.spacing(a) * da, b + np.spacing(b) * db),
              SubOptimalParams(_PASSAGE_ALPHA))
             for da, db in (((0, 0, 0), (0, 0, 0)), *_PASSAGE_MOVES)]
    n = np.array([np.sin(0.203125), 0.0, np.cos(0.203125)])
    a, b, alpha = _circle_through_pole(n, 1.0, 0.5, 1.0)
    off, phase = 1e-12, 2.97265625
    south = np.array([off * np.cos(phase), off * np.sin(phase),
                      -np.sqrt(1.0 - off * off)])
    return [*geodesics, *moved,
            (EvolutionProblem(a, b), SubOptimalParams(alpha)),
            (EvolutionProblem(south, np.array([0.6, -0.48, 0.64])),
             SubOptimalParams(PI / 4))]


_MID_PATH_PASSAGES = _mid_path_passages()


@pytest.mark.parametrize("case", range(len(_MID_PATH_PASSAGES)))
def test_a_mid_path_pole_is_a_polar_turn(case):
    # the lift's crossing at a pole between the ends is the polar turn that
    # the box and the panel edges read, bit for bit
    traj = sample_trajectory(*_MID_PATH_PASSAGES[case])
    pole = traj.crossing
    arrival, departure = traj.limits
    assert abs(departure - arrival) == pytest.approx(PI, abs=1e-12)
    assert pole in traj.polar_turns


def test_polar_turns_agree_with_the_per_side_form_at_poles_and_in_general():
    # an independent location of the polar turns: each lies within 1e-15 of
    # a closest approach to a pole taken from its own side, atan2(+-v_z,
    # +-u_z) (mod 2 pi), and every such approach inside the path is a turn
    cases = [*_MID_PATH_PASSAGES, *((problem, SubOptimalParams(alpha))
                                    for problem, alpha in _general_draws(200))]
    for problem, params in cases:
        traj = sample_trajectory(problem, params)
        _, _, u, v = traj.circle
        per_side = [math.atan2(side * v[2], side * u[2]) % (2.0 * PI)
                    for side in (1.0, -1.0)]
        for x in traj.polar_turns:
            assert min(abs((x - y + PI) % (2.0 * PI) - PI)
                       for y in per_side) <= 1e-15
        inside = [y for y in per_side if 1e-15 < y < traj.x_b - 1e-15]
        assert all(min(abs(x - y) for x in traj.polar_turns) <= 1e-15
                   for y in inside)


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_meridian_through_a_pole_matches_its_tilt(mode):
    # the geodesic from (0, 0.8, 0.6) over the north pole meets it at
    # x = 0.9273, and the lift takes that pole for its crossing whether the
    # passage is exact or tilted 1e-13 about the y axis (rounding used to
    # register a crossing at x = 0.1419 on the exact one). The tangent
    # azimuth is the same all along a meridian, so the two C agree
    passage = ([0.0, 0.8, 0.6], [0.0, -0.6, 0.8])
    params = SubOptimalParams(PI / 2)
    config = AnalysisConfig(averaging_mode=mode)
    exact, tilted = (_tilted_passage(passage, delta) for delta in (0.0, 1e-13))
    for problem in (exact, tilted):
        pole = sample_trajectory(problem, params).crossing
        assert pole == pytest.approx(0.9272952180016122, abs=1e-12)
    assert analyze(exact, params, config).complexity == pytest.approx(
        analyze(tilted, params, config).complexity, abs=1e-12)


# -- a sweep of alphas in one pass against its rows one by one ---------------

def _assert_rows_match(problem, alphas, config):
    """Each `analyze_alphas` row has its own `analyze` outcome, bit for
    bit: the same error class and message, or the same label and segment
    count with the same C, V_bar, V_max and L_C; returns the rows."""
    rows = analyze_alphas(problem, alphas, config)
    assert len(rows) == len(alphas)
    for alpha, row in zip(alphas, rows):
        try:
            one = analyze(problem, SubOptimalParams(alpha), config)
        except BlochComplexityError as err:
            assert type(row) is type(err), alpha
            assert str(row) == str(err), alpha
            continue
        assert isinstance(row, EvolutionReport), (alpha, row)
        assert row.alpha == one.alpha
        assert row.degeneracy_label == one.degeneracy_label
        assert len(row.volume.segments) == len(one.volume.segments)
        for got, want in ((row.complexity, one.complexity),
                          (row.volume.v_bar, one.volume.v_bar),
                          (row.volume.v_max, one.volume.v_max),
                          (row.length_scale, one.length_scale)):
            assert got == want, alpha
    return rows


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_alphas_matches_analyze_on_the_reference_sweep(canonical,
                                                               mode):
    rows = _assert_rows_match(canonical, np.linspace(0.0, PI, 17),
                              AnalysisConfig(averaging_mode=mode))
    # alpha = pi/2 is the equator, a parallel
    assert [row.degeneracy_label for row in rows].count("theta") == 1
    assert rows[8].degeneracy_label == "theta"


_PARALLEL_MOST = [PI / 2, PI / 2, PI / 2, PI / 16]


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_alphas_matches_analyze_where_the_parallel_is_most_rows(
        canonical, mode):
    # the degenerate kind is the most common, so V's general formula is the
    # one evaluated again, on the alpha = pi/16 row alone
    rows = _assert_rows_match(canonical, _PARALLEL_MOST,
                              AnalysisConfig(averaging_mode=mode))
    assert [row.degeneracy_label for row in rows] == ["theta"] * 3 + ["none"]


def test_stacked_states_are_each_rows_own():
    # the kernel on a sweep's stacked constants gives each row's points,
    # which lie on one flat axis, the states that its own trajectory gives,
    # bit for bit, at the same rotation angles, measured back from x_b past
    # the midpoint; the rows hold different numbers of points
    problem = equatorial_problem()
    trajs = [sample_trajectory(problem, SubOptimalParams(alpha))
             for alpha in [*_PARALLEL_MOST, 0.0, PI]]
    xs, origins = [], []
    for r, traj in enumerate(trajs):
        x = np.linspace(0.0, 1.0, 33 + r) * traj.x_b
        xs.append(np.where(x < 0.5 * traj.x_b, x, x - traj.x_b))
        origins.append(np.where(xs[-1] < 0.0, traj.x_b, 0.0))
    row = np.repeat(np.arange(len(trajs)), [len(x) for x in xs])
    constants = trajectory.gather(trajectory.stack_arrays(trajs), row)
    states = trajectory.evaluate_states(constants, np.concatenate(xs),
                                        np.concatenate(origins))
    for r, traj in enumerate(trajs):
        own = trajectory.evaluate_states(traj.constants, xs[r], origins[r])
        assert states[row == r].tobytes() == own.tobytes()


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_a_sweep_evaluates_v_as_often_at_any_row_count(canonical,
                                                       monkeypatch, mode):
    # the batched pass evaluates V_max and V at the first-level nodes of
    # every row in one call per degeneracy kind present, after one kernel
    # call; both grids hold the equator's parallel among general rows
    config = AnalysisConfig(averaging_mode=mode)
    kernel = {fn_name: _count_calls(monkeypatch, trajectory, fn_name)
              for fn_name in ("evaluate_angles", "evaluate_states")}
    volume = _count_calls(monkeypatch,
                          sys.modules["blochcomplexity.complexity"],
                          "_volume_samples")
    counts = []
    for alphas in (np.linspace(0.0, PI, 17), [0.0, PI / 4, PI / 2, PI]):
        for log in (volume, *kernel.values()):
            log.clear()
        rows = analyze_alphas(canonical, alphas, config)
        assert [row.degeneracy_label for row in rows].count("theta") == 1
        assert {fn_name: len(log) for fn_name, log in kernel.items()} == {
            "evaluate_angles": 1, "evaluate_states": 1}
        counts.append(len(volume))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode, points", [("appendix_piecewise", 2052),
                                          ("uniform", 1668)])
def test_a_sweep_evaluates_only_its_rows_own_points(canonical, monkeypatch,
                                                    mode, points):
    # the rows' points lie on one flat axis with no padding: the sweep's one
    # kernel call evaluates as many as its rows' own `analyze` calls do
    config = AnalysisConfig(averaging_mode=mode)
    states = _count_calls(monkeypatch, trajectory, "evaluate_states")
    alphas = np.linspace(0.0, PI, 17)
    analyze_alphas(canonical, alphas, config)
    assert sum(np.size(x) for _, x, _ in states) == points
    states.clear()
    for alpha in alphas:
        analyze(canonical, SubOptimalParams(alpha), config)
    assert sum(np.size(x) for _, x, _ in states) == points


@pytest.mark.parametrize("mode, points", [("appendix_piecewise", 47172),
                                          ("uniform", 35492)])
def test_analyze_alphas_bisects_every_row_in_one_kernel_call_per_level(
        monkeypatch, mode, points):
    # at theta_AB = 3.1, 22 of 257 rows bisect a panel once; they bisect
    # together, in one kernel call after the first level's, at the points
    # that their own `analyze` calls evaluate, and each row's report is its
    # own `analyze`'s, bit for bit
    config = AnalysisConfig(averaging_mode=mode)
    problem = equatorial_problem(3.1)
    alphas = np.linspace(0.0, PI, 257)
    levels = _count_calls(monkeypatch, trajectory, "evaluate_angles")
    states = _count_calls(monkeypatch, trajectory, "evaluate_states")
    rows = analyze_alphas(problem, alphas, config)
    assert len(levels) == 2
    assert sum(np.size(x) for _, x, _ in states) == points
    levels.clear()
    states.clear()
    for alpha, row in zip(alphas, rows):
        one = analyze(problem, SubOptimalParams(alpha), config)
        assert repr(dataclasses.astuple(row)) == repr(dataclasses.astuple(one))
    assert sum(np.size(x) for _, x, _ in states) == points
    assert len(levels) == 257 + 22


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_a_sweep_builds_one_constants(canonical, monkeypatch, mode):
    # `stack` builds the kernel's constants of every row at once; the rows'
    # trajectories build none
    built = _count_calls(monkeypatch, trajectory, "Constants")
    analyze_alphas(canonical, np.linspace(0.0, PI, 17),
                   AnalysisConfig(averaging_mode=mode))
    assert len(built) == 1


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_alphas_matches_analyze_on_general_problems(mode):
    config = AnalysisConfig(averaging_mode=mode)
    failed = 0
    for problem, _ in _general_draws(64):
        rows = _assert_rows_match(problem, np.linspace(0.0, PI, 17), config)
        failed += sum(isinstance(row, AveragingDomainError) for row in rows)
    # piecewise mode leaves its domain on some of these rows
    assert (failed > 0) == (mode == "appendix_piecewise")


@pytest.mark.parametrize("mode", AVERAGING_MODES)
def test_analyze_alphas_matches_analyze_at_pole_cases(mode):
    # each pole case's alpha first, in the middle and last of a 17-alpha
    # grid: its row meets a pole (or passes next to one) among rows that
    # do not
    config = AnalysisConfig(averaging_mode=mode)
    grid = np.linspace(0.0, PI, 17).tolist()
    built = 0
    for a, b, alpha, energy in _golden_pole_cases():
        try:
            problem = EvolutionProblem(a, b, energy=energy)
        except BlochComplexityError:
            continue
        built += 1
        _assert_rows_match(problem, [alpha, *grid[:8], alpha, *grid[8:],
                                     alpha], config)
    assert built == 30


@settings(max_examples=30, deadline=None)
@given(a=_unit_vectors, b=_unit_vectors,
       alphas=st.lists(st.floats(0.0, PI), min_size=1, max_size=6),
       mode=st.sampled_from(AVERAGING_MODES))
def test_analyze_alphas_matches_analyze_on_random_problems(a, b, alphas,
                                                           mode):
    assume(abs(a @ b) <= 0.98)
    _assert_rows_match(EvolutionProblem(a, b), alphas,
                       AnalysisConfig(averaging_mode=mode))


@pytest.mark.parametrize("stage", ("_degeneracy_kind",
                                   "complexity_from_volumes"))
def test_analyze_alphas_keeps_the_rows_around_a_failing_one(canonical,
                                                            monkeypatch,
                                                            stage):
    # a typed error injected into the sixth row, at the step that decides
    # its degeneracy (before its quadrature) or its complexity (after),
    # is that row's outcome, and every other row is its one-row value
    home = sys.modules["blochcomplexity.complexity"]
    real = getattr(home, stage)
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 6:
            raise NonPositiveVolume("synthetic failure")
        return real(*args)

    alphas = np.linspace(0.0, PI, 17)
    monkeypatch.setattr(home, stage, flaky)
    rows = analyze_alphas(canonical, alphas)
    monkeypatch.undo()
    assert isinstance(rows[5], NonPositiveVolume)
    assert str(rows[5]) == "synthetic failure"
    for alpha, row in zip(np.delete(alphas, 5), rows[:5] + rows[6:]):
        one = analyze(canonical, SubOptimalParams(alpha))
        assert row.volume.segments == one.volume.segments
        assert row.complexity == one.complexity


def test_analyze_alphas_names_each_rows_worst_panel(canonical, monkeypatch):
    # with a 4-node rule and no bisection allowed, a row whose panels miss
    # the tolerance raises QuadratureNotConverged naming the panel that its
    # own `analyze` names; the equator (alpha = pi/2), where V is linear,
    # still converges. Allowed one or two levels, the rows bisect together
    # and each open panel is still charged to its own row: at two, 6 rows
    # converge past the first level and 10 do not
    home = sys.modules["blochcomplexity.complexity"]
    nodes, weights = home._gauss_legendre(4)
    monkeypatch.setattr(home, "_NODES", nodes)
    monkeypatch.setattr(home, "_WEIGHTS", weights)
    alphas = np.linspace(0.0, PI, 17)
    for bisections, failed in ((0, 16), (1, 16), (2, 10)):
        monkeypatch.setattr(home, "MAX_BISECTIONS", bisections)
        rows = analyze_alphas(canonical, alphas)
        for alpha, row in zip(alphas, rows):
            try:
                one = analyze(canonical, SubOptimalParams(alpha))
            except QuadratureNotConverged as err:
                assert isinstance(row, QuadratureNotConverged)
                assert (str(row).split(" still has")[0]
                        == str(err).split(" still has")[0])
            else:
                assert (repr(dataclasses.astuple(row))
                        == repr(dataclasses.astuple(one)))
        assert sum(isinstance(row, QuadratureNotConverged)
                   for row in rows) == failed


def test_analyze_alphas_rejects_an_alpha_before_any_row_runs(canonical,
                                                             monkeypatch):
    calls = _count_calls(monkeypatch, trajectory, "sample_trajectory")
    with pytest.raises(ValueError, match="alpha must lie in"):
        analyze_alphas(canonical, [0.1, 0.2, 4.0])
    assert calls == []
    assert analyze_alphas(canonical, []) == []


@pytest.mark.parametrize("record, name, value", [
    (EvolutionProblem(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
     "energy", 2.0),
    (SubOptimalParams(0.3), "alpha", 0.4),
    (AnalysisConfig(), "averaging_mode", "uniform")])
def test_a_validated_input_cannot_change_after_its_check(record, name, value):
    # these records validate their fields on construction, so none of them
    # may be assigned afterwards
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, value)


def test_the_reported_records_keep_their_fields_in_order():
    # `scripts/snapshot.py` writes `dataclasses.astuple` of a report, whose
    # columns are these fields in this order
    assert {record.__name__: [field.name
                              for field in dataclasses.fields(record)]
            for record in (EvolutionReport, VolumeReport, AngularBox,
                           Trajectory)} == {
        "EvolutionReport": ["alpha", "t_ab", "s", "eta_ge", "eta_se",
                            "kappa2", "complexity", "length_scale", "volume",
                            "degeneracy_label"],
        "VolumeReport": ["v_bar", "v_max", "box", "averaging_mode",
                         "segments"],
        "AngularBox": ["theta_min", "theta_max", "phi_min", "phi_max"],
        "Trajectory": ["problem", "params", "x_b", "source", "turned",
                       "circle", "start", "arrival", "arrival_turned",
                       "polar_turns", "closest_approaches", "pole",
                       "crossing", "half_turns", "limits"]}
