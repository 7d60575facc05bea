import io

import numpy as np
import pytest

from blochcomplexity import (EvolutionProblem, SubOptimalParams,
                             bloch_angles, equatorial_problem, propagator,
                             sample_trajectory, suboptimal_field,
                             write_trajectory_csv)
from oracles import amplitudes
from reference_values import (ARRIVAL_TIME_PI16, THETA_MAX_PI16,
                              THETA_MIN_15PI16)

SQ2 = np.sqrt(2.0)


def polar_angle(state):
    return float(bloch_angles(state)[0])


def azimuth_raw(state):
    return float(bloch_angles(state)[1])


def test_polar_angle_basics():
    assert polar_angle(np.array([1.0, 0.0])) == 0.0
    assert polar_angle(np.array([0.0, 1.0])) == pytest.approx(np.pi)
    equal = np.array([1.0, 1.0j]) / SQ2
    assert polar_angle(equal) == pytest.approx(np.pi / 2, abs=1e-15)


def test_polar_angle_midtime_value(canonical, oracle_gate):
    state = amplitudes(canonical, SubOptimalParams(np.pi / 16),
                       ARRIVAL_TIME_PI16 / 2)
    assert polar_angle(state) == pytest.approx(THETA_MAX_PI16, abs=1e-10)
    assert polar_angle(state) == pytest.approx(2.1789, abs=1e-4)


def test_azimuth_raw_examples():
    assert azimuth_raw(np.array([1.0, 1.0]) / SQ2) == pytest.approx(0.0)
    assert azimuth_raw(np.array([1.0, 1.0j]) / SQ2) == pytest.approx(np.pi / 2)
    assert azimuth_raw(np.array([1.0, -1.0]) / SQ2) == pytest.approx(np.pi)


def test_azimuth_raw_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = rng.normal(size=2) + 1j * rng.normal(size=2)
        state /= np.linalg.norm(state)
        val = azimuth_raw(state)
        assert -np.pi < val <= np.pi


def test_azimuth_raw_reduces_to_arctan_difference():
    # when both real parts are positive the principal arctangent splits
    rng = np.random.default_rng(9)
    for _ in range(50):
        state = np.abs(rng.normal(size=2)) + 1j * rng.normal(size=2)
        state /= np.linalg.norm(state)
        expected = (np.arctan(state[1].imag / state[1].real)
                    - np.arctan(state[0].imag / state[0].real))
        assert azimuth_raw(state) == pytest.approx(expected, abs=1e-12)


def test_sample_trajectory_rejects_small_n(canonical):
    with pytest.raises(ValueError):
        sample_trajectory(canonical, SubOptimalParams(0.5), n=10)


def test_optimal_trajectory_is_equatorial(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(np.pi / 2), n=4097)
    theta, phi = traj.angles_at(traj.t)
    assert np.max(np.abs(theta - np.pi / 2)) < 1e-10
    # phi grows as 2 w t along the parallel
    assert np.allclose(phi, 2.0 * traj.t, atol=1e-10)


def test_trajectory_angles_pi16(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(np.pi / 16), n=4097)
    theta, _ = traj.angles_at(traj.t)
    assert theta[0] == pytest.approx(np.pi / 2, abs=1e-10)
    assert theta[-1] == pytest.approx(np.pi / 2, abs=1e-10)
    assert np.max(theta) == pytest.approx(THETA_MAX_PI16, abs=1e-6)
    assert traj.t[-1] == pytest.approx(ARRIVAL_TIME_PI16, abs=1e-12)


def test_trajectory_angles_15pi16(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(15 * np.pi / 16),
                             n=4097)
    theta, _ = traj.angles_at(traj.t)
    assert np.min(theta) == pytest.approx(THETA_MIN_15PI16, abs=1e-6)
    assert np.max(theta) == pytest.approx(np.pi / 2, abs=1e-10)


def test_trajectory_endpoints_for_all_alpha(canonical):
    for k in range(0, 17):
        traj = sample_trajectory(canonical, SubOptimalParams(k * np.pi / 16),
                                 n=2049)
        theta, phi = traj.angles_at(traj.t)
        assert theta[0] == pytest.approx(np.pi / 2, abs=1e-10)
        assert abs(phi[0]) < 1e-10
        assert phi[-1] == pytest.approx(np.pi / 2, abs=1e-8)


def test_unwrapped_azimuth_matches_piecewise_arctan_construction(canonical):
    # independent construction of the continuous azimuth: principal-arctangent
    # difference of the amplitude component ratios, plus pi on the segment
    # beyond the branch instant where Re c0 changes sign
    traj = sample_trajectory(canonical, SubOptimalParams(np.pi / 16), n=4097)
    c0 = traj.states[:, 0]
    c1 = traj.states[:, 1]
    arctan_based = (np.arctan(c1.imag / c1.real)
                    - np.arctan(c0.imag / c0.real))
    from reference_values import BRANCH_TIME_PI16
    expected = arctan_based + np.where(traj.t >= BRANCH_TIME_PI16, np.pi, 0.0)
    assert np.max(np.abs(traj.angles_at(traj.t)[1] - expected)) < 1e-9


def test_mirror_symmetry_of_polar_angle(canonical):
    # theta_alpha(t) + theta_{pi-alpha}(t) = pi on matched grids
    for alpha in (np.pi / 16, np.pi / 5, 0.45 * np.pi):
        t1 = sample_trajectory(canonical, SubOptimalParams(alpha), n=2049)
        t2 = sample_trajectory(canonical, SubOptimalParams(np.pi - alpha),
                               n=2049)
        assert np.allclose(t1.angles_at(t1.t)[0] + t2.angles_at(t2.t)[0],
                           np.pi, atol=1e-8)


def test_angular_speed_matches_energy_uncertainty(canonical):
    # finite-difference Bloch angular speed sqrt(theta'^2 + sin^2 theta phi'^2)
    # is constant and equals 2*DeltaE/hbar for a stationary drive
    for alpha in (np.pi / 16, np.pi / 3, np.pi / 2, 0.8 * np.pi):
        params = SubOptimalParams(alpha)
        traj = sample_trajectory(canonical, params, n=4097)
        f = suboptimal_field(canonical, params)
        dt = traj.t[1] - traj.t[0]
        theta, phi = traj.angles_at(traj.t)
        dtheta = np.gradient(theta, dt)
        dphi = np.gradient(phi, dt)
        speed = np.sqrt(dtheta ** 2 + np.sin(theta) ** 2 * dphi ** 2)
        expected = 2.0 * np.sqrt(f.magnitude ** 2
                                 - float(f.h @ canonical.a_hat) ** 2)
        # central differences are O(dt^2); skip the one-sided end samples
        inner = speed[1:-1]
        assert np.max(np.abs(inner - expected)) / expected < 1e-6


def test_csv_dump_format(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(np.pi / 2), n=2049)
    buffer = io.StringIO()
    write_trajectory_csv(traj, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,theta,phi,re_c0,im_c0,re_c1,im_c1"
    assert len(lines) == 2050
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(1 / SQ2, abs=1e-12)
    # 12 significant digits
    assert first[1] == f"{np.pi / 2:.12g}"


@pytest.mark.parametrize("b", ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, -1.0, 0.0]), ids=("y", "x", "-y"))
@pytest.mark.parametrize("alpha", (0.3, 1.2, 2.0))
def test_csv_rows_inside_a_pole_cap_hold_the_rim_azimuth(b, alpha):
    # a source at the north pole has no azimuth of its own: the first row
    # carries the azimuth of the direction n x a that the trajectory departs
    # along
    a = np.array([0.0, 0.0, 1.0])
    problem = EvolutionProblem(a, np.array(b))
    traj = sample_trajectory(problem, SubOptimalParams(alpha), n=2049)
    buffer = io.StringIO()
    write_trajectory_csv(traj, buffer)
    first = buffer.getvalue().splitlines()[1].split(",")
    departure = np.cross(suboptimal_field(problem, SubOptimalParams(alpha))
                         .direction, a)
    assert first[2] == f"{np.arctan2(departure[1], departure[0]):.12g}"


def test_trajectory_time_grid(canonical):
    traj = sample_trajectory(canonical, SubOptimalParams(0.9), n=2049)
    assert traj.n_samples == 2049
    assert traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0)


@pytest.mark.parametrize("theta_ab", [1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.5, 1.5,
                                      2.5, np.pi - 1e-3])
@pytest.mark.parametrize("energy", [1.0, 37.0])
def test_final_state_is_the_target(theta_ab, energy):
    # the arrival time is exact at every separation: the Bloch vector
    # (2 Re c0* c1, 2 Im c0* c1, |c0|^2 - |c1|^2) at t_b is b
    problem = equatorial_problem(theta_ab, energy=energy)
    for k in range(17):
        traj = sample_trajectory(problem, SubOptimalParams(k * np.pi / 16),
                                 n=2049)
        c0, c1 = traj.states_at(traj.t_b)
        r = np.array([2.0 * (np.conj(c0) * c1).real,
                      2.0 * (np.conj(c0) * c1).imag,
                      abs(c0) ** 2 - abs(c1) ** 2])
        assert np.abs(r - problem.b_hat).max() <= 1e-13


def test_states_at_sample_times_is_the_samples(canonical):
    for alpha in (0.0, np.pi / 16, np.pi / 2, 0.8 * np.pi):
        traj = sample_trajectory(canonical, SubOptimalParams(alpha), n=2049)
        assert np.array_equal(traj.states_at(traj.t), traj.states)


def _random_problem(rng):
    while True:
        a, b = rng.normal(size=(2, 3))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        if abs(a @ b) < 0.98:
            return EvolutionProblem(a, b, energy=rng.uniform(0.5, 5.0),
                                    hbar=rng.uniform(0.5, 2.0))


def test_states_at_matches_propagator(canonical):
    # the vector form cos(wt) psi0 - i sin(wt) (n.sigma) psi0 against the
    # matrix route, on the field the problem defines
    rng = np.random.default_rng(11)
    problems = [canonical] + [_random_problem(rng) for _ in range(6)]
    for problem in problems:
        params = SubOptimalParams(rng.uniform(0.0, np.pi))
        traj = sample_trajectory(problem, params, n=2049)
        assert np.array_equal(traj.field.h,
                              suboptimal_field(problem, params).h)
        times = rng.uniform(0.0, traj.t_b, 16)
        batch = traj.states_at(times)
        for k, t in enumerate(times):
            expected = (propagator(traj.field, t, problem.hbar)
                        @ problem.source_state)
            assert np.max(np.abs(traj.states_at(t) - expected)) < 1e-12
            assert np.max(np.abs(batch[k] - expected)) < 1e-12
