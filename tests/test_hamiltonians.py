import numpy as np
import pytest

from blochcomplexity import (DegenerateGeometry, EvolutionProblem,
                             FieldVector, SubOptimalParams, equatorial_problem,
                             evolution_time, integrate_schrodinger,
                             path_length, propagator, suboptimal_field)
from oracles import amplitudes
from reference_values import (RK4_C0_PI16_T05, RK4_C1_PI16_T05,
                              TIME_LENGTH_TABLE)

ALPHA_GRID = [k * np.pi / 16 for k in range(0, 17)]
THETA_GRID = [k * np.pi / 9 for k in range(1, 9)]
# the family member at alpha = pi/2 is the time-optimal rotation-axis field
OPTIMAL = SubOptimalParams(np.pi / 2)


def test_problem_recomputes_and_validates_theta():
    p = equatorial_problem()
    assert p.theta_ab == pytest.approx(np.pi / 2, abs=1e-15)
    # theta_ab is derived, never supplied
    with pytest.raises(TypeError):
        EvolutionProblem(a_hat=np.array([1.0, 0, 0]),
                         b_hat=np.array([0.0, 1, 0]),
                         theta_ab=np.pi / 2)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", ["energy", "hbar"])
def test_problem_rejects_nonpositive_or_nonfinite_scale(name, value):
    with pytest.raises(ValueError, match=name):
        EvolutionProblem(a_hat=np.array([1.0, 0, 0]),
                         b_hat=np.array([0.0, 1, 0]), **{name: value})


def test_problem_states_are_computed_once_and_read_only():
    problem = equatorial_problem()
    for name in ("source_state", "target_state"):
        state = getattr(problem, name)
        assert getattr(problem, name) is state
        with pytest.raises(ValueError):
            state[0] = 0.0


def test_problem_rejects_nonunit_vectors():
    with pytest.raises(ValueError):
        EvolutionProblem(a_hat=np.array([2.0, 0, 0]),
                         b_hat=np.array([0.0, 1, 0]))
    with pytest.raises(ValueError, match="a_hat"):
        EvolutionProblem(a_hat=np.array([np.nan, 0, 0]),
                         b_hat=np.array([0.0, 1, 0]))


@pytest.mark.parametrize("theta_ab", [0.0, -0.5, np.pi, 4.0])
def test_equatorial_problem_rejects_separation_outside_open_interval(theta_ab):
    with pytest.raises(ValueError, match="strictly inside"):
        equatorial_problem(theta_ab)


def test_suboptimal_params_range():
    SubOptimalParams(0.0)
    SubOptimalParams(np.pi)
    with pytest.raises(ValueError):
        SubOptimalParams(-0.1)
    with pytest.raises(ValueError):
        SubOptimalParams(np.pi + 0.1)


def test_optimal_field_canonical(canonical):
    f = suboptimal_field(canonical, OPTIMAL)
    assert np.allclose(f.h, [0, 0, 1], atol=1e-15)


def test_optimal_field_degenerate_raises():
    a = np.array([1.0, 0, 0])
    with pytest.raises(DegenerateGeometry):
        suboptimal_field(EvolutionProblem(a_hat=a, b_hat=a), OPTIMAL)


def test_optimal_field_oblique_pair():
    # cross product checked by hand: x-hat x (x+y)/sqrt2 = z/sqrt2, sin = 1/sqrt2
    p = EvolutionProblem(a_hat=np.array([1.0, 0, 0]),
                         b_hat=np.array([1.0, 1.0, 0]) / np.sqrt(2), energy=2.0)
    assert np.allclose(suboptimal_field(p, OPTIMAL).h, [0, 0, 2.0], atol=1e-15)


def test_optimal_field_orthogonal_to_endpoints():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        p = EvolutionProblem(a_hat=a, b_hat=b, energy=1.7)
        f = suboptimal_field(p, OPTIMAL)
        assert abs(f.h @ a) < 1e-12
        assert abs(f.h @ b) < 1e-12
        assert f.magnitude == pytest.approx(1.7, abs=1e-12)


def test_suboptimal_field_reduces_to_optimal(canonical):
    # E (a x b)/|a x b|, the rotation-axis field
    axis = np.cross(canonical.a_hat, canonical.b_hat)
    f_opt = canonical.energy * axis / np.linalg.norm(axis)
    f_sub = suboptimal_field(canonical, OPTIMAL)
    assert np.allclose(f_sub.h, f_opt, atol=1e-12)


def test_suboptimal_field_examples(canonical):
    f0 = suboptimal_field(canonical, SubOptimalParams(0.0))
    assert np.allclose(f0.h, np.array([1.0, 1.0, 0.0]) / np.sqrt(2), atol=1e-15)
    f4 = suboptimal_field(canonical, SubOptimalParams(np.pi / 4))
    assert np.allclose(f4.h, [0.5, 0.5, 1 / np.sqrt(2)], atol=1e-15)
    assert f4.magnitude == pytest.approx(1.0, abs=1e-15)


def test_field_magnitude_is_energy_on_grid():
    # magnitude E for every (theta_AB, alpha) pair on an 8 x 16 grid
    for theta_ab in THETA_GRID:
        p = equatorial_problem(theta_ab, energy=2.5)
        for alpha in ALPHA_GRID:
            f = suboptimal_field(p, SubOptimalParams(alpha))
            assert abs(f.magnitude - 2.5) < 1e-12


@pytest.mark.parametrize("energy", [1e-300, 1e300])
def test_field_magnitude_and_direction_at_extreme_energies(energy):
    # squaring the components would underflow to 0 or overflow to inf
    p = equatorial_problem(energy=energy)
    for alpha in ALPHA_GRID:
        f = suboptimal_field(p, SubOptimalParams(alpha))
        unit = suboptimal_field(equatorial_problem(), SubOptimalParams(alpha))
        assert f.magnitude == pytest.approx(energy, rel=1e-12)
        assert np.allclose(f.direction, unit.direction, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("h", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                               [1.0, 0.0], [[1.0, 0.0, 0.0]]],
                         ids=["nan", "inf", "short", "nested"])
def test_field_rejects_nonfinite_or_misshapen_input(h):
    with pytest.raises(ValueError, match="finite 3-vector"):
        FieldVector(np.array(h))


def test_field_keeps_its_own_read_only_copy():
    h = np.array([0.0, 3.0, 4.0])
    f = FieldVector(h)
    direction = f.direction
    assert f.direction is direction and f.magnitude == 5.0
    h[:] = [1.0, 0.0, 0.0]  # the caller's array, written after construction
    assert np.array_equal(f.h, [0.0, 3.0, 4.0])
    assert np.array_equal(f.direction, [0.0, 0.6, 0.8])
    assert f.magnitude == 5.0
    for frozen in (f.h, f.direction):
        with pytest.raises(ValueError):
            frozen[0] = 1.0


def test_propagator_identity_and_unitarity(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(0.3))
    assert np.allclose(propagator(f, 0.0), np.eye(2), atol=1e-15)
    for alpha in ALPHA_GRID:
        f = suboptimal_field(canonical, SubOptimalParams(alpha))
        for t in np.linspace(0.1, 3.0, 8):
            u = propagator(f, t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_propagator_rejects_negative_time(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(0.3))
    with pytest.raises(ValueError, match="nonnegative"):
        propagator(f, -0.1)


def test_propagator_semigroup(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(1.1))
    u1 = propagator(f, 0.4)
    u2 = propagator(f, 0.9)
    assert np.allclose(u1 @ u2, propagator(f, 1.3), atol=1e-10)


def test_propagator_reaches_target_at_optimal_time(canonical):
    f = suboptimal_field(canonical, OPTIMAL)
    u = propagator(f, np.pi / 4)
    final = u @ canonical.source_state
    overlap = abs(np.vdot(canonical.target_state, final))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_propagator_entries_match_canonical_closed_form(canonical):
    # entry pattern for the equatorial problem:
    #   U = [[cos wt - i sin(a) sin wt,  -(cos a)(1+i) sin wt / sqrt2],
    #        [ (cos a)(1-i) sin wt / sqrt2,  cos wt + i sin(a) sin wt]]
    for alpha in (0.0, np.pi / 16, np.pi / 3, np.pi / 2, 0.9 * np.pi):
        f = suboptimal_field(canonical, SubOptimalParams(alpha))
        for t in (0.2, 0.7, 1.3):
            u = propagator(f, t)
            c, s = np.cos(t), np.sin(t)
            expected = np.array([
                [c - 1j * np.sin(alpha) * s,
                 -np.cos(alpha) / np.sqrt(2) * (1 + 1j) * s],
                [np.cos(alpha) / np.sqrt(2) * (1 - 1j) * s,
                 c + 1j * np.sin(alpha) * s]])
            assert np.allclose(u, expected, atol=1e-12)


def test_propagator_rejects_zero_field():
    with pytest.raises(ValueError):
        propagator(FieldVector(np.zeros(3)), 1.0)


def test_evolution_time_reference_values(canonical):
    for k, (t_ref, _) in TIME_LENGTH_TABLE.items():
        t = evolution_time(canonical, SubOptimalParams(k * np.pi / 16))
        assert t == pytest.approx(t_ref, abs=1e-4)


def test_evolution_time_supplementary_symmetry(canonical):
    for alpha in np.linspace(0.05, np.pi / 2, 16):
        t1 = evolution_time(canonical, SubOptimalParams(alpha))
        t2 = evolution_time(canonical, SubOptimalParams(np.pi - alpha))
        assert t1 == pytest.approx(t2, abs=1e-12)


@pytest.mark.parametrize("theta_ab", [1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.5, 1.5,
                                      2.5, np.pi - 1e-3])
@pytest.mark.parametrize("energy", [1.0, 37.0])
def test_geodesic_time_and_length_at_every_separation(theta_ab, energy):
    # alpha = pi/2: t_ab = hbar theta_AB / (2E) and s = theta_AB, to rounding
    problem = equatorial_problem(theta_ab, energy=energy)
    params = SubOptimalParams(np.pi / 2)
    assert evolution_time(problem, params) == pytest.approx(
        problem.theta_ab / (2.0 * energy), rel=1e-15, abs=0.0)
    assert path_length(problem, params) == pytest.approx(
        problem.theta_ab, rel=1e-15, abs=0.0)


def test_propagator_arrives_for_all_alpha(canonical):
    # |<B|U(t_AB)|A>| = 1 across the family
    for alpha in ALPHA_GRID[1:-1]:
        params = SubOptimalParams(alpha)
        f = suboptimal_field(canonical, params)
        u = propagator(f, evolution_time(canonical, params))
        overlap = abs(np.vdot(canonical.target_state, u @ canonical.source_state))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_amplitudes_initial_state(canonical):
    c = amplitudes(canonical, SubOptimalParams(0.7), 0.0)
    assert np.allclose(c, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-15)


def test_amplitudes_optimal_limit(canonical):
    # alpha -> pi/2: c0 = exp(-i w t)/sqrt2, c1 = exp(+i w t)/sqrt2
    for t in np.linspace(0.0, np.pi / 4, 7):
        c = amplitudes(canonical, SubOptimalParams(np.pi / 2), t)
        assert c[0] == pytest.approx(np.exp(-1j * t) / np.sqrt(2), abs=1e-12)
        assert c[1] == pytest.approx(np.exp(+1j * t) / np.sqrt(2), abs=1e-12)


def test_amplitudes_against_frozen_rk4_state(canonical, oracle_gate):
    c = amplitudes(canonical, SubOptimalParams(np.pi / 16), 0.5)
    assert abs(c[0] - RK4_C0_PI16_T05) < 1e-9
    assert abs(c[1] - RK4_C1_PI16_T05) < 1e-9


def test_amplitudes_against_live_integrator(canonical):
    params = SubOptimalParams(np.pi / 16)
    f = suboptimal_field(canonical, params)
    numeric = integrate_schrodinger(f, canonical.source_state, 0.5)
    exact = amplitudes(canonical, params, 0.5)
    assert np.max(np.abs(numeric - exact)) < 1e-9


def test_amplitudes_closed_form_components(canonical):
    # real/imaginary parts of both amplitudes for the equatorial problem
    for alpha in (0.0, np.pi / 16, 1.1, np.pi / 2, 2.8):
        ca, sa = np.cos(alpha), np.sin(alpha)
        for t in (0.15, 0.8, 1.25):
            c = amplitudes(canonical, SubOptimalParams(alpha), t)
            ct, st = np.cos(t), np.sin(t)
            c0 = (ct / np.sqrt(2) - ca * st / 2) + 1j * (-ca * st / 2 - sa * st / np.sqrt(2))
            c1 = (ct / np.sqrt(2) + ca * st / 2) + 1j * (-ca * st / 2 + sa * st / np.sqrt(2))
            assert c[0] == pytest.approx(c0, abs=1e-12)
            assert c[1] == pytest.approx(c1, abs=1e-12)


def test_amplitudes_norm_preserved(canonical):
    for alpha in ALPHA_GRID:
        params = SubOptimalParams(alpha)
        for t in np.linspace(0.0, evolution_time(canonical, params), 9):
            c = amplitudes(canonical, params, t)
            assert abs(np.linalg.norm(c) - 1.0) < 1e-12
