import numpy as np
import pytest

from blochcomplexity import (DegenerateGeometry, EvolutionProblem,
                             FieldVector, SubOptimalParams,
                             equatorial_problem, integrate_schrodinger,
                             path_length, propagator, sample_trajectory,
                             suboptimal_field)
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


@pytest.mark.parametrize("energy", [0.0, -1.0, np.nan, np.inf, 5e-324,
                                    1e-310, 1e301, 1e308])
def test_problem_rejects_energy_outside_the_supported_range(energy):
    # beyond [1e-300, 1e300] the arrival time x_b / (2E) can overflow, and a
    # subnormal E leaves the field h = E n without a reliable direction
    with pytest.raises(ValueError, match="^energy must lie in"):
        EvolutionProblem(a_hat=np.array([1.0, 0, 0]),
                         b_hat=np.array([0.0, 1, 0]), energy=energy)


@pytest.mark.parametrize("energy", [1e-300, 1e300])
def test_problem_accepts_the_ends_of_the_energy_range(energy):
    p = equatorial_problem(energy=energy)
    assert p.energy == energy
    assert 0.0 < sample_trajectory(p, SubOptimalParams(0.3)).t_b < np.inf


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
    # a parallel or antiparallel pair is rejected where it is built, before
    # any field is asked of it
    a = np.array([1.0, 0, 0])
    for b in (a, -a):
        with pytest.raises(DegenerateGeometry, match="anti"):
            EvolutionProblem(a_hat=a, b_hat=b)


def test_near_antipodal_pair_without_a_bisector_raises():
    # sin(theta_AB) = 1.0002e-12 passes the (anti)parallel check, but the
    # rounded |a + b| = 9.99998e-13 leaves no bisector to mix the axis with,
    # whatever the mixing angle
    a = np.array([-0.40499928034712485, 0.19483031443833962,
                  -0.8933178222190402])
    b = np.array([0.40499928034621474, -0.19483031443851911,
                  0.8933178222194137])
    with pytest.raises(DegenerateGeometry, match="bisector undefined"):
        EvolutionProblem(a, b)


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
        assert f.magnitude == pytest.approx(energy, rel=1e-12, abs=0)
        assert np.allclose(f.direction, unit.direction, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("h", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                               [1.0, 0.0], [[1.0, 0.0, 0.0]],
                               [-np.inf, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                               3.0, [[np.nan]]],
                         ids=["nan", "inf", "short", "nested", "-inf", "long",
                              "scalar", "nested-nan"])
def test_field_rejects_nonfinite_or_misshapen_input(h):
    with pytest.raises(ValueError, match="^field must be a finite 3-vector$"):
        FieldVector(np.array(h))


@pytest.mark.parametrize("name", ["a_hat", "b_hat"])
@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0],
                                 [0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.1, 0.0]],
                         ids=["nan", "-inf", "short", "zero", "non-unit"])
def test_problem_names_the_vector_it_rejects(name, bad):
    vectors = {"a_hat": np.array([1.0, 0.0, 0.0]),
               "b_hat": np.array([0.0, 0.0, 1.0])}
    vectors[name] = np.array(bad)
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        EvolutionProblem(**vectors)


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


@pytest.mark.parametrize("build", [
    equatorial_problem,
    lambda: sample_trajectory(equatorial_problem(), SubOptimalParams(0.3)),
    lambda: FieldVector(np.array([0.0, 3.0, 4.0])),
], ids=["problem", "trajectory", "field"])
def test_records_compare_and_hash_by_identity(build):
    # each record holds arrays, whose == has no single truth value; the
    # records compare as objects instead of raising
    first, second = build(), build()
    assert (first == second) is False and first != second
    assert first == first
    # keying a dict hashes both
    assert {first: 1, second: 2}[second] == 2


def test_propagator_identity_and_unitarity(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(0.3))
    assert np.allclose(propagator(f, 0.0), np.eye(2), atol=1e-15)
    for alpha in ALPHA_GRID:
        f = suboptimal_field(canonical, SubOptimalParams(alpha))
        for t in np.linspace(0.1, 3.0, 8):
            u = propagator(f, t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("h", [np.zeros(3), np.array([-0.0, 0.0, -0.0])])
def test_field_rejects_zero_at_construction(h):
    with pytest.raises(ValueError, match="^zero field has no direction$"):
        FieldVector(h)


def test_evolution_time_reference_values(canonical):
    for k, (t_ref, _) in TIME_LENGTH_TABLE.items():
        params = SubOptimalParams(k * np.pi / 16)
        t = sample_trajectory(canonical, params).t_b
        assert t == pytest.approx(t_ref, abs=1e-4)


def test_evolution_time_supplementary_symmetry(canonical):
    for alpha in np.linspace(0.05, np.pi / 2, 16):
        t1 = sample_trajectory(canonical, SubOptimalParams(alpha)).t_b
        t2 = sample_trajectory(canonical,
                               SubOptimalParams(np.pi - alpha)).t_b
        assert t1 == pytest.approx(t2, abs=1e-12)


@pytest.mark.parametrize("theta_ab", [1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.5, 1.5,
                                      2.5, np.pi - 1e-3])
@pytest.mark.parametrize("energy", [1.0, 37.0])
def test_geodesic_time_and_length_at_every_separation(theta_ab, energy):
    # alpha = pi/2: t_ab = theta_AB / (2E) and s = theta_AB, to rounding
    problem = equatorial_problem(theta_ab, energy=energy)
    params = SubOptimalParams(np.pi / 2)
    assert sample_trajectory(problem, params).t_b == pytest.approx(
        problem.theta_ab / (2.0 * energy), rel=1e-15, abs=0.0)
    assert path_length(problem, params) == pytest.approx(
        problem.theta_ab, rel=1e-15, abs=0.0)


def test_propagator_arrives_for_all_alpha(canonical):
    # |<B|U(t_AB)|A>| = 1 across the family
    for alpha in ALPHA_GRID[1:-1]:
        params = SubOptimalParams(alpha)
        f = suboptimal_field(canonical, params)
        u = propagator(f, sample_trajectory(canonical, params).t_b)
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
        t_b = sample_trajectory(canonical, params).t_b
        for t in np.linspace(0.0, t_b, 9):
            c = amplitudes(canonical, params, t)
            assert abs(np.linalg.norm(c) - 1.0) < 1e-12
