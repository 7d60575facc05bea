import numpy as np
import pytest

from blochcomplexity import (EvolutionProblem, FieldVector, ParallelField,
                             SubOptimalParams, curvature_coefficient,
                             geodesic_efficiency, path_length, pauli_dot,
                             sample_trajectory, speed_efficiency,
                             suboptimal_field)
from oracles import path_length_numeric
from reference_values import (ARC_LENGTH_PI4, EFFICIENCY_TABLE,
                              TIME_LENGTH_TABLE)


def _overlap_distance(problem):
    """2*arccos|<A|B>|, the geodesic distance from the states' overlap."""
    overlap = abs(np.vdot(problem.source_state, problem.target_state))
    return 2.0 * float(np.arccos(np.clip(overlap, 0.0, 1.0)))


def test_geodesic_distance_canonical(canonical):
    assert canonical.theta_ab == pytest.approx(np.pi / 2, abs=1e-12)
    assert _overlap_distance(canonical) == pytest.approx(canonical.theta_ab,
                                                         abs=1e-12)


def test_geodesic_distance_degenerate_pairs():
    a = np.array([0.0, 1.0, 0.0])
    same = EvolutionProblem(a_hat=a, b_hat=a.copy())
    assert same.theta_ab == pytest.approx(0.0, abs=1e-7)
    assert _overlap_distance(same) == pytest.approx(same.theta_ab, abs=1e-7)
    anti = EvolutionProblem(a_hat=a, b_hat=-a)
    assert anti.theta_ab == pytest.approx(np.pi, abs=1e-7)
    assert _overlap_distance(anti) == pytest.approx(anti.theta_ab, abs=1e-7)


def test_geodesic_distance_equals_separation_angle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        p = EvolutionProblem(a_hat=a, b_hat=b)
        assert _overlap_distance(p) == pytest.approx(p.theta_ab, abs=1e-9)


def test_path_length_reference_values(canonical):
    for k, (_, s_ref) in TIME_LENGTH_TABLE.items():
        s = path_length(canonical, SubOptimalParams(k * np.pi / 16))
        assert s == pytest.approx(s_ref, abs=1e-4)


def test_path_length_alpha_zero_closed_form(canonical):
    assert path_length(canonical, SubOptimalParams(0.0)) == pytest.approx(
        np.pi / np.sqrt(2), abs=1e-12)


def test_path_length_geodesic_at_pi_half(canonical):
    s = path_length(canonical, SubOptimalParams(np.pi / 2))
    assert s == pytest.approx(canonical.theta_ab, abs=1e-12)


def test_path_length_numeric_matches_closed_form(canonical):
    for alpha in (0.0, np.pi / 16, np.pi / 4, np.pi / 2, 0.7 * np.pi):
        params = SubOptimalParams(alpha)
        traj = sample_trajectory(canonical, params, n=4097)
        numeric = path_length_numeric(traj)
        assert abs(numeric - path_length(canonical, params)) < 1e-6


def test_path_length_numeric_examples(canonical):
    params = SubOptimalParams(np.pi / 2)
    traj = sample_trajectory(canonical, params, n=4097)
    numeric = path_length_numeric(traj)
    assert numeric == pytest.approx(np.pi / 2, abs=1e-8)

    params = SubOptimalParams(np.pi / 4)
    traj = sample_trajectory(canonical, params, n=4097)
    numeric = path_length_numeric(traj)
    assert numeric == pytest.approx(1.6547, abs=1e-4)
    assert numeric == pytest.approx(ARC_LENGTH_PI4, abs=1e-7)


def test_efficiency_and_curvature_reference_values(canonical):
    # published values carry 4 decimals (and the 5*pi/16 curvature entry is
    # itself ~2e-4 off the exact closed form), so compare at 1e-3
    for k, (ge_ref, se_ref, k2_ref) in EFFICIENCY_TABLE.items():
        params = SubOptimalParams(k * np.pi / 16)
        f = suboptimal_field(canonical, params)
        assert geodesic_efficiency(canonical, params) == pytest.approx(
            ge_ref, abs=1e-3)
        assert speed_efficiency(f, canonical.a_hat) == pytest.approx(
            se_ref, abs=1e-3)
        assert curvature_coefficient(f, canonical.a_hat) == pytest.approx(
            k2_ref, abs=1e-3)


def test_optimal_field_is_perfectly_efficient(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(np.pi / 2))
    assert speed_efficiency(f, canonical.a_hat) == pytest.approx(1.0, abs=1e-15)
    assert curvature_coefficient(f, canonical.a_hat) == pytest.approx(
        0.0, abs=1e-15)
    assert geodesic_efficiency(canonical, SubOptimalParams(np.pi / 2)) == \
        pytest.approx(1.0, abs=1e-12)


def test_curvature_rejects_parallel_field(canonical):
    with pytest.raises(ParallelField):
        curvature_coefficient(FieldVector(np.array([2.0, 0.0, 0.0])),
                              canonical.a_hat)


def test_speed_efficiency_rejects_zero_field(canonical):
    with pytest.raises(ValueError):
        speed_efficiency(FieldVector(np.zeros(3)), canonical.a_hat)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 3e-6])
def test_speed_efficiency_near_a_parallel_field(eps):
    # a field eps from a: eta_se = sin(eps), although (n.a)^2 rounds close
    # to 1
    a = np.array([1.0, 0.0, 0.0])
    f = FieldVector(np.array([np.cos(eps), np.sin(eps), 0.0]))
    assert speed_efficiency(f, a) == pytest.approx(np.sin(eps), rel=1e-15,
                                                   abs=0.0)


def test_supplementary_symmetry_of_closed_forms(canonical):
    for alpha in np.linspace(0.05, np.pi / 2, 16):
        pa, pb = SubOptimalParams(alpha), SubOptimalParams(np.pi - alpha)
        fa = suboptimal_field(canonical, pa)
        fb = suboptimal_field(canonical, pb)
        assert abs(geodesic_efficiency(canonical, pa)
                   - geodesic_efficiency(canonical, pb)) < 1e-10
        assert abs(speed_efficiency(fa, canonical.a_hat)
                   - speed_efficiency(fb, canonical.a_hat)) < 1e-10
        assert abs(curvature_coefficient(fa, canonical.a_hat)
                   - curvature_coefficient(fb, canonical.a_hat)) < 1e-10


def test_monotonicity_on_first_quadrant(canonical):
    alphas = np.linspace(0.0, np.pi / 2, 64)
    ge = [geodesic_efficiency(canonical, SubOptimalParams(a)) for a in alphas]
    se, k2 = [], []
    for a in alphas:
        f = suboptimal_field(canonical, SubOptimalParams(a))
        se.append(speed_efficiency(f, canonical.a_hat))
        k2.append(curvature_coefficient(f, canonical.a_hat))
    assert np.all(np.diff(ge) > 0)
    assert np.all(np.diff(se) > 0)
    assert np.all(np.diff(k2) < 0)


def test_curvature_identity(canonical):
    # kappa^2 * h_perp^2 = 4 * h_par^2 exactly as evaluated
    for alpha in np.linspace(0.01, np.pi - 0.01, 16):
        f = suboptimal_field(canonical, SubOptimalParams(alpha))
        kappa2 = curvature_coefficient(f, canonical.a_hat)
        h_par_sq = float(f.h @ canonical.a_hat) ** 2
        h_perp_sq = float(np.sum(np.cross(f.h, canonical.a_hat) ** 2))
        assert abs(kappa2 * h_perp_sq - 4.0 * h_par_sq) < 1e-10
        assert h_par_sq + h_perp_sq == pytest.approx(
            f.magnitude ** 2, abs=1e-10)


def test_path_never_shorter_than_geodesic(canonical):
    for alpha in np.linspace(0.0, np.pi, 33):
        params = SubOptimalParams(alpha)
        s = path_length(canonical, params)
        s0 = canonical.theta_ab
        assert s >= s0 - 1e-10
        assert geodesic_efficiency(canonical, params) == pytest.approx(
            s0 / s, abs=1e-15)
        if abs(alpha - np.pi / 2) > 1e-9:
            assert s > s0 + 1e-10


def test_speed_metrics_consistency(canonical):
    # eta_se = DeltaE / |h|, with the energy uncertainty DeltaE taken from
    # the Hamiltonian matrix at the source state
    f = suboptimal_field(canonical, SubOptimalParams(0.4))
    h = pauli_dot(f.h)
    psi = canonical.source_state
    mean = np.vdot(psi, h @ psi).real
    delta_e = np.sqrt(np.vdot(psi, h @ h @ psi).real - mean ** 2)
    spectral_norm = np.max(np.abs(np.linalg.eigvalsh(h)))
    assert delta_e <= spectral_norm
    assert speed_efficiency(f, canonical.a_hat) == pytest.approx(
        delta_e / spectral_norm, abs=1e-12)
