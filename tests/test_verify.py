import numpy as np
import pytest

from blochcomplexity import (NormDrift, SubOptimalParams,
                             check_omega_independence,
                             check_propagator_agreement,
                             check_supplementary_symmetry, evolution_time,
                             integrate_schrodinger, propagator,
                             run_verification, suboptimal_field)
from blochcomplexity.hamiltonians import FieldVector
from reference_values import ARRIVAL_TIME_PI16


def test_zero_time_returns_initial_state(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(0.3))
    psi = integrate_schrodinger(f, canonical.source_state, 0.0)
    assert np.array_equal(psi, canonical.source_state)


def test_integrator_rejects_negative_time(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(0.3))
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_schrodinger(f, canonical.source_state, -0.1)


def test_integrator_matches_propagator_componentwise(canonical):
    f = suboptimal_field(canonical, SubOptimalParams(np.pi / 2))
    numeric = integrate_schrodinger(f, canonical.source_state, np.pi / 4)
    exact = propagator(f, np.pi / 4) @ canonical.source_state
    assert np.max(np.abs(numeric - exact)) < 1e-9


def test_integrator_confirms_arrival_time(canonical):
    params = SubOptimalParams(np.pi / 16)
    f = suboptimal_field(canonical, params)
    t_ab = evolution_time(canonical, params)
    assert t_ab == pytest.approx(ARRIVAL_TIME_PI16, abs=1e-12)
    psi = integrate_schrodinger(f, canonical.source_state, t_ab)
    overlap = abs(np.vdot(canonical.target_state, psi))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_integrator_norm_drift_is_tiny(canonical):
    # explicit four-stage stepping: the raw (pre-renormalization) norm drift
    # over a long horizon stays below the 1e-10 bound
    f = suboptimal_field(canonical, SubOptimalParams(1.0))
    psi = canonical.source_state.copy()
    steps, total = 8192, 2.0
    dt = total / steps
    gen = -1j * np.array([[f.h[2], f.h[0] - 1j * f.h[1]],
                          [f.h[0] + 1j * f.h[1], -f.h[2]]])
    for _ in range(steps):
        k1 = gen @ psi
        k2 = gen @ (psi + 0.5 * dt * k1)
        k3 = gen @ (psi + 0.5 * dt * k2)
        k4 = gen @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
    # and the packaged integrator follows the same path
    packaged = integrate_schrodinger(f, canonical.source_state, total)
    assert np.max(np.abs(packaged - psi / np.linalg.norm(psi))) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrator_raises_on_norm_drift(canonical):
    # a huge field magnitude makes the fixed step far too coarse:
    # |h| dt = 5e5 / 8192 = 61
    f = FieldVector(np.array([0.0, 0.0, 5e5]))
    with pytest.raises(NormDrift):
        integrate_schrodinger(f, canonical.source_state, 1.0)


def test_propagator_agreement_grid():
    records = check_propagator_agreement(times=8)
    assert len(records) == 16
    assert all(r.passed for r in records)
    assert max(r.delta for r in records) < 1e-9


def test_supplementary_symmetry_checks():
    for alpha in (np.pi / 16, np.pi / 4, np.pi / 2 - 0.01):
        records = check_supplementary_symmetry(alpha)
        assert all(r.passed for r in records)
        names = {r.param.split(":")[1] for r in records}
        assert names == {"v_bar", "v_max", "complexity", "length_scale",
                         "t_ab", "s", "eta_ge", "eta_se", "kappa2"}


def test_supplementary_symmetry_self_pair_trivial():
    records = check_supplementary_symmetry(np.pi / 2)
    assert all(r.delta == 0.0 for r in records)


def test_omega_independence_checks():
    for alpha, pair in ((np.pi / 16, (1.0, 2.0)),
                        (np.pi / 4, (1.0, 3.7)),
                        (np.pi / 2, (0.5, 5.0))):
        records = check_omega_independence(alpha, *pair)
        assert all(r.passed for r in records)
        ratio = [r for r in records if r.param.endswith("time_ratio")]
        assert len(ratio) == 1 and ratio[0].delta < 1e-10


def test_run_verification_all_green():
    records = run_verification()
    assert records and all(r.passed for r in records)
    line = records[0].line()
    assert line.count(",") == 3 and line.endswith("pass")


def test_check_input_validation():
    with pytest.raises(ValueError):
        check_supplementary_symmetry(0.0)
    with pytest.raises(ValueError):
        check_omega_independence(np.pi / 4, -1.0, 2.0)
