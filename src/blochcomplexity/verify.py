"""Independent checks: a fixed-step reference integrator for the stationary
Schrodinger equation, plus symmetry and frequency-scaling harnesses that
compare full analysis reports.

The integrator is the oracle side of a dual-route check: it never calls the
closed-form propagator, so agreement between the two is evidence for both.
"""

from dataclasses import dataclass

import numpy as np

from .complexity import AnalysisConfig, analyze
from .errors import NormDrift, ScalingViolation, SymmetryViolation
from .hamiltonians import (SubOptimalParams, equatorial_problem, propagator,
                           suboptimal_field)
from .qubit import pauli_dot

DEFAULT_STEPS = 8192


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = None          # None: T / 8192
    max_norm_drift: float = 1e-10


@dataclass(frozen=True)
class CheckRecord:
    check: str
    param: str
    delta: float
    passed: bool

    def line(self):
        return f"{self.check},{self.param},{self.delta:.3e},{'pass' if self.passed else 'FAIL'}"


def integrate_schrodinger(f, psi0, total_time, cfg=None, hbar=1.0):
    """Classical 4th-order fixed-step integration of i*hbar dpsi/dt = (h.sigma) psi.

    For this linear, time-independent generator G the four Runge-Kutta stages
    collapse algebraically to one step matrix, the 4th-order Taylor polynomial

        M = 1 + dt*G + (dt*G)^2/2 + (dt*G)^3/6 + (dt*G)^4/24,

    which is applied once per step; the trajectory is identical to evaluating
    the stages explicitly. Renormalizes the result only when the norm drift
    stayed below the configured bound, and raises NormDrift otherwise.
    """
    cfg = cfg or IntegratorConfig()
    if total_time < 0.0:
        raise ValueError("integration time must be nonnegative")
    psi = np.asarray(psi0, dtype=complex).copy()
    if total_time == 0.0:
        return psi
    if cfg.dt is None:
        steps = DEFAULT_STEPS
    else:
        if cfg.dt > total_time / 1000.0:
            raise ValueError("dt too coarse: need dt <= T/1000")
        steps = max(int(round(total_time / cfg.dt)), 1000)
    dt = total_time / steps
    gen = (-1j / hbar) * pauli_dot(f.h)
    step = np.eye(2, dtype=complex)
    power = np.eye(2, dtype=complex)
    for order in range(1, 5):
        power = power @ (dt * gen)
        step = step + power / _FACTORIAL[order]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            psi = step @ psi
        norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= cfg.max_norm_drift:  # also catches NaN blow-ups
        raise NormDrift(f"norm drifted to {norm} over {steps} steps")
    return psi / norm


_FACTORIAL = {1: 1.0, 2: 2.0, 3: 6.0, 4: 24.0}


def check_supplementary_symmetry(alpha, config=None, theta_ab=np.pi / 2.0,
                                 omega=1.0, tol=1e-6):
    """Full reports at alpha and pi - alpha must agree field by field."""
    if not 0.0 < alpha < np.pi:
        raise ValueError("alpha must lie strictly inside (0, pi)")
    problem = equatorial_problem(theta_ab, energy=omega)
    config = config or AnalysisConfig()
    rep_a = analyze(problem, SubOptimalParams(alpha), config)
    rep_b = analyze(problem, SubOptimalParams(np.pi - alpha), config)
    pairs = [
        ("v_bar", rep_a.volume.v_bar, rep_b.volume.v_bar),
        ("v_max", rep_a.volume.v_max, rep_b.volume.v_max),
        ("complexity", rep_a.complexity, rep_b.complexity),
        ("length_scale", rep_a.length_scale, rep_b.length_scale),
        ("t_ab", rep_a.t_ab, rep_b.t_ab),
        ("s", rep_a.s, rep_b.s),
        ("eta_ge", rep_a.eta_ge, rep_b.eta_ge),
        ("eta_se", rep_a.eta_se, rep_b.eta_se),
        ("kappa2", rep_a.kappa2, rep_b.kappa2),
    ]
    records = [CheckRecord(check="supplementary",
                           param=f"alpha={alpha:.6g}:{name}",
                           delta=abs(x - y), passed=abs(x - y) <= tol)
               for name, x, y in pairs]
    if not all(r.passed for r in records):
        raise SymmetryViolation(
            f"supplementary-angle mismatch at alpha={alpha}", records)
    return records


def check_omega_independence(alpha, omega1, omega2, config=None,
                             theta_ab=np.pi / 2.0, vol_tol=1e-8,
                             time_tol=1e-10):
    """Volumes, complexity and length scale must not depend on omega; the
    evolution time must scale as 1/omega."""
    if omega1 <= 0.0 or omega2 <= 0.0:
        raise ValueError("frequencies must be positive")
    config = config or AnalysisConfig()
    params = SubOptimalParams(alpha)
    rep_1 = analyze(equatorial_problem(theta_ab, energy=omega1), params, config)
    rep_2 = analyze(equatorial_problem(theta_ab, energy=omega2), params, config)
    pairs = [
        ("v_bar", rep_1.volume.v_bar, rep_2.volume.v_bar),
        ("v_max", rep_1.volume.v_max, rep_2.volume.v_max),
        ("complexity", rep_1.complexity, rep_2.complexity),
        ("length_scale", rep_1.length_scale, rep_2.length_scale),
    ]
    records = [CheckRecord(check="omega_invariance",
                           param=f"alpha={alpha:.6g}:{name}",
                           delta=abs(x - y), passed=abs(x - y) <= vol_tol)
               for name, x, y in pairs]
    ratio_delta = abs(rep_1.t_ab / rep_2.t_ab - omega2 / omega1)
    records.append(CheckRecord(check="omega_invariance",
                               param=f"alpha={alpha:.6g}:time_ratio",
                               delta=ratio_delta,
                               passed=ratio_delta <= time_tol))
    if not all(r.passed for r in records):
        raise ScalingViolation(
            f"omega-scaling mismatch at alpha={alpha}", records)
    return records


def check_propagator_agreement(alphas=None, times=8, tol=1e-9):
    """Reference integrator vs closed-form propagator on an (alpha, t) grid;
    the delta is the worst per-component amplitude difference."""
    problem = equatorial_problem()
    if alphas is None:
        alphas = [k * np.pi / 16.0 for k in range(1, 17)]
    records = []
    for alpha in alphas:
        params = SubOptimalParams(alpha)
        f = suboptimal_field(problem, params)
        psi0 = problem.source_state
        worst = 0.0
        for total_time in np.linspace(0.1, 2.0, times):
            exact = propagator(f, total_time, problem.hbar) @ psi0
            numeric = integrate_schrodinger(f, psi0, total_time,
                                            hbar=problem.hbar)
            worst = max(worst, float(np.max(np.abs(exact - numeric))))
        records.append(CheckRecord(check="propagator_oracle",
                                   param=f"alpha={alpha:.6g}",
                                   delta=worst, passed=worst <= tol))
    return records


def run_verification(config=None):
    """The whole harness; returns records for line-oriented reporting."""
    records = []
    records.extend(check_propagator_agreement())
    for k in range(1, 8):
        try:
            records.extend(check_supplementary_symmetry(k * np.pi / 16.0,
                                                        config))
        except SymmetryViolation as err:
            records.extend(err.records)
    for omega_pair in ((1.0, 2.0), (1.0, 3.7), (0.5, 5.0)):
        try:
            records.extend(check_omega_independence(np.pi / 4.0,
                                                    *omega_pair, config))
        except ScalingViolation as err:
            records.extend(err.records)
    return records
