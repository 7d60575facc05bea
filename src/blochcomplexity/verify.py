"""Independent checks: a fixed-step reference integrator for the stationary
Schrodinger equation, plus symmetry and frequency-scaling harnesses that
compare full analysis reports.

The integrator is the oracle side of a dual-route check: it never reads
the closed-form states, and the check compares it with the states that the
reports read (`Trajectory.states_at`), so agreement between the two is
evidence for both.
It applies its one step matrix STEPS times, one step at a time, on the two
amplitudes held as Python complex scalars: a 2x2 numpy product per step
costs far more in call overhead than in arithmetic. The steps are not
squared into one matrix power: that changes the oracle's rounding (a gap
to the closed form of 1.3e-13 instead of 3e-15), and makes the call so
cheap that the oracle benchmark's per-op records, not the program, set its
memory figure. Every check returns one `CheckRecord` per compared
quantity, passing or not, against a fixed tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .complexity import analyze
from .errors import NormDrift
from .hamiltonians import (SubOptimalParams, equatorial_problem,
                           suboptimal_field)
from .qubit import pauli_dot
from .trajectory import sample_trajectory

STEPS = 8192
MAX_NORM_DRIFT = 1e-10

# tolerances of the three checks
PROPAGATOR_TOL = 1e-9    # worst amplitude gap, integrator vs closed form
SYMMETRY_TOL = 1e-6      # report fields at alpha against pi - alpha
VOLUME_TOL = 1e-8        # volumes, complexity and length scale across omega
TIME_RATIO_TOL = 1e-10   # t_ab(omega1)/t_ab(omega2) against omega2/omega1


@dataclass(frozen=True)
class CheckRecord:
    check: str
    param: str
    delta: float
    passed: bool

    def line(self):
        return f"{self.check},{self.param},{self.delta:.3e},{'pass' if self.passed else 'FAIL'}"


def integrate_schrodinger(f, psi0, total_time):
    """Classical 4th-order integration of i dpsi/dt = (h.sigma) psi in
    STEPS fixed steps.

    For this linear, time-independent generator G the four Runge-Kutta stages
    collapse algebraically to one step matrix, the 4th-order Taylor polynomial

        M = 1 + dt*G + (dt*G)^2/2 + (dt*G)^3/6 + (dt*G)^4/24,

    which is applied once per step; the trajectory is identical to evaluating
    the stages explicitly. M and the state are unpacked once into Python
    complex scalars, each of the STEPS steps is two scalar rows of M, and
    the result array is built once, after the last step; squaring M into
    one matrix power would change the rounding, not the method.
    Renormalizes the result only when the norm drift stayed below
    MAX_NORM_DRIFT, and raises NormDrift otherwise, also when a huge
    field overflows M itself.
    """
    if not 0.0 <= total_time < math.inf:  # also false for NaN
        raise ValueError(f"integration time must be nonnegative and finite, "
                         f"got {total_time}")
    psi = np.asarray(psi0, dtype=complex).copy()
    if total_time == 0.0:
        return psi
    dt = total_time / STEPS
    gen = -1j * pauli_dot(f.h)
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.eye(2, dtype=complex)
        power = np.eye(2, dtype=complex)
        for order in range(1, 5):
            power = power @ (dt * gen)
            step = step + power / _FACTORIAL[order]
        (m00, m01), (m10, m11) = step.tolist()
        p0, p1 = psi.tolist()
        for _ in range(STEPS):
            p0, p1 = m00 * p0 + m01 * p1, m10 * p0 + m11 * p1
        psi = np.array([p0, p1])
        norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= MAX_NORM_DRIFT:  # also catches NaN blow-ups
        raise NormDrift(f"norm drifted to {norm} over {STEPS} steps")
    return psi / norm


_FACTORIAL = {1: 1.0, 2: 2.0, 3: 6.0, 4: 24.0}


def check_supplementary_symmetry(alpha):
    """Full reports at alpha and pi - alpha must agree field by field."""
    if not 0.0 < alpha < np.pi:
        raise ValueError("alpha must lie strictly inside (0, pi)")
    problem = equatorial_problem()
    rep_a = analyze(problem, SubOptimalParams(alpha))
    rep_b = analyze(problem, SubOptimalParams(np.pi - alpha))
    return _compare("supplementary", alpha, SYMMETRY_TOL, [
        ("v_bar", rep_a.volume.v_bar, rep_b.volume.v_bar),
        ("v_max", rep_a.volume.v_max, rep_b.volume.v_max),
        ("complexity", rep_a.complexity, rep_b.complexity),
        ("length_scale", rep_a.length_scale, rep_b.length_scale),
        ("t_ab", rep_a.t_ab, rep_b.t_ab),
        ("s", rep_a.s, rep_b.s),
        ("eta_ge", rep_a.eta_ge, rep_b.eta_ge),
        ("eta_se", rep_a.eta_se, rep_b.eta_se),
        ("kappa2", rep_a.kappa2, rep_b.kappa2),
    ])


def check_omega_independence(alpha, omega1, omega2):
    """Volumes, complexity and length scale must not depend on omega; the
    evolution time must scale as 1/omega."""
    params = SubOptimalParams(alpha)
    rep_1 = analyze(equatorial_problem(energy=omega1), params)
    rep_2 = analyze(equatorial_problem(energy=omega2), params)
    return _compare("omega_invariance", alpha, VOLUME_TOL, [
        ("v_bar", rep_1.volume.v_bar, rep_2.volume.v_bar),
        ("v_max", rep_1.volume.v_max, rep_2.volume.v_max),
        ("complexity", rep_1.complexity, rep_2.complexity),
        ("length_scale", rep_1.length_scale, rep_2.length_scale),
    ]) + _compare("omega_invariance", alpha, TIME_RATIO_TOL, [
        ("time_ratio", rep_1.t_ab / rep_2.t_ab, omega2 / omega1),
    ])


def check_propagator_agreement():
    """Reference integrator vs the closed-form states that the reports
    read (`Trajectory.states_at`) at alpha = k pi/16, k = 1..16, and 8
    times in [0.1, 2]; one record per alpha, whose delta is the worst
    per-component amplitude difference over its times."""
    problem = equatorial_problem()
    times = np.linspace(0.1, 2.0, 8)
    records = []
    for alpha in (k * np.pi / 16.0 for k in range(1, 17)):
        params = SubOptimalParams(alpha)
        traj = sample_trajectory(problem, params)
        f, psi0 = suboptimal_field(problem, params), traj.source
        worst = 0.0
        for total_time, exact in zip(times, traj.states_at(times)):
            numeric = integrate_schrodinger(f, psi0, total_time)
            worst = max(worst, float(np.max(np.abs(exact - numeric))))
        records.append(CheckRecord(check="propagator_oracle",
                                   param=f"alpha={alpha:.6g}", delta=worst,
                                   passed=worst <= PROPAGATOR_TOL))
    return records


def run_verification():
    """The whole harness; returns records for line-oriented reporting."""
    records = check_propagator_agreement()
    for k in range(1, 8):
        records += check_supplementary_symmetry(k * np.pi / 16.0)
    for omega_pair in ((1.0, 2.0), (1.0, 3.7), (0.5, 5.0)):
        records += check_omega_independence(np.pi / 4.0, *omega_pair)
    return records


def _compare(check, alpha, tol, pairs):
    """One record per ``(name, x, y)``; it passes when |x - y| <= tol."""
    return [CheckRecord(check=check, param=f"alpha={alpha:.6g}:{name}",
                        delta=abs(x - y), passed=abs(x - y) <= tol)
            for name, x, y in pairs]
