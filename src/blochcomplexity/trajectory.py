"""Dense sampling of an evolution and extraction of continuous spherical
angles from the amplitudes.

The polar angle is always well-defined; the azimuth is only defined modulo
2*pi (and not at all at the poles), so a sampled trajectory carries an
unwrapped azimuth: 2*pi jumps between neighbouring samples are removed and
pole samples inherit the azimuth of the last non-pole sample.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnwrapAmbiguity
from .hamiltonians import evolution_time, suboptimal_field
from .qubit import bloch_angles, pauli_dot, state_from_bloch

MIN_SAMPLES = 2049
DEFAULT_SAMPLES = 4097  # 4096 panels + 1: feeds composite Simpson directly

# largest tolerated azimuth jump between adjacent samples after unwrapping
MAX_AZIMUTH_JUMP = np.pi / 2.0

# sin(theta) guard for azimuth extraction along trajectories. Wider than the
# 1e-12 pole convention: at sin(theta) ~ 1e-12 the rounding noise of the
# amplitudes (~1e-16) turns into ~1e-4 rad of azimuth noise, which would leak
# into bounding boxes; freezing the azimuth once sin(theta) < 1e-5 keeps that
# noise below 1e-10 rad while only affecting samples that carry no azimuth
# information anyway.
AZIMUTH_POLE_EPS = 1e-5


def nearest_branch(angle, ref):
    """``angle`` shifted by the 2*pi multiple that brings it closest to
    ``ref`` (elementwise)."""
    two_pi = 2.0 * np.pi
    return angle + two_pi * np.round((ref - angle) / two_pi)


def unwrap_azimuth(raw, anchor):
    """Continuous azimuth from samples known only modulo 2*pi.

    The first output is ``raw[0]`` shifted by the 2*pi multiple closest to
    ``anchor``; every later value is shifted by the multiple that minimizes
    the jump from its predecessor. A residual jump above pi/2 means the
    sampling cannot distinguish winding directions and raises
    UnwrapAmbiguity.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("expected a non-empty 1-d sequence of angles")
    first = nearest_branch(raw[0], anchor)
    if raw.size == 1:
        return np.array([first])
    steps = nearest_branch(np.diff(raw), 0.0)
    worst = float(np.max(np.abs(steps)))
    if worst > MAX_AZIMUTH_JUMP:
        raise UnwrapAmbiguity(
            f"azimuth jump {worst:.3g} rad between adjacent samples exceeds "
            f"{MAX_AZIMUTH_JUMP:.3g}; increase the sample count")
    out = np.empty_like(raw)
    out[0] = first
    np.cumsum(steps, out=out[1:])
    out[1:] += first
    return out


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: strictly increasing times on [t_a, t_b], per-sample
    states, polar angles and unwrapped azimuths."""

    problem: object
    params: object
    t: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    states: np.ndarray

    @property
    def t_a(self):
        return float(self.t[0])

    @property
    def t_b(self):
        return float(self.t[-1])

    @property
    def n_samples(self):
        return int(self.t.size)


def state_evaluator(problem, params):
    """Closed-form state at arbitrary times for one (problem, alpha) pair.

    Returns a callable mapping a time array of shape (...) to states of shape
    (..., 2). Precomputes the rotation-axis action once, so repeated
    evaluations (box candidates, segment grids) stay cheap.
    """
    f = suboptimal_field(problem, params)
    psi0 = state_from_bloch(problem.a_hat)
    rotated = pauli_dot(f.direction) @ psi0
    rate = f.magnitude / problem.hbar

    def states_at(t):
        t = np.asarray(t, dtype=float)
        ang = rate * t
        return (np.cos(ang)[..., None] * psi0
                - 1j * np.sin(ang)[..., None] * rotated)

    return states_at


def angles_from_states(states, anchor):
    """Polar angles and unwrapped azimuths for an array of states.

    Pole samples (sin(theta) below the pole threshold) have no azimuth of
    their own; they inherit the previous non-pole raw azimuth, or the anchor
    if the trajectory starts at a pole.
    """
    theta, raw = bloch_angles(states)
    pole = np.sin(theta) < AZIMUTH_POLE_EPS
    if pole.any():
        raw = _carry_forward(raw, pole, anchor)
    phi = unwrap_azimuth(raw, anchor)
    return theta, phi


def sample_trajectory(problem, params, n=DEFAULT_SAMPLES):
    """Uniform sampling of the evolution on [0, evolution_time].

    The azimuth is anchored so the source state carries the azimuth of the
    source Bloch vector.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    total = evolution_time(problem, params)
    t = np.linspace(0.0, total, int(n))
    states = state_evaluator(problem, params)(t)
    anchor = float(bloch_angles(state_from_bloch(problem.a_hat))[1])
    theta, phi = angles_from_states(states, anchor)
    return Trajectory(problem=problem, params=params, t=t,
                      theta=theta, phi=phi, states=states)


def write_trajectory_csv(traj, stream):
    """Dump as CSV: header t,theta,phi,re_c0,im_c0,re_c1,im_c1 with 12
    significant digits, LF line endings."""
    stream.write("t,theta,phi,re_c0,im_c0,re_c1,im_c1\n")
    for k in range(traj.n_samples):
        c0 = traj.states[k, 0]
        c1 = traj.states[k, 1]
        row = (traj.t[k], traj.theta[k], traj.phi[k],
               c0.real, c0.imag, c1.real, c1.imag)
        stream.write(",".join(f"{x:.12g}" for x in row) + "\n")


def _carry_forward(raw, pole, fallback):
    filled = raw.copy()
    idx = np.arange(raw.size)
    last_good = np.maximum.accumulate(np.where(~pole, idx, -1))
    have_prev = last_good >= 0
    take = pole & have_prev
    filled[take] = raw[last_good[take]]
    filled[pole & ~have_prev] = fallback
    return filled
