"""Dense sampling of an evolution and extraction of continuous spherical
angles from the amplitudes.

The polar angle is always well-defined; the azimuth is only defined modulo
2*pi (and not at all at the poles), so a sampled trajectory carries an
unwrapped azimuth: 2*pi jumps between neighbouring samples are removed and
pole samples inherit the azimuth of the last non-pole sample; pole samples
at the start take the azimuth of the first non-pole sample, the direction
in which the trajectory leaves the pole.
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
    states, polar angles and unwrapped azimuths, plus the evolution they
    sample: the stationary ``field`` h, the ``source`` state psi0 and the
    ``turned`` state (n.sigma) psi0 along the field axis n."""

    problem: object
    params: object
    t: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    states: np.ndarray
    field: object
    source: np.ndarray
    turned: np.ndarray

    @property
    def t_a(self):
        return float(self.t[0])

    @property
    def t_b(self):
        return float(self.t[-1])

    @property
    def n_samples(self):
        return int(self.t.size)

    @property
    def rate(self):
        """Amplitude rate w = |h|/hbar; the Bloch vector turns at 2w."""
        return self.field.magnitude / self.problem.hbar

    def states_at(self, t):
        """Closed-form states cos(wt) psi0 - i sin(wt) (n.sigma) psi0 at a
        time array of shape (...), as an array of shape (..., 2)."""
        return _evolve(self.source, self.turned, self.rate, t)


def _evolve(source, turned, rate, t):
    ang = rate * np.asarray(t, dtype=float)
    return (np.cos(ang)[..., None] * source
            - 1j * np.sin(ang)[..., None] * turned)


def angles_from_states(states, anchor):
    """Polar angles and unwrapped azimuths for an array of states.

    Pole samples (sin(theta) below the pole threshold) have no azimuth of
    their own; they inherit the previous non-pole raw azimuth. Those before
    the first non-pole sample take its raw azimuth, the direction of
    departure, so the result does not depend on the azimuth conventionally
    given to a pole. The anchor stands in only when every sample is a pole
    sample.
    """
    theta, raw = bloch_angles(states)
    pole = np.sin(theta) < AZIMUTH_POLE_EPS
    if pole.any():
        raw = _carry_forward(raw, pole, anchor)
    phi = unwrap_azimuth(raw, anchor)
    return theta, phi


def sample_trajectory(problem, params, n=DEFAULT_SAMPLES):
    """Uniform sampling of the evolution on [0, evolution_time].

    Builds the field, psi0 and (n.sigma) psi0 once; every later stage reads
    them from the returned Trajectory. The first azimuth lies on the 2*pi
    branch nearest the azimuth of the source Bloch vector.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    total = evolution_time(problem, params)
    f = suboptimal_field(problem, params)
    source = state_from_bloch(problem.a_hat)
    turned = pauli_dot(f.direction) @ source
    t = np.linspace(0.0, total, int(n))
    states = _evolve(source, turned, f.magnitude / problem.hbar, t)
    theta, phi = angles_from_states(states, float(bloch_angles(source)[1]))
    return Trajectory(problem=problem, params=params, t=t, theta=theta,
                      phi=phi, states=states, field=f, source=source,
                      turned=turned)


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
    good = np.flatnonzero(~pole)
    if good.size == 0:
        return np.full_like(raw, fallback)
    idx = np.where(pole, good[0], np.arange(raw.size))
    return raw[np.maximum.accumulate(idx)]
