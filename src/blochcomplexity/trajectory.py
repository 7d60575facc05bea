"""One evolution under a stationary field: its closed-form states and
spherical angles at any time, and a dense sampling of it built on demand.

The polar angle is always well-defined; the azimuth is only defined modulo
2*pi (and not at all at the poles). `Trajectory.angles_at` gives the
continuous azimuth in closed form: the Bloch vector turns rigidly about the
field axis, so the instants where it crosses the plane of the start azimuth
are known exactly, and counting them fixes the 2*pi branch at any time.
Within sin(theta) < AZIMUTH_POLE_EPS of a pole the azimuth holds its value
at the rim of that cap; a trajectory that starts inside a cap takes the
azimuth at which it leaves it.

The sampled grid (`t`, `states`, `theta`, `phi`) is built on first access.
Its azimuth is unwrapped from the samples instead: 2*pi jumps between
neighbouring samples are removed and pole samples inherit the azimuth of the
last non-pole sample; pole samples at the start take the azimuth of the
first non-pole sample, the direction in which the trajectory leaves the
pole.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
# noise below 1e-10 rad while only affecting points that carry no azimuth
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


class Circle(NamedTuple):
    """The Bloch vector's rigid turn about the field axis ``n``:
    r(x) = n (n.a) + cos(x) u + sin(x) v at rotation angle x = 2wt, with
    ``na`` = n.a, ``u`` = a - n (n.a) and ``v`` = n x a."""

    n: np.ndarray
    na: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """One evolution on [0, t_b]: the stationary ``field`` h, the ``source``
    state psi0 and the ``turned`` state (n.sigma) psi0 along the field axis
    n, from which every state and angle follows in closed form.

    ``t``, ``states``, ``theta`` and ``phi`` are a uniform sampling with
    ``n_samples`` points, built on first access.
    """

    problem: object
    params: object
    t_b: float
    n_samples: int
    field: object
    source: np.ndarray
    turned: np.ndarray

    @property
    def t_a(self):
        return 0.0

    @property
    def rate(self):
        """Amplitude rate w = |h|/hbar; the Bloch vector turns at 2w."""
        return self.field.magnitude / self.problem.hbar

    def states_at(self, t):
        """Closed-form states cos(wt) psi0 - i sin(wt) (n.sigma) psi0 at a
        time array of shape (...), as an array of shape (..., 2)."""
        return _evolve(self.source, self.turned, self.rate, t)

    def angles_at(self, t):
        """Polar angles and continuous azimuths at a time array of shape
        (...), in closed form: the raw azimuth of each state, moved to the
        2*pi branch that the crossings of the start azimuth's plane before
        t select, and held at the rim value inside a pole cap."""
        t = np.asarray(t, dtype=float)
        theta, raw = bloch_angles(self.states_at(t))
        lift = self.azimuth
        phi = lift.resolve(t, raw)
        pole = np.sin(theta) < AZIMUTH_POLE_EPS
        if np.any(pole):
            phi = np.where(pole, lift.frozen(t), phi)
        return theta, phi

    @cached_property
    def circle(self):
        n = self.field.direction
        a = self.problem.a_hat
        na = float(n @ a)
        return Circle(n=n, na=na, u=a - na * n, v=np.cross(n, a))

    @cached_property
    def azimuth(self):
        return AzimuthLift(self)

    @cached_property
    def t(self):
        return np.linspace(0.0, self.t_b, self.n_samples)

    @cached_property
    def states(self):
        return self.states_at(self.t)

    @property
    def theta(self):
        return self._sampled_angles[0]

    @property
    def phi(self):
        return self._sampled_angles[1]

    @cached_property
    def _sampled_angles(self):
        return angles_from_states(self.states,
                                  float(bloch_angles(self.source)[1]))


class AzimuthLift:
    """The 2*pi branch of a trajectory's azimuth at any time.

    The anchor is t = 0, or for a source inside a pole cap the first rim
    crossing; ``phi_a`` is the raw azimuth there, on the 2*pi branch
    nearest the source's own raw azimuth. With P(x) the component
    of r(x) across the plane of azimuth ``phi_a``, P = R cos(x - c) + const
    vanishes at the anchor and at its mirror about c, so the plane's
    crossings are exact. Each crossing moves the azimuth into the next
    half-turn (k pi, (k + 1) pi) relative to ``phi_a``; a raw azimuth is
    resolved to the branch nearest the centre of its half-turn. A point
    that rounding puts on the wrong side of a crossing sits on the plane,
    pi/2 from either centre, so it still resolves to the right branch.

    ``crossings`` and ``rims`` (the pole-cap rim crossings) are sorted times;
    ``rim_phi`` is the continuous azimuth at each rim.
    """

    def __init__(self, traj):
        n, na, u, v = traj.circle
        w2 = 2.0 * traj.rate
        x_b = w2 * traj.t_b
        x_rim = np.sort(_rim_crossings(n, na, u, v, (0.0, x_b)))
        theta0, phi_a = bloch_angles(traj.source)
        x0 = 0.0
        if np.sin(theta0) < AZIMUTH_POLE_EPS and x_rim.size:
            x0 = float(x_rim[0])
            phi_a = nearest_branch(bloch_angles(traj.states_at(x0 / w2))[1],
                                   phi_a)
        self.phi_a = float(phi_a)
        across = np.array([-np.sin(phi_a), np.cos(phi_a), 0.0])
        along = np.array([np.cos(phi_a), np.sin(phi_a), 0.0])

        # d: rotation angle from the anchor to the maximum of P. P rises out
        # of the anchor when 0 < d < pi; at d = 0 (P <= 0) or d = pi
        # (P >= 0) it touches the plane there and keeps its sign.
        two_pi = 2.0 * np.pi
        p, q = float(across @ u), float(across @ v)
        d = (np.arctan2(q, p) - x0) % two_pi
        gap = (2.0 * d) % two_pi
        first = 0 if 0.0 < d <= np.pi else -1
        x_cross = np.empty(0)
        steps = np.empty(0)
        if gap > 0.0 and np.hypot(p, q) > 0.0:
            rising = 1.0 if d < np.pi else -1.0
            again = x0 + two_pi * np.arange(
                1.0, np.floor((x_b - x0) / two_pi) + 1.0)
            mirror = x0 + gap + two_pi * np.arange(
                0.0, np.floor((x_b - x0 - gap) / two_pi) + 1.0)
            # a mirror crossing on the far ray turns the azimuth the other way
            far = np.sign((along @ n) * na + (along @ u) * np.cos(mirror)
                          + (along @ v) * np.sin(mirror))
            x_cross = np.concatenate([again, mirror])
            steps = np.concatenate([np.full(again.size, rising),
                                    -rising * far])
        order = np.argsort(x_cross)
        self.crossings = x_cross[order] / w2
        self.half_turns = first + np.concatenate(
            [[0.0], np.cumsum(steps[order])])
        self.rims = x_rim / w2
        self.rim_phi = self.resolve(
            self.rims, bloch_angles(traj.states_at(self.rims))[1])

    def resolve(self, t, raw):
        """Continuous azimuth at times ``t`` from raw azimuths there."""
        k = self.half_turns[np.searchsorted(self.crossings, t)]
        return nearest_branch(raw, self.phi_a + np.pi * (k + 0.5))

    def frozen(self, t):
        """The azimuth held inside a pole cap at times ``t``: its value at
        the last rim crossing, or at the first one before any."""
        if self.rims.size == 0:
            return np.full(np.shape(t), self.phi_a)
        k = np.searchsorted(self.rims, t, side="right") - 1
        return self.rim_phi[np.maximum(k, 0)]


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
    """The evolution on [0, evolution_time], with a uniform sampling of
    ``n`` points built on first access.

    Builds the field, psi0 and (n.sigma) psi0 once; every later stage reads
    them from the returned Trajectory. The first sampled azimuth lies on the
    2*pi branch nearest the azimuth of the source Bloch vector.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    f = suboptimal_field(problem, params)
    source = state_from_bloch(problem.a_hat)
    return Trajectory(problem=problem, params=params,
                      t_b=evolution_time(problem, params), n_samples=int(n),
                      field=f, source=source,
                      turned=pauli_dot(f.direction) @ source)


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


def _cos_roots(p, q, c, span):
    """Every x in the closed interval ``span`` with p cos(x) + q sin(x) = c;
    none when p = q = 0."""
    r = np.hypot(p, q)
    if r == 0.0 or abs(c) > r:
        return np.empty(0)
    return _arc_ends(np.arctan2(q, p), np.arccos(c / r), span)


def _rim_crossings(n, na, u, v, span):
    """Rotation angles x = 2wt in ``span`` where the Bloch vector crosses
    sin(theta) = AZIMUTH_POLE_EPS, the rim of a pole cap in which the
    azimuth is frozen.

    Solved in haversine form on the triangle (field axis, pole, r): with
    gamma = angle(n, pole) and beta = angle(n, a), the distance d to the
    pole obeys hav d = hav(gamma - beta) + sin(gamma) sin(beta) hav(x - x_p),
    x_p being the angle closest to the pole. Solving z(x) = cos d instead
    loses the rim's position to rounding next to the pole.
    """
    beta = np.arctan2(np.linalg.norm(v), na)
    rim = np.sin(0.5 * np.arcsin(AZIMUTH_POLE_EPS)) ** 2
    out = [np.empty(0)]
    for pole in (1.0, -1.0):
        gamma = np.arctan2(np.hypot(n[0], n[1]), pole * n[2])
        scale = np.sin(gamma) * np.sin(beta)
        hav = rim - np.sin(0.5 * (gamma - beta)) ** 2
        if scale > 0.0 and 0.0 <= hav <= scale:
            out.append(_arc_ends(np.arctan2(pole * v[2], pole * u[2]),
                                 2.0 * np.arcsin(np.sqrt(hav / scale)),
                                 span))
    return np.concatenate(out)


def _arc_ends(centre, half, span):
    """Every centre +- half + 2 pi k in the closed interval ``span``."""
    lo, hi = span
    roots = []
    for base in (centre - half, centre + half):
        k = np.arange(np.ceil((lo - base) / (2.0 * np.pi)),
                      np.floor((hi - base) / (2.0 * np.pi)) + 1.0)
        roots.append(base + 2.0 * np.pi * k)
    return np.concatenate(roots)
