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

The sampled grid (`t`, `states`) is built on first access.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hamiltonians import evolution_time, suboptimal_field
from .qubit import bloch_angles, cross, pauli_dot

MIN_SAMPLES = 2049
DEFAULT_SAMPLES = 4097  # the sample count `evolve` writes by default
TWO_PI = 2.0 * np.pi

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
    return angle + TWO_PI * np.round((ref - angle) / TWO_PI)


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

    ``t`` and ``states`` are a uniform sampling with ``n_samples`` points,
    built on first access.
    """

    problem: object
    params: object
    t_b: float
    n_samples: int
    field: object
    source: np.ndarray
    turned: np.ndarray

    def states_at(self, t):
        """Closed-form states cos(wt) psi0 - i sin(wt) (n.sigma) psi0, with
        w = E/hbar (the Bloch vector turns at 2w), at a time array of shape
        (...), as an array of shape (..., 2)."""
        ang = self.problem.omega * np.asarray(t, dtype=float)
        return (np.cos(ang)[..., None] * self.source
                - 1j * np.sin(ang)[..., None] * self.turned)

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
        return Circle(n=n, na=na, u=a - na * n, v=cross(n, a))

    @cached_property
    def azimuth(self):
        return AzimuthLift(self)

    @cached_property
    def start(self):
        """(theta_A, phi_A), the angles at t = 0: the source's polar angle
        and the azimuth that anchors the lift, as `angles_at` gives them."""
        return bloch_angles(self.source)[0], self.azimuth.phi_a

    @cached_property
    def t(self):
        return np.linspace(0.0, self.t_b, self.n_samples)

    @cached_property
    def states(self):
        return self.states_at(self.t)


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
        w2 = 2.0 * traj.problem.omega
        x_b = w2 * traj.t_b
        x_rim = np.sort(_rim_crossings(n, na, u, v, (0.0, x_b)))
        theta0, phi_a = bloch_angles(traj.source)
        x0 = 0.0
        if math.sin(theta0) < AZIMUTH_POLE_EPS and x_rim.size:
            x0 = float(x_rim[0])
            phi_a = nearest_branch(bloch_angles(traj.states_at(x0 / w2))[1],
                                   phi_a)
        self.phi_a = phi_a = float(phi_a)
        cos_a, sin_a = math.cos(phi_a), math.sin(phi_a)

        # d: rotation angle from the anchor to the maximum of P. P rises out
        # of the anchor when 0 < d < pi; at d = 0 (P <= 0) or d = pi
        # (P >= 0) it touches the plane there and keeps its sign.
        p, q = cos_a * u[1] - sin_a * u[0], cos_a * v[1] - sin_a * v[0]
        d = (math.atan2(q, p) - x0) % TWO_PI
        gap = (2.0 * d) % TWO_PI
        first = 0 if 0.0 < d <= math.pi else -1
        x_cross = np.empty(0)
        steps = np.empty(0)
        if gap > 0.0 and math.hypot(p, q) > 0.0:
            rising = 1.0 if d < math.pi else -1.0
            again = x0 + TWO_PI * np.arange(
                1.0, np.floor((x_b - x0) / TWO_PI) + 1.0)
            mirror = x0 + gap + TWO_PI * np.arange(
                0.0, np.floor((x_b - x0 - gap) / TWO_PI) + 1.0)
            # a mirror crossing on the far ray turns the azimuth the other way
            along = np.array([cos_a, sin_a, 0.0])
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


def sample_trajectory(problem, params, n=DEFAULT_SAMPLES):
    """The evolution on [0, evolution_time], with a uniform sampling of
    ``n`` points built on first access.

    Builds the field, psi0 and (n.sigma) psi0 once; every later stage reads
    them from the returned Trajectory.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    f = suboptimal_field(problem, params)
    return Trajectory(problem=problem, params=params,
                      t_b=evolution_time(problem, params), n_samples=int(n),
                      field=f, source=problem.source_state,
                      turned=pauli_dot(f.direction) @ problem.source_state)


def write_trajectory_csv(traj, stream):
    """Dump the samples as CSV: header t,theta,phi,re_c0,im_c0,re_c1,im_c1
    with 12 significant digits, LF line endings; the angles are `angles_at`
    at the sample times."""
    stream.write("t,theta,phi,re_c0,im_c0,re_c1,im_c1\n")
    theta, phi = traj.angles_at(traj.t)
    c0, c1 = traj.states.T
    for row in zip(traj.t, theta, phi, c0.real, c0.imag, c1.real, c1.imag):
        stream.write(",".join(f"{x:.12g}" for x in row) + "\n")


def _cos_roots(p, q, c, span):
    """Every x in the closed interval ``span`` with p cos(x) + q sin(x) = c;
    none when p = q = 0."""
    r = math.hypot(p, q)
    if r == 0.0 or abs(c) > r:
        return np.empty(0)
    return _arc_ends(math.atan2(q, p), math.acos(c / r), span)


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
    beta = math.atan2(math.hypot(*v), na)
    rim = math.sin(0.5 * math.asin(AZIMUTH_POLE_EPS)) ** 2
    out = [np.empty(0)]
    for pole in (1.0, -1.0):
        gamma = math.atan2(math.hypot(n[0], n[1]), pole * n[2])
        scale = math.sin(gamma) * math.sin(beta)
        hav = rim - math.sin(0.5 * (gamma - beta)) ** 2
        if scale > 0.0 and 0.0 <= hav <= scale:
            out.append(_arc_ends(math.atan2(pole * v[2], pole * u[2]),
                                 2.0 * math.asin(math.sqrt(hav / scale)),
                                 span))
    return np.concatenate(out)


def _arc_ends(centre, half, span):
    """Every centre +- half + 2 pi k in the closed interval ``span``."""
    lo, hi = span
    return np.concatenate([
        base + TWO_PI * np.arange(math.ceil((lo - base) / TWO_PI),
                                  math.floor((hi - base) / TWO_PI) + 1)
        for base in (centre - half, centre + half)])
