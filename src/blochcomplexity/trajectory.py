"""One evolution under a stationary field: its closed-form states and
spherical angles at any time, and a dense sampling of it built on demand.

The polar angle is always well-defined; the azimuth is only defined modulo
2*pi (and not at all at the poles). `Trajectory.angles_at` gives the
continuous azimuth in closed form: the Bloch vector turns rigidly about the
field axis, so the instants where it crosses the plane of the start azimuth
are known exactly, and counting them fixes the 2*pi branch at any time. At
an exact pole (sin(theta) < qubit.POLE_EPS) it is the one-sided limit along
the path. The states are built from the nearer end of the path, so that
next to the source or the target a small amplitude keeps its precision.

The sampled grid (`t`, `states`) is built on first access.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hamiltonians import arrival_angle, evolution_time, suboptimal_field
from .qubit import POLE_EPS, bloch_angles, cross, pauli_dot

MIN_SAMPLES = 2049
DEFAULT_SAMPLES = 4097  # the sample count `evolve` writes by default
TWO_PI = 2.0 * np.pi


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

    Internally the path is parametrised by the rotation angle x = 2wt
    (w = E/hbar), which runs from 0 to ``x_b`` at every energy scale; only
    `states_at`, `angles_at` and the reported times convert from t.

    ``t`` and ``states`` are a uniform sampling with ``n_samples`` points,
    built on first access.
    """

    problem: object
    params: object
    t_b: float
    x_b: float
    n_samples: int
    field: object
    source: np.ndarray
    turned: np.ndarray

    def states_at(self, t):
        """Closed-form states at a time array of shape (...), as an array
        of shape (..., 2): `states_along` at x = 2wt."""
        return self.states_along(
            2.0 * self.problem.omega * np.asarray(t, dtype=float))

    def states_along(self, x, origin=0.0):
        """States cos(y) psi - i sin(y) (n.sigma) psi at rotation angles
        origin + x, for an ``origin`` of 0 or x_b (or an array of them that
        broadcasts with x). On the first half of the path psi is psi0 and
        y = (origin + x)/2; on the second it is the target's own state, in
        the phase of the evolved one, and y = (origin + x - x_b)/2, which is
        x/2 for an origin at x_b. Each half is thus exact at its own end: a
        small amplitude next to a pole keeps its relative precision there,
        and so does a rotation angle measured from x_b."""
        x = np.asarray(x, dtype=float)
        back = origin + x > 0.5 * self.x_b
        ang = 0.5 * np.where(back, x + (origin - self.x_b), x + origin)
        psi, turned = self.arrival
        back = back[..., None]
        return (np.cos(ang)[..., None] * np.where(back, psi, self.source)
                - 1j * np.sin(ang)[..., None]
                * np.where(back, turned, self.turned))

    def angles_at(self, t):
        """Polar angles and continuous azimuths at a time array of shape
        (...): `angles_along` at x = 2wt."""
        return self.angles_along(
            2.0 * self.problem.omega * np.asarray(t, dtype=float))

    def angles_along(self, x, origin=0.0):
        """Polar angles and continuous azimuths at rotation angles
        origin + x (see `states_along`), in closed form: the raw azimuth of
        each state, moved to the 2*pi branch that the crossings of the start
        azimuth's plane before it select; at an exact pole, the lift's limit
        on its side of the pole."""
        x = np.asarray(x, dtype=float)
        theta, raw = bloch_angles(self.states_along(x, origin))
        at = origin + x
        lift = self.azimuth
        phi = lift.resolve(at, raw)
        pole = np.sin(theta) < POLE_EPS
        if lift.limits and np.any(pole):
            arrival, departure = lift.limits
            phi = np.where(pole, np.where(at > lift.pole, departure, arrival),
                           phi)
        return theta, phi

    @cached_property
    def circle(self):
        n = self.field.direction
        a = self.problem.a_hat
        na = float(n @ a)
        return Circle(n=n, na=na, u=a - na * n, v=cross(n, a))

    @cached_property
    def arrival(self):
        """The target's own state in the phase of psi0's evolved state at
        x_b, and (n.sigma) of it: the second half's psi."""
        half = 0.5 * self.x_b
        reached = (math.cos(half) * self.source
                   - 1j * math.sin(half) * self.turned)
        overlap = np.vdot(self.problem.target_state, reached)
        psi = self.problem.target_state * (overlap / abs(overlap))
        return psi, pauli_dot(self.field.direction) @ psi

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
    """The 2*pi branch of a trajectory's azimuth at any rotation angle.

    The anchor is x = 0; ``phi_a`` is the source's raw azimuth, or for a
    source at an exact pole the azimuth of its direction of departure
    r'(0) = n x a. With P(x) the component of r(x) across the plane of
    azimuth ``phi_a``, P = R cos(x - c) + const vanishes at the anchor and
    at its mirror about c, so the plane's crossings are exact. Each
    crossing moves the azimuth into the next half-turn (k pi, (k + 1) pi)
    relative to ``phi_a``; a raw azimuth is resolved to the branch nearest
    the centre of its half-turn. A point that rounding puts on the wrong
    side of a crossing sits on the plane, pi/2 from either centre, so it
    still resolves to the right branch.

    The path turns by at most pi, so it meets at most one exact pole, at
    rotation angle ``pole``. ``limits`` are the azimuth's one-sided limits
    there, of -r' (arrival) and r' (departure), each on the half-turn of its
    side; at the source or the target both are its one limit, and with no
    pole on the path ``limits`` is empty. ``crossings`` are sorted rotation
    angles.
    """

    def __init__(self, traj):
        n, na, u, v = traj.circle
        x_b = traj.x_b
        theta0, phi_a = bloch_angles(traj.source)
        departs = math.sin(theta0) < POLE_EPS
        if departs:
            phi_a = math.atan2(v[1], v[0])
        self.phi_a = phi_a = float(phi_a)
        cos_a, sin_a = math.cos(phi_a), math.sin(phi_a)

        # d: rotation angle from the anchor to the maximum of P. P rises out
        # of the anchor when 0 < d < pi; at d = 0 (P <= 0) or d = pi
        # (P >= 0) it touches the plane there and keeps its sign, as it does
        # at a source on the pole, whose departure lies in the plane. The
        # path turns by at most pi, so P's mirror zero is its one crossing.
        p = cos_a * u[1] - sin_a * u[0]
        q = 0.0 if departs else cos_a * v[1] - sin_a * v[0]
        d = math.atan2(q, p) % TWO_PI
        gap = (2.0 * d) % TWO_PI
        first = 0.0 if 0.0 < d <= math.pi else -1.0
        self.crossings, self.half_turns = np.empty(0), np.array([first])
        if 0.0 < gap <= x_b and math.hypot(p, q) > 0.0:
            rising = 1.0 if d < math.pi else -1.0
            # a crossing on the far ray turns the azimuth the other way
            far = np.sign((cos_a * n[0] + sin_a * n[1]) * na
                          + (cos_a * u[0] + sin_a * u[1]) * math.cos(gap)
                          + (cos_a * v[0] + sin_a * v[1]) * math.sin(gap))
            self.crossings = np.array([gap])
            self.half_turns = np.array([first, first - rising * far])

        self.pole, self.limits = 0.0, (phi_a, phi_a) if departs else ()
        if departs:
            return
        # a pole lies on the plane of phi_a: the target there is P's mirror
        # zero, so the path reaches it before any crossing; a pole mid-path
        # is the crossing, or else the anchor's own zero, where the path
        # touches the plane and stays in the first half-turn
        sides = [0, 0]
        if math.sin(bloch_angles(traj.problem.target_state)[0]) < POLE_EPS:
            self.pole = x_b
        else:
            near = np.array([math.atan2(v[2], u[2]),
                             math.atan2(-v[2], -u[2])]) % TWO_PI
            near = near[(near > 0.0) & (near < x_b)]
            on = np.sin(bloch_angles(traj.states_along(near))[0]) < POLE_EPS
            if not on.any():
                return
            self.pole = float(near[np.argmax(on)])
            if self.crossings.size and (abs(self.crossings[0] - self.pole)
                                        < self.pole):
                self.pole, sides = float(self.crossings[0]), [0, 1]
        tangent = math.cos(self.pole) * v - math.sin(self.pole) * u
        away = math.atan2(tangent[1], tangent[0])
        centre = phi_a + np.pi * (self.half_turns[sides] + 0.5)
        arrival = float(nearest_branch(away + np.pi, centre[0]))
        departure = (arrival if self.pole == x_b
                     else float(nearest_branch(away, centre[1])))
        self.limits = (arrival, departure)

    def resolve(self, x, raw):
        """Continuous azimuth at rotation angles ``x`` from raw azimuths
        there."""
        k = self.half_turns[np.searchsorted(self.crossings, x)]
        return nearest_branch(raw, self.phi_a + np.pi * (k + 0.5))


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
                      t_b=evolution_time(problem, params),
                      x_b=2.0 * arrival_angle(problem, params),
                      n_samples=int(n), field=f, source=problem.source_state,
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


def _arc_ends(centre, half, span):
    """Every centre +- half + 2 pi k in the closed interval ``span``."""
    lo, hi = span
    return np.concatenate([
        base + TWO_PI * np.arange(math.ceil((lo - base) / TWO_PI),
                                  math.floor((hi - base) / TWO_PI) + 1)
        for base in (centre - half, centre + half)])
