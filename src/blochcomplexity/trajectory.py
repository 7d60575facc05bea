"""One evolution under a stationary field: its closed-form states and
spherical angles at any time.

The polar angle is always well-defined; the azimuth is only defined modulo
2*pi (and not at all at the poles). `Trajectory.angles_at` gives the
continuous azimuth in closed form: the Bloch vector turns rigidly about the
field axis, so the instants where it crosses the plane of the start azimuth
are known exactly, and counting them fixes the 2*pi branch at any time. At
an exact pole (sin(theta) < POLE_EPS) it is the one-sided limit along
the path, whose one exact pole (`Trajectory.pole`) is found without
evaluating a state. The states are built from the nearer end of the path,
so that next to the source or the target a small amplitude keeps its
precision.

Every evaluation goes through one kernel, `evaluate_states` and
`evaluate_angles`, which reads the `Constants` that `stack` builds: the
`Trajectory` methods pass their own, and a sweep passes several
trajectories' together, for rotation angles on one flat axis, so that one
kernel call evaluates the points of every row.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import arrival_angle, field_direction
from .qubit import bloch_angles, cross, dot, pauli_dot_times

TWO_PI = 2.0 * np.pi
# sin(theta) below this is an exact pole, where the azimuth is a one-sided
# limit along the path
POLE_EPS = 1e-12


def nearest_branch(angle, ref):
    """``angle`` shifted by the 2*pi multiple that brings it closest to
    ``ref`` (elementwise)."""
    return angle + TWO_PI * np.rint((ref - angle) / TWO_PI)


def _cos_roots(p, q, span):
    """Every x in the closed interval ``span`` with p cos(x) + q sin(x) = 0;
    none when p = q = 0."""
    if p == q == 0.0:
        return []
    return _arc_ends(math.atan2(q, p), 0.5 * math.pi, span)


def _arc_ends(centre, half, span):
    """Every centre +- half + 2 pi k in the closed interval ``span``."""
    lo, hi = span
    ends = []
    # a plain loop: a nested comprehension costs about twice as much
    for base in (centre - half, centre + half):
        k = math.ceil((lo - base) / TWO_PI)
        last = math.floor((hi - base) / TWO_PI)
        while k <= last:
            ends.append(base + TWO_PI * k)
            k += 1
    return ends


class Circle(NamedTuple):
    """A Bloch vector e's rigid turn about the field axis ``n``:
    r(x) = n (n.e) + cos(x) u + sin(x) v at rotation angle x, with
    ``na`` = n.e, ``u`` = e - n (n.e) and ``v`` = n x e, each vector a
    tuple of floats; |u|^2 is 1 - (n.e)^2 with its relative precision where
    (n.e)^2 rounds close to 1."""

    n: tuple
    na: float
    u: tuple
    v: tuple

    @classmethod
    def about(cls, n, e):
        """The circle of ``e`` about ``n``, both float 3-sequences: the one
        split of a vector about a field axis."""
        na = dot(n, e)
        u = (e[0] - na * n[0], e[1] - na * n[1], e[2] - na * n[2])
        return cls(tuple(n), na, u, cross(n, e))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One evolution on [0, t_b], as `sample_trajectory` builds it for a
    ``problem`` at ``params``: the ``source`` state psi0 and the ``turned``
    state (n.sigma) psi0 along the field axis n, each a tuple of two
    complex numbers, from which every state and angle follows in closed
    form; the source's ``circle`` about n, on which x = 2Et; the ``start``
    angles (theta_A, phi_A) as `angles_at` gives them, with phi_A at an
    exact pole the azimuth of the direction of departure r'(0) = n x a;
    the ``arrival`` state, the target's own in the phase of psi0's evolved
    one at x_b, and ``arrival_turned``, (n.sigma) of it, each a tuple of
    two complex numbers; the ``polar_turns`` and ``closest_approaches``
    (`_polar_turns`); the exact ``pole`` (`_pole`); and the lift's
    ``crossing``, ``half_turns`` and ``limits`` (`_lift`). The kernel's
    ``constants`` are built on each read.

    The path is parametrised by the rotation angle x = 2Et, which runs
    from 0 to ``x_b`` at every energy E; only `states_at`, `angles_at` and
    the reported times convert, by t = x / (2E).
    """

    problem: object
    params: object
    x_b: float
    source: tuple
    turned: tuple
    circle: Circle
    start: tuple
    arrival: tuple
    arrival_turned: tuple
    polar_turns: tuple
    closest_approaches: tuple
    pole: object
    crossing: float
    half_turns: tuple
    limits: tuple

    @property
    def constants(self):
        """What the evaluation kernel reads of this trajectory alone:
        `stack` of it, built on each read. A sweep stacks its rows together
        and reads none of theirs."""
        return stack([self])

    @property
    def t_b(self):
        """The arrival time."""
        return self.time_of(self.x_b)

    def time_of(self, x):
        """The time x / (2E) at rotation angle ``x``."""
        return float(x / (2.0 * self.problem.energy))

    def states_at(self, t):
        """Closed-form states at a time array of shape (...), as an array
        of shape (..., 2): `states_along` at x = 2Et."""
        return self.states_along(
            2.0 * self.problem.energy * np.asarray(t, dtype=float))

    def states_along(self, x, origin=0.0):
        """States cos(y) psi - i sin(y) (n.sigma) psi at rotation angles
        origin + x, for an ``origin`` of 0 or x_b (or an array of them that
        broadcasts with x). On the first half of the path psi is psi0 and
        y = (origin + x)/2; on the second it is the target's own state, in
        the phase of the evolved one, and y = (origin + x - x_b)/2, which is
        x/2 for an origin at x_b. Each half is thus exact at its own end: a
        small amplitude next to a pole keeps its relative precision there,
        and so does a rotation angle measured from x_b. The kernel is
        `evaluate_states`, with this trajectory's `constants`."""
        return evaluate_states(self.constants, x, origin)

    def angles_at(self, t):
        """Polar angles and continuous azimuths at a time array of shape
        (...): `angles_along` at x = 2Et."""
        return self.angles_along(
            2.0 * self.problem.energy * np.asarray(t, dtype=float))

    def angles_along(self, x, origin=0.0):
        """Polar angles and continuous azimuths at rotation angles
        origin + x (see `states_along`), in closed form: the raw azimuth of
        each state, moved to the 2*pi branch that the crossings of the start
        azimuth's plane before it select; at an exact pole, the lift's limit
        on the same side of its crossings. The kernel is `evaluate_angles`,
        with this trajectory's `constants`."""
        return evaluate_angles(self.constants, x, origin)


def _polar_turns(circle, x_b):
    """Rotation angles in [0, x_b] where theta is stationary, the path's
    highest and lowest points and so its closest approaches to the poles:
    z = n_z (n.a) + u_z cos + v_z sin turns where v_z cos = u_z sin. And
    theta_min at each: the angle between the path there and the pole it
    turns towards, |beta - rho| at a highest point and |pi - beta - rho| at
    a lowest, with beta the field axis's polar angle and
    rho = atan2(|u|, n.a) the circle's angular radius about it. As a
    difference of angles it keeps its digits next to a pole, where 1 - |z|
    loses half of them."""
    n, na, u, v = circle
    turns = tuple(_cos_roots(v[2], -u[2], (0.0, x_b)))
    beta = math.atan2(math.hypot(n[0], n[1]), n[2])
    rho = math.atan2(math.hypot(*u), na)
    north, south = abs(beta - rho), abs(math.pi - beta - rho)
    return turns, tuple(north if u[2] * math.cos(x) + v[2] * math.sin(x) > 0.0
                        else south for x in turns)


def _pole(theta_a, psi, x_b, turns, approaches):
    """The rotation angle in [0, x_b] of the path's one exact pole, or
    None: the source if its own sin(theta_A) < POLE_EPS, else the target
    if its state ``psi`` at x_b is a pole, else the first interior polar
    turn whose closest approach is below POLE_EPS. The ends come first: an
    end on a pole is a polar turn too, which rounding may put just inside
    the path."""
    if math.sin(theta_a) < POLE_EPS:
        return 0.0
    c0, c1 = psi
    if math.sin(2.0 * math.atan2(abs(c1), abs(c0))) < POLE_EPS:
        return x_b
    return next((x for x, theta_min in zip(turns, approaches)
                 if 0.0 < x < x_b and theta_min < POLE_EPS), None)


def _lift(circle, x_b, phi_a, pole):
    """The 2*pi branch of the azimuth at any rotation angle: the one
    crossing of the start azimuth's plane (inf where there is none), the
    half-turns before and after it (the same one where there is none), and
    the azimuth's limits at an exact pole.

    The anchor is x = 0, where the azimuth is ``phi_a``. With P(x) the
    component of r(x) across the plane of azimuth ``phi_a``,
    P = R cos(x - c) + const vanishes at the anchor and at its mirror about
    c, so the plane's crossing is exact. It moves the azimuth into the next
    half-turn (k pi, (k + 1) pi) relative to ``phi_a``; a raw azimuth is
    resolved to the branch nearest the centre of its half-turn. A point
    that rounding puts on the wrong side of the crossing sits on the plane,
    pi/2 from either centre, so it still resolves to the right branch.

    The limits are the azimuth's one-sided limits at the path's exact
    ``pole``, of -r' (arrival) and r' (departure); at the source or the
    target both are its one limit, and with no pole on the path there are
    none. A pole between the ends is the one crossing, and the departure is
    the limit of the path pushed off it towards the field axis.
    """
    n, na, u, v = circle
    departs = pole == 0.0
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
    crossing, after = math.inf, first
    if 0.0 < gap <= x_b and math.hypot(p, q) > 0.0:
        rising = 1.0 if d < math.pi else -1.0
        # a crossing on the far ray turns the azimuth the other way
        far = ((cos_a * n[0] + sin_a * n[1]) * na
               + (cos_a * u[0] + sin_a * u[1]) * math.cos(gap)
               + (cos_a * v[0] + sin_a * v[1]) * math.sin(gap))
        far = (far > 0.0) - (far < 0.0)
        crossing, after = gap, first - rising * far

    if departs:
        return crossing, (first, after), (phi_a, phi_a)
    if pole is None:
        return crossing, (first, after), ()
    tangent = [math.cos(pole) * vk - math.sin(pole) * uk
               for vk, uk in zip(v, u)]
    arrival = float(nearest_branch(math.atan2(tangent[1], tangent[0])
                                   + np.pi, phi_a + np.pi * (first + 0.5)))
    if pole == x_b:
        return crossing, (first, after), (arrival, arrival)
    # pushed off the pole towards n, the path passes it on the side of
    # n's horizontal part, perpendicular to r' there, so the azimuth
    # turns by pi the way of (n x r')_z = +-|n_h| |r'|, which is never 0
    departure = arrival + math.copysign(
        math.pi, n[0] * tangent[1] - n[1] * tangent[0])
    return pole, (first, (departure - phi_a) // math.pi), (arrival, departure)


class Constants(NamedTuple):
    """What the evaluation kernel (`evaluate_states`, `evaluate_angles`)
    reads of one trajectory or of several, as `stack` builds it.

    ``x_b``, ``crossing``, ``first`` and ``poles`` broadcast against the
    rotation angles: floats for one trajectory, and for several one
    element per point, its trajectory's. ``psi`` and ``turned`` hold,
    per trajectory and half of the path (from the source, from the
    target), its psi and -i (n.sigma) psi; ``centres`` holds per
    trajectory the branch centres phi_a + pi (k + 1/2) of the half-turns k
    before and after its one crossing, which is ``crossing`` (inf where it
    has none); ``limits`` its limits on both sides of an exact pole, or
    None where no trajectory has them. ``first`` is the index of a
    trajectory's pair in those four, and ``poles`` says where its limits
    apply."""

    x_b: object
    psi: np.ndarray
    turned: np.ndarray
    crossing: object
    centres: np.ndarray
    limits: object
    first: object
    poles: object


def stack(trajs, row=None):
    """The `Constants` of ``trajs``, one `np.array` per field from the
    Python scalars that each `Trajectory` keeps. For one trajectory the
    per-point fields are its floats, and ``row`` is not read; for several,
    the rotation angles lie on one flat axis, whose point i belongs to
    ``trajs[row[i]]``, and each per-point field is gathered by ``row``."""
    psi = np.array([traj.source + traj.arrival
                    for traj in trajs]).reshape(-1, 2)
    turned = -1j * np.array([traj.turned + traj.arrival_turned
                             for traj in trajs]).reshape(-1, 2)
    # the centre of the half-turn k before the crossing and after it: the
    # branch a raw azimuth there is moved to
    centres = np.array([traj.start[1] + math.pi * (k + 0.5)
                        for traj in trajs for k in traj.half_turns])
    limits = None
    if any(traj.limits for traj in trajs):
        limits = np.array([limit for traj in trajs
                           for limit in traj.limits or (math.nan, math.nan)])
    # positional, in the order of the fields: this runs on every `analyze`
    if len(trajs) == 1:
        (traj,) = trajs
        return Constants(traj.x_b, psi, turned, traj.crossing, centres,
                         limits, 0, True)
    return Constants(
        np.array([traj.x_b for traj in trajs]).take(row), psi, turned,
        np.array([traj.crossing for traj in trajs]).take(row), centres,
        limits, 2 * row, True if limits is None else np.array(
            [bool(traj.limits) for traj in trajs]).take(row))


def evaluate_states(constants, x, origin=0.0):
    """The kernel of `Trajectory.states_along`: the states at rotation
    angles origin + x of the trajectories in ``constants``."""
    x = np.asarray(x, dtype=float)
    x_b = constants.x_b
    at = x + origin
    back = at > 0.5 * x_b
    ang = 0.5 * np.where(back, x + (origin - x_b), at)
    # take, not fancy indexing: the same copy, several times faster
    half = back + constants.first
    return (np.cos(ang)[..., None] * constants.psi.take(half, axis=0)
            + np.sin(ang)[..., None] * constants.turned.take(half, axis=0))


def evaluate_angles(constants, x, origin=0.0):
    """The kernel of `Trajectory.angles_along`: polar angles and
    continuous azimuths at rotation angles origin + x. A raw azimuth is
    moved to the branch of its side of the crossing; at an exact pole,
    sin(theta) < POLE_EPS, which is tested only where limits exist, it is
    the limit on that side."""
    x = np.asarray(x, dtype=float)
    theta, raw = bloch_angles(evaluate_states(constants, x, origin))
    side = (constants.crossing < origin + x) + constants.first
    phi = nearest_branch(raw, constants.centres[side])
    if constants.limits is not None:
        pole = (np.sin(theta) < POLE_EPS) & constants.poles
        phi = np.where(pole, constants.limits[side], phi)
    return theta, phi


def sample_trajectory(problem, params, n=None):
    """The evolution on [0, t_b], each part of it computed once, in one
    pass: the field's direction and x_b, the circle, the start angles, psi0
    and (n.sigma) psi0, the arrival pair, the polar turns, the pole and the
    lift, all Python scalars, from which `stack` builds the kernel's
    `Constants`; what the problem shares with every member of its family
    (a, b, the source's angles) is the problem's own.
    ``n`` is accepted from callers that still pass a sample count, and
    neither read nor validated: nothing here samples, and `evolve` checks
    and samples its own grid.

    On the south pole the |0> amplitude of psi0 vanishes, and the global
    phase it fixes elsewhere falls to the raw azimuth of a vector that has
    none. There psi0 takes the phase in which its |1> amplitude has the
    departure azimuth phi_A, as it has for a source next to the pole along
    phi_A; piecewise mode's branch roots follow this phase.
    """
    _, axis = field_direction(problem, params)
    x_b = 2.0 * arrival_angle(problem, params)
    circle = Circle.about(axis, problem.a)
    source = problem.source_state
    theta_a, phi_a = problem.source_angles
    if math.sin(theta_a) < POLE_EPS:
        v = circle.v
        phi_a = math.atan2(v[1], v[0])
        if theta_a >= 0.5 * math.pi:
            source = source * cmath.exp(
                1j * (phi_a - cmath.phase(source[1])))
    source = tuple(source.tolist())
    turned = pauli_dot_times(axis, source)

    half = 0.5 * x_b
    c, s = math.cos(half), 1j * math.sin(half)
    target = problem.target_state
    overlap = sum(t.conjugate() * (c * p - s * q) for t, p, q in zip(
        target.tolist(), source, turned))
    # numpy's multiply, which fuses multiply-adds where the machine has
    # them: `evolve` prints the second half's amplitudes in its rounding
    psi = tuple((target * (overlap * (1.0 / abs(overlap)))).tolist())

    turns, approaches = _polar_turns(circle, x_b)
    pole = _pole(theta_a, psi, x_b, turns, approaches)
    crossing, half_turns, limits = _lift(circle, x_b, phi_a, pole)
    return Trajectory(problem, params, x_b, source, turned, circle,
                      (theta_a, phi_a), psi, pauli_dot_times(axis, psi),
                      turns, approaches, pole, crossing, half_turns, limits)
