"""Stationary-field constructions for driving a qubit from a source to a
target Bloch vector, and the closed-form propagator they generate.

For a problem with source a, target b and separation angle
theta_AB = atan2(|a x b|, a.b), the field family is

    E*[cos(alpha)*(a+b)/|a+b| + sin(alpha)*(a x b)/|a x b|],  0 <= alpha <= pi,

which reaches the target along a non-geodesic path, except at alpha = pi/2,
the rotation-axis field E*(a x b)/|a x b| that generates the time-optimal
(geodesic) transfer. Every member has magnitude E exactly (the two basis
directions are orthonormal), so the propagator for field h over time t is
cos(|h| t / hbar) * 1 - i sin(|h| t / hbar) * (h_hat . sigma).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometry
from .qubit import IDENTITY, _require_unit, cross, pauli_dot, state_from_bloch

# |a x b| = sin(theta_AB) below this makes the axis construction blow up
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class EvolutionProblem:
    """Source/target Bloch vectors with the energy scale of the drive.

    ``theta_ab`` is computed from the vectors; ``source_state`` and
    ``target_state`` are computed once and read-only.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray
    energy: float = 1.0
    hbar: float = 1.0
    theta_ab: float = field(init=False)

    def __post_init__(self):
        a = _require_unit(self.a_hat, "a_hat")
        b = _require_unit(self.b_hat, "b_hat")
        for name in ("energy", "hbar"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # also false for NaN
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        # beyond this range |h|/hbar or t_b, and with it the rotation angle
        # 2|h| t_b / hbar, can overflow
        if not 1e-300 <= self.omega <= 1e300:
            raise ValueError(
                f"energy/hbar must lie in [1e-300, 1e300], got {self.omega}")
        # each bounded too: a subnormal E leaves the field h = E n without a
        # reliable direction
        for name in ("energy", "hbar"):
            value = getattr(self, name)
            if not 1e-300 <= value <= 1e300:
                raise ValueError(
                    f"{name} must lie in [1e-300, 1e300], got {value}")
        theta = float(np.arctan2(np.linalg.norm(cross(a, b)), np.dot(a, b)))
        object.__setattr__(self, "a_hat", a)
        object.__setattr__(self, "b_hat", b)
        object.__setattr__(self, "theta_ab", theta)

    @property
    def omega(self):
        return self.energy / self.hbar

    @cached_property
    def source_state(self):
        return _read_only(state_from_bloch(self.a_hat))

    @cached_property
    def target_state(self):
        return _read_only(state_from_bloch(self.b_hat))

    def require_nondegenerate(self):
        if np.sin(self.theta_ab) < DEGENERACY_EPS:
            raise DegenerateGeometry(
                f"source and target are (anti)parallel: theta_ab={self.theta_ab}")


@dataclass(frozen=True)
class SubOptimalParams:
    """Mixing angle alpha of the field family, 0 <= alpha <= pi."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= np.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")


@dataclass(frozen=True)
class FieldVector:
    """A stationary field h (energy units) defining H = h . sigma. ``h`` is
    a read-only copy of the input, so its cached magnitude and direction
    cannot go stale."""

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.shape != (3,) or not np.all(np.isfinite(h)):
            raise ValueError("field must be a finite 3-vector")
        object.__setattr__(self, "h", _read_only(h))

    @cached_property
    def magnitude(self):
        """|h| without squaring the components, so that it neither over- nor
        underflows for any finite field."""
        return math.hypot(*self.h)

    @cached_property
    def direction(self):
        m = self.magnitude
        if m == 0.0:
            raise ValueError("zero field has no direction")
        return _read_only(self.h / m)


def suboptimal_field(problem, params):
    """Member of the field family at mixing angle alpha; magnitude E."""
    problem.require_nondegenerate()
    axis = cross(problem.a_hat, problem.b_hat)
    plus = problem.a_hat + problem.b_hat
    plus_norm = np.linalg.norm(plus)
    if plus_norm < DEGENERACY_EPS:
        raise DegenerateGeometry("antipodal vectors: bisector undefined")
    unit = (np.cos(params.alpha) * plus / plus_norm
            + np.sin(params.alpha) * axis / np.linalg.norm(axis))
    f = FieldVector(problem.energy * unit)
    # the direction is the unit combination's own, the same at every energy
    # scale; h/|h| would round E into it
    f.__dict__["direction"] = _read_only(unit / math.hypot(*unit))
    return f


def propagator(f, t, hbar=1.0):
    """Unitary exp(-i (h.sigma) t / hbar) in closed form.

    Unitary with determinant 1 by construction.
    """
    if t < 0.0:
        raise ValueError("propagation time must be nonnegative")
    m = f.magnitude
    if m == 0.0:
        raise ValueError("zero field: propagator is trivially the identity")
    angle = m * t / hbar
    return np.cos(angle) * IDENTITY - 1j * np.sin(angle) * pauli_dot(f.direction)


def evolution_time(problem, params):
    """Arrival time of the family member at the target state:

        t(alpha) = (hbar/E) atan2(sin(theta_AB/2), sin(alpha) cos(theta_AB/2))

    Equals hbar*theta_AB/(2E) at alpha = pi/2 and is symmetric under
    alpha -> pi - alpha. The atan2 keeps the angle's relative precision at
    every separation, where its cosine rounds to 1 once theta_AB is small.
    """
    return (problem.hbar / problem.energy) * arrival_angle(problem, params)


def arrival_angle(problem, params):
    """E t(alpha)/hbar, the amplitudes' phase angle at arrival: the atan2 of
    `evolution_time`, which no energy scale enters."""
    problem.require_nondegenerate()
    half = problem.theta_ab / 2.0
    return math.atan2(math.sin(half), math.sin(params.alpha) * math.cos(half))


def equatorial_problem(theta_ab=np.pi / 2.0, energy=1.0):
    """Problem with source x-hat and target in the xy-plane at angle theta_ab.

    theta_ab = pi/2 gives the x-hat -> y-hat pair used throughout the
    reference tables.
    """
    if not 0.0 < theta_ab < np.pi:
        raise ValueError("theta_ab must lie strictly inside (0, pi)")
    b = np.array([np.cos(theta_ab), np.sin(theta_ab), 0.0])
    return EvolutionProblem(a_hat=np.array([1.0, 0.0, 0.0]), b_hat=b,
                            energy=energy)


def _read_only(a):
    a.flags.writeable = False
    return a
