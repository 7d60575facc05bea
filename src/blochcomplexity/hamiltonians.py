"""Stationary-field constructions for driving a qubit from a source to a
target Bloch vector, and the closed-form propagator they generate.

For a problem with source a, target b and separation angle
theta_AB = atan2(|a x b|, a.b), the field family is

    E*[cos(alpha)*(a+b)/|a+b| + sin(alpha)*(a x b)/|a x b|],  0 <= alpha <= pi,

which reaches the target along a non-geodesic path, except at alpha = pi/2,
the rotation-axis field E*(a x b)/|a x b| that generates the time-optimal
(geodesic) transfer. Every member has magnitude E exactly (the two basis
directions are orthonormal), so the propagator for field h over time t is
cos(|h| t) * 1 - i sin(|h| t) * (h_hat . sigma), in units with hbar = 1:
the energy E only sets how fast the path is run, and every geometric
quantity of it is the same at every E.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometry
from .qubit import (IDENTITY, _require_unit, bloch_angles, cross, dot,
                    pauli_dot, state_from_bloch)

# |a x b| = sin(theta_AB) or |a + b| below this leaves the field family
# without its axis or its bisector
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class EvolutionProblem:
    """Source/target Bloch vectors with the energy scale of the drive.

    ``a_hat`` and ``b_hat`` are scaled to norm 1 once, and ``theta_ab`` and
    the read-only states are built from those floats. Construction raises
    `DegenerateGeometry` for a pair without the rotation axis a x b or the
    bisector a + b, so every problem that exists has its field family.

    The geometry that every member of the family shares is kept as Python
    floats: ``a`` and ``b`` (the unit vectors as tuples), ``plus`` = a + b
    and ``axis`` = a x b with their norms ``plus_norm`` and ``axis_norm``;
    and the source's angles (``source_angles``) are computed on first use,
    once per problem.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray
    energy: float = 1.0
    theta_ab: float = field(init=False)
    a: tuple = field(init=False, repr=False)
    b: tuple = field(init=False, repr=False)
    plus: tuple = field(init=False, repr=False)
    axis: tuple = field(init=False, repr=False)
    plus_norm: float = field(init=False, repr=False)
    axis_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        a = _require_unit(self.a_hat, "a_hat")
        b = _require_unit(self.b_hat, "b_hat")
        # also false for 0, negative values and NaN; beyond this range the
        # arrival time x_b / (2E) can overflow, and a subnormal E leaves the
        # field h = E n without a reliable direction
        if not 1e-300 <= self.energy <= 1e300:
            raise ValueError(
                f"energy must lie in [1e-300, 1e300], got {self.energy}")
        axis = cross(a, b)
        axis_norm = math.hypot(*axis)
        theta = math.atan2(axis_norm, dot(a, b))
        if math.sin(theta) < DEGENERACY_EPS:
            raise DegenerateGeometry(
                f"source and target are (anti)parallel: theta_ab={theta}")
        plus = tuple(p + q for p, q in zip(a, b))
        plus_norm = math.hypot(*plus)
        if plus_norm < DEGENERACY_EPS:
            raise DegenerateGeometry("antipodal vectors: bisector undefined")
        for name, value in (("a_hat", _read_only(np.array(a))),
                            ("b_hat", _read_only(np.array(b))),
                            ("theta_ab", theta), ("a", a), ("b", b),
                            ("plus", plus), ("axis", axis),
                            ("plus_norm", plus_norm),
                            ("axis_norm", axis_norm)):
            object.__setattr__(self, name, value)

    @cached_property
    def source_state(self):
        return _read_only(state_from_bloch(*self.a))

    @cached_property
    def target_state(self):
        return _read_only(state_from_bloch(*self.b))

    @cached_property
    def source_angles(self):
        """(theta_A, phi_A) of the source state, as `bloch_angles` gives
        them: floats, the same for every member of the family."""
        return tuple(map(float, bloch_angles(self.source_state)))


@dataclass(frozen=True)
class SubOptimalParams:
    """Mixing angle alpha of the field family, 0 <= alpha <= pi (a float)."""

    alpha: float

    def __post_init__(self):
        alpha = float(self.alpha)
        if not 0.0 <= alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True, eq=False)
class FieldVector:
    """A stationary non-zero field h (energy units) defining H = h . sigma.
    ``h`` is a read-only copy of the input, so its cached magnitude and
    direction cannot go stale."""

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        parts = h.tolist()
        if h.shape != (3,) or not all(map(math.isfinite, parts)):
            raise ValueError("field must be a finite 3-vector")
        if not any(parts):
            raise ValueError("zero field has no direction")
        object.__setattr__(self, "h", _read_only(h))

    @cached_property
    def magnitude(self):
        """|h| without squaring the components, so that it neither over- nor
        underflows for any finite field."""
        return math.hypot(*self.h.tolist())

    @cached_property
    def direction(self):
        return _read_only(self.h / self.magnitude)


def suboptimal_field(problem, params):
    """Member of the field family at mixing angle alpha; magnitude E."""
    unit, direction = field_direction(problem, params)
    f = FieldVector([problem.energy * u for u in unit])
    # the direction is the unit combination's own, the same at every energy
    # scale; h/|h| would round E into it
    f.__dict__["direction"] = _read_only(np.array(direction))
    return f


def field_direction(problem, params):
    """The family's unit combination at mixing angle alpha,
    cos(alpha) (a+b)/|a+b| + sin(alpha) (a x b)/|a x b|, as a list of
    floats, which `suboptimal_field` scales by E; and its direction, the
    combination over its own norm, as a tuple of floats, the axis that a
    trajectory turns about."""
    cos_a, sin_a = math.cos(params.alpha), math.sin(params.alpha)
    plus_norm, axis_norm = problem.plus_norm, problem.axis_norm
    unit = [cos_a * p / plus_norm + sin_a * q / axis_norm
            for p, q in zip(problem.plus, problem.axis)]
    x, y, z = unit
    norm = math.hypot(x, y, z)
    return unit, (x / norm, y / norm, z / norm)


def propagator(f, t):
    """Unitary exp(-i (h.sigma) t) in closed form.

    Unitary with determinant 1 by construction.
    """
    if not 0.0 <= t < math.inf:  # also false for NaN
        raise ValueError(
            f"propagation time must be nonnegative and finite, got {t}")
    angle = f.magnitude * t
    return np.cos(angle) * IDENTITY - 1j * np.sin(angle) * pauli_dot(f.direction)


def arrival_angle(problem, params):
    """E t(alpha), the amplitudes' phase angle at arrival, the same at
    every energy scale; the arrival time of the family member is

        t(alpha) = atan2(sin(theta_AB/2), sin(alpha) cos(theta_AB/2)) / E.

    It equals theta_AB/(2E) at alpha = pi/2 and is symmetric under
    alpha -> pi - alpha. The atan2 keeps the angle's relative precision at
    every separation, where its cosine rounds to 1 once theta_AB is small.
    """
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
