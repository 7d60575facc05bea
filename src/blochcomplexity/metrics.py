"""Path length, geodesic and speed efficiencies, and the curvature
coefficient of a stationary evolution.

Lengths are measured so that the geodesic joining the source and target
states has length theta_AB (i.e. ds/dt = 2*DeltaE/hbar, with DeltaE the
energy uncertainty). Efficiencies are dimensionless ratios in (0, 1]; the
curvature coefficient 4*(a.h)^2 / (h^2 - (a.h)^2) vanishes exactly for the
rotation-axis (time-optimal) field. Both are computed from the field
direction alone, so they do not depend on the energy scale.
"""

import math

import numpy as np

from .errors import ParallelField
from .hamiltonians import evolution_time


def path_length(problem, params):
    """Closed-form arc length of the family member at mixing angle alpha:

        s(alpha) = 2*sqrt(1 - cos^2(alpha) cos^2(theta_AB/2)) * E*t(alpha)/hbar

    which reduces to theta_AB at alpha = pi/2.
    """
    return _arc_length(problem, params, evolution_time(problem, params))


def _arc_length(problem, params, t):
    """The closed form of `path_length` at a given evolution time t(alpha),
    for callers that already hold it. The root is taken as hypot(sin(alpha),
    cos(alpha) sin(theta_AB/2)): the same value, without the cancellation
    that makes it 0 once cos(theta_AB/2) rounds to 1."""
    half = problem.theta_ab / 2.0
    root = np.hypot(np.sin(params.alpha), np.cos(params.alpha) * np.sin(half))
    return 2.0 * root * problem.omega * t


def geodesic_efficiency(problem, params):
    """theta_AB/s; equals 1 exactly when the path is the geodesic
    (alpha = pi/2)."""
    return problem.theta_ab / path_length(problem, params)


def speed_efficiency(f, a_hat):
    """sqrt(h_perp^2) / |h|: the fraction of the drive that actually moves the
    state instead of spinning it about its own axis."""
    return math.sqrt(_split(f, a_hat)[1])


def curvature_coefficient(f, a_hat):
    """4*(a.h)^2 / (h^2 - (a.h)^2), the squared bending coefficient of the
    path generated by field h from Bloch vector a, as 4c^2/(1 - c^2)."""
    c, perp = _split(f, a_hat)
    if perp < 1e-12:
        raise ParallelField("field is parallel to the Bloch vector")
    return 4.0 * c * c / perp


def _split(f, a_hat):
    """c = n.a for the field direction n, and 1 - c^2 taken as |a - c n|^2,
    which keeps its relative precision where c^2 rounds close to 1."""
    n = f.direction
    c = float(np.dot(n, a_hat))
    across = a_hat - c * n
    return c, float(across @ across)
