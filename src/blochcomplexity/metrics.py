"""Path length, geodesic and speed efficiencies, and the curvature
coefficient of a stationary evolution.

Lengths are measured so that the geodesic joining the source and target
states has length theta_AB (i.e. ds/dt = 2*DeltaE with hbar = 1, DeltaE
being the energy uncertainty). Efficiencies are dimensionless ratios in
(0, 1]; the curvature coefficient 4*(a.h)^2 / (h^2 - (a.h)^2) vanishes
exactly for the rotation-axis (time-optimal) field. All of them come from
the geometry alone, the length from the arrival angle and the rest from the
field direction, so none depends on the energy scale.
"""

import math

from .errors import ParallelField
from .hamiltonians import arrival_angle
from .qubit import dot
from .trajectory import Circle


def path_length(problem, params):
    """Closed-form arc length of the family member at mixing angle alpha:

        s(alpha) = 2*sqrt(1 - cos^2(alpha) cos^2(theta_AB/2)) * E t(alpha)

    which reduces to theta_AB at alpha = pi/2. E t(alpha) is the
    `arrival_angle`, so no energy scale enters. The root is taken as
    hypot(sin(alpha), cos(alpha) sin(theta_AB/2)): the same value, without
    the cancellation that makes it 0 once cos(theta_AB/2) rounds to 1.
    """
    return arc_length(problem, params, 2.0 * arrival_angle(problem, params))


def arc_length(problem, params, x_b):
    """`path_length` from the rotation angle ``x_b`` = 2 E t(alpha)."""
    half = problem.theta_ab / 2.0
    return x_b * math.hypot(math.sin(params.alpha),
                            math.cos(params.alpha) * math.sin(half))


def geodesic_efficiency(problem, params):
    """theta_AB/s; equals 1 exactly when the path is the geodesic
    (alpha = pi/2)."""
    return problem.theta_ab / path_length(problem, params)


def speed_efficiency(f, a_hat):
    """sqrt(h_perp^2) / |h|: the fraction of the drive that actually moves the
    state instead of spinning it about its own axis."""
    return _speed_efficiency(
        Circle.about(f.direction.tolist(), a_hat.tolist()))


def curvature_coefficient(f, a_hat):
    """4*(a.h)^2 / (h^2 - (a.h)^2), the squared bending coefficient of the
    path generated by field h from Bloch vector a, as 4c^2/|a - c n|^2 with
    c = n.a, from the split `Circle.about`."""
    return _curvature_coefficient(
        Circle.about(f.direction.tolist(), a_hat.tolist()))


def _speed_efficiency(circle):
    """`speed_efficiency` of the circle of a about the field axis: |u|."""
    return math.sqrt(dot(circle.u, circle.u))


def _curvature_coefficient(circle):
    """`curvature_coefficient` of the circle of a about the field axis."""
    perp = dot(circle.u, circle.u)
    if perp == 0.0:
        raise ParallelField("field is parallel to the Bloch vector")
    return 4.0 * circle.na * circle.na / perp
