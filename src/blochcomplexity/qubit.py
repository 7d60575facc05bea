"""Pauli algebra and conversions between two-level state vectors and Bloch
vectors.

States are length-2 complex ndarrays (amplitudes of |0> and |1>), operators
are 2x2 complex ndarrays, Bloch vectors are length-3 float ndarrays; the
helpers for one evolution's geometry take and give Python floats and
complex numbers.
"""

import math

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


def pauli_dot(v):
    """v_x*sigma_x + v_y*sigma_y + v_z*sigma_z for a real 3-vector v.

    The result is Hermitian and traceless with eigenvalues +/-|v|.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError("pauli_dot expects a finite 3-vector")
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def cross(a, b):
    """a x b of float 3-sequences, as a tuple: np.cross's arithmetic."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def dot(a, b):
    """a . b of 3-vectors given as float sequences, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def pauli_dot_times(n, psi):
    """(n . sigma) psi: `pauli_dot` (n) @ psi in Python complex arithmetic,
    for a 3-sequence of floats ``n`` and a 2-sequence of complex numbers
    ``psi``; a tuple of two complex numbers."""
    n0, n1, n2 = n
    p0, p1 = psi
    return (n2 * p0 + complex(n0, -n1) * p1,
            complex(n0, n1) * p0 - n2 * p1)


def state_from_bloch(x, y, z):
    """State vector (cos(theta/2), exp(i*phi) sin(theta/2)) for the unit
    Bloch vector v = (x, y, z), floats taken as given (`EvolutionProblem`
    validates them once), with the global phase fixed so the |0> amplitude
    is real >= 0. In the southern hemisphere the half-angle is measured
    from the south pole, pi/2 - theta/2, so that cos(theta/2) keeps its
    relative precision there and is exactly 0 at v = -z. The state is the
    literal one of v: its azimuth is atan2(v_y, v_x), and 0 only on the z
    axis, where the signed zeros would read it as +-pi. Which states are
    poles is a trajectory's decision (`trajectory.POLE_EPS`)."""
    across = math.hypot(x, y)
    if z >= 0.0:
        half = math.atan2(across, z) / 2.0
        c0, c1 = math.cos(half), math.sin(half)
    else:
        half = math.atan2(across, -z) / 2.0
        c0, c1 = math.sin(half), math.cos(half)
    phi = math.atan2(y, x) if across else 0.0
    return np.array([c0, complex(c1 * math.cos(phi), c1 * math.sin(phi))])


def bloch_angles(states):
    """Polar angles 2*arctan(|c1|/|c0|) in [0, pi] and raw azimuths
    arg(c1) - arg(c0) in (-pi, pi] of states with shape (..., 2).

    The azimuth is returned as computed even at the poles, where it carries no
    information; a trajectory treats sin(theta) < `trajectory.POLE_EPS` as a
    pole.
    """
    states = np.asarray(states)
    c0 = states[..., 0]
    c1 = states[..., 1]
    # np.multiply, not `*`: from 256 KiB on, `*` reuses the temporary
    # conjugate as its output and multiplies in the other order, which a
    # fused complex product rounds differently, so a point's azimuth would
    # depend on the size of the array it is evaluated in
    z = np.multiply(c1, np.conj(c0))
    return 2.0 * np.arctan2(np.abs(c1), np.abs(c0)), np.arctan2(z.imag, z.real)


def _require_unit(v, name):
    """``v`` scaled to norm 1, as a tuple of floats; rejects anything but a
    finite 3-vector within 1e-9 of unit norm, naming the argument."""
    v = np.asarray(v, dtype=float)
    parts = v.tolist()
    if v.shape != (3,) or not all(map(math.isfinite, parts)):
        raise ValueError(f"{name} must be a finite 3-vector")
    x, y, z = parts
    norm = math.hypot(x, y, z)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector, got norm {norm}")
    return x / norm, y / norm, z / norm
