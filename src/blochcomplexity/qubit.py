"""Pauli algebra and conversions between two-level state vectors and Bloch
vectors.

States are length-2 complex ndarrays (amplitudes of |0> and |1>), operators
are 2x2 complex ndarrays, Bloch vectors are length-3 float ndarrays.
"""

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# sin(theta) below this is an exact pole: `state_from_bloch` puts the azimuth
# at 0 there, and along a trajectory it is a one-sided limit
POLE_EPS = 1e-12


def pauli_dot(v):
    """v_x*sigma_x + v_y*sigma_y + v_z*sigma_z for a real 3-vector v.

    The result is Hermitian and traceless with eigenvalues +/-|v|.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError("pauli_dot expects a finite 3-vector")
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def cross(a, b):
    """a x b of 3-vectors: np.cross's arithmetic, at a tenth of its cost."""
    a0, a1, a2 = np.asarray(a).tolist()
    b0, b1, b2 = np.asarray(b).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def state_from_bloch(v):
    """State vector (cos(theta/2), exp(i*phi) sin(theta/2)) for a unit Bloch
    vector, with the global phase fixed so the |0> amplitude is real >= 0.
    In the southern hemisphere the half-angle is measured from the south
    pole, pi/2 - theta/2, so that cos(theta/2) keeps its relative precision
    there and is exactly 0 at v = -z."""
    v = _require_unit(v, "v")
    across = np.hypot(v[0], v[1])
    phi = 0.0 if across < POLE_EPS else np.arctan2(v[1], v[0])
    if v[2] >= 0.0:
        half = np.arctan2(across, v[2]) / 2.0
        c0, c1 = np.cos(half), np.sin(half)
    else:
        half = np.arctan2(across, -v[2]) / 2.0
        c0, c1 = np.sin(half), np.cos(half)
    return np.array([c0, np.exp(1j * phi) * c1], dtype=complex)


def bloch_angles(states):
    """Polar angles 2*arctan(|c1|/|c0|) in [0, pi] and raw azimuths
    arg(c1) - arg(c0) in (-pi, pi] of states with shape (..., 2).

    The azimuth is returned as computed even at the poles, where it carries no
    information; callers treat sin(theta) < POLE_EPS as a pole.
    """
    states = np.asarray(states)
    c0 = states[..., 0]
    c1 = states[..., 1]
    return 2.0 * np.arctan2(np.abs(c1), np.abs(c0)), np.angle(c1 * np.conj(c0))


def _require_unit(v, name):
    """``v`` as a float array scaled to norm 1; rejects anything but a
    finite 3-vector within 1e-9 of unit norm, naming the argument."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be a finite 3-vector")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector, got norm {norm}")
    return v / norm
