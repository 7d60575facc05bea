"""Reference routes the tests compare the library against: the matrix
propagator applied to the source state, the arc length by composite
Simpson quadrature over a trajectory's samples, and the reference
integrator's steps as numpy matrix-vector products. None is a production
path; the library computes the first two in closed form, samples nothing,
and steps the integrator on Python complex scalars.

`sample` builds the uniform grid that `evolve` writes."""

import math
from typing import NamedTuple

import numpy as np

from blochcomplexity import propagator, suboptimal_field
from blochcomplexity.qubit import pauli_dot
from blochcomplexity.verify import STEPS


def amplitudes(problem, params, t):
    """State amplitudes at time t, from the closed-form propagator applied to
    the source state."""
    u = propagator(suboptimal_field(problem, params), t)
    return u @ problem.source_state


def integrate_numpy(f, psi0, total_time):
    """`integrate_schrodinger`'s STEPS fixed steps of the 4th-order Taylor
    matrix M = sum_k (dt G)^k / k!, G = -i (h.sigma), each applied as a
    numpy product ``M @ psi``, and the result renormalized."""
    gen = -1j * (total_time / STEPS) * pauli_dot(f.h)
    step = sum(np.linalg.matrix_power(gen, k) / math.factorial(k)
               for k in range(5))
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(STEPS):
        psi = step @ psi
    return psi / np.linalg.norm(psi)


class Samples(NamedTuple):
    t: np.ndarray
    states: np.ndarray
    theta: np.ndarray
    phi: np.ndarray


def sample(traj, n=4097):
    """The trajectory at ``n`` uniform times from 0 to t_b, as `evolve`
    writes it: the times, `states_at` and `angles_at` there."""
    t = np.linspace(0.0, traj.t_b, n)
    return Samples(t, traj.states_at(t), *traj.angles_at(t))


def simpson_uniform(y, dx):
    """Composite Simpson rule over uniformly spaced samples.

    Requires an odd sample count (even panel count) >= 3.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd sample count >= 3, got {n}")
    return (dx / 3.0) * (y[..., 0] + y[..., -1]
                         + 4.0 * y[..., 1:-1:2].sum(axis=-1)
                         + 2.0 * y[..., 2:-1:2].sum(axis=-1))


def path_length_numeric(traj):
    """Arc length by Simpson quadrature of 2*DeltaE(t) (hbar = 1) over the
    samples.

    DeltaE is evaluated in Bloch form sqrt(h^2 - (r(t).h)^2) with h the
    trajectory's field and r(t) the sampled Bloch vector, avoiding
    per-sample matrix traces.
    """
    f = suboptimal_field(traj.problem, traj.params)
    grid = sample(traj)
    c0 = grid.states[:, 0]
    c1 = grid.states[:, 1]
    r = np.stack([2.0 * (np.conj(c0) * c1).real,
                  2.0 * (np.conj(c0) * c1).imag,
                  np.abs(c0) ** 2 - np.abs(c1) ** 2], axis=1)
    h_sq = float(np.dot(f.h, f.h))
    delta_e = np.sqrt(np.clip(h_sq - (r @ f.h) ** 2, 0.0, None))
    dt = grid.t[1] - grid.t[0]
    return float(simpson_uniform(2.0 * delta_e, dt))
