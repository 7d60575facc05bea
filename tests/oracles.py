"""Reference routes the tests compare the library against: the matrix
propagator applied to the source state, and the arc length by composite
Simpson quadrature over a trajectory's samples. Neither is a production
path; the library computes both quantities in closed form."""

import numpy as np

from blochcomplexity import propagator, suboptimal_field


def amplitudes(problem, params, t):
    """State amplitudes at time t, from the closed-form propagator applied to
    the source state."""
    u = propagator(suboptimal_field(problem, params), t, problem.hbar)
    return u @ problem.source_state


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
    """Arc length by Simpson quadrature of 2*DeltaE(t)/hbar over the samples.

    DeltaE is evaluated in Bloch form sqrt(h^2 - (r(t).h)^2) with h the
    trajectory's field and r(t) the sampled Bloch vector, avoiding
    per-sample matrix traces.
    """
    f = traj.field
    c0 = traj.states[:, 0]
    c1 = traj.states[:, 1]
    r = np.stack([2.0 * (np.conj(c0) * c1).real,
                  2.0 * (np.conj(c0) * c1).imag,
                  np.abs(c0) ** 2 - np.abs(c1) ** 2], axis=1)
    h_sq = float(np.dot(f.h, f.h))
    delta_e = np.sqrt(np.clip(h_sq - (r @ f.h) ** 2, 0.0, None))
    dt = traj.t[1] - traj.t[0]
    return float(simpson_uniform(2.0 * delta_e / traj.problem.hbar, dt))
