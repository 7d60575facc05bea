"""Small deterministic numerical kernels: composite Simpson on uniform grids,
(vectorized) golden-section search, and scalar bisection."""

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


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


def golden_section_min(f, a, b, xtol=1e-10):
    """Elementwise golden-section minimization of ``f`` over brackets [a, b].

    ``a`` and ``b`` may be arrays of equal shape; ``f`` must broadcast over
    arrays of abscissae, including a leading axis of length 2 that holds the
    two probes of every bracket. Returns the bracket midpoints after shrinking
    every bracket below ``xtol``. Both probes are evaluated in one call per
    iteration, with no carried state: simpler than the classic
    single-evaluation variant and still cheap because all brackets shrink in
    lockstep.
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    h0 = float(np.max(b - a, initial=0.0))
    if h0 <= xtol:
        return (a + b) / 2.0
    n_iter = int(math.ceil(math.log(xtol / h0) / math.log(INV_PHI)))
    for _ in range(n_iter):
        h = b - a
        c = a + INV_PHI2 * h
        d = a + INV_PHI * h
        f_c, f_d = f(np.stack([c, d]))
        take_left = f_c < f_d
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
    return (a + b) / 2.0


def golden_section_max(f, a, b, xtol=1e-10):
    return golden_section_min(lambda x: -f(x), a, b, xtol=xtol)


def bisect_root(f, a, b, xtol=1e-10):
    """Root of a scalar sign change on [a, b] by plain bisection."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bisect_root requires a sign change on the bracket")
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
