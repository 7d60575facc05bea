"""Composite Simpson quadrature on uniform grids."""

import numpy as np


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
