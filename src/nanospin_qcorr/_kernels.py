"""Hot kernels for the measurement optimization in the discord solver.

The objective is the conditional entropy of qubit A after a projective
measurement along direction n(theta, phi) on qubit B:

    f(n) = sum_{s=+-} p_s H2((1 + |a_s|) / 2),
    p_s = (1 + s y.n) / 2,   a_s = (x + s T n) / (2 p_s),

with (x, y, T) the Bloch data of the state and H2 the binary entropy in
bits.  Minimizing f over n yields the classical correlation.

The objective is written once, vectorized with numpy over a (theta, phi)
grid and over any leading batch axes of (x, y, T): a batch of states is
evaluated in one call, a single state is the unbatched case and a single
direction is a 1x1 grid.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "conditional_entropy_grid",
    "conditional_entropy_point",
    "kernel_backend",
]

LOG2 = math.log(2.0)

# Probabilities below _P_FLOOR contribute nothing; spectrum weights below
# _H_FLOOR are treated as exact zeros inside the entropy.
_P_FLOOR = 1e-15
_H_FLOOR = 1e-14


def conditional_entropy_grid(x, y, T, thetas, phis, out=None):
    """Objective on a full (theta, phi) grid, vectorized with numpy.

    x and y have shape (..., 3) and T shape (..., 3, 3); the leading batch
    axes, if any, must match.  Returns shape (..., len(thetas), len(phis)).
    """
    x = np.asarray(x, dtype=float)[..., None, None, :]
    y = np.asarray(y, dtype=float)[..., None, :, None]
    T = np.swapaxes(np.asarray(T, dtype=float), -1, -2)[..., None, :, :]
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    n = np.empty((thetas.size, phis.size, 3))
    st = np.sin(thetas)[:, None]
    n[..., 0] = st * np.cos(phis)[None, :]
    n[..., 1] = st * np.sin(phis)[None, :]
    n[..., 2] = np.cos(thetas)[:, None]
    # Each theta row of n is one matrix of a stacked matmul with the state's
    # (transposed) T and y, broadcast over the batch axes.
    tn = n @ T
    yn = (n @ y)[..., 0]
    res = np.zeros(yn.shape)
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * yn)
        b = x + sign * tn
        r = np.linalg.norm(b, axis=-1) / np.maximum(2.0 * p, 1e-300)
        np.minimum(r, 1.0, out=r)
        h = np.zeros_like(p)
        for w in (0.5 * (1.0 - r), 0.5 * (1.0 + r)):
            mask = w > _H_FLOOR
            h[mask] -= w[mask] * np.log(w[mask])
        term = p * (h / LOG2)
        term[p < _P_FLOOR] = 0.0
        res += term
    if out is not None:
        out[...] = res
        return out
    return res


def conditional_entropy_point(x, y, T, theta: float, phi: float) -> float:
    """Objective at a single measurement direction (a 1x1 grid)."""
    return float(conditional_entropy_grid(x, y, T, [theta], [phi])[0, 0])


def kernel_backend() -> str:
    """Name of the backend the discord solver dispatches to."""
    return "numpy"
