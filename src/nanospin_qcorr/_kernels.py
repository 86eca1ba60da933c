"""Hot kernels for the measurement optimization in the discord solver.

The objective is the conditional entropy of qubit A after a projective
measurement along direction n(theta, phi) on qubit B:

    f(n) = sum_{s=+-} p_s H2((1 + |a_s|) / 2),
    p_s = (1 + s y.n) / 2,   a_s = (x + s T n) / (2 p_s),

with (x, y, T) the Bloch data of the state and H2 the binary entropy in
bits.  Minimizing f over n yields the classical correlation.

The objective is written once, ``conditional_entropy_dirs``, vectorized
with numpy over a batch of states, each with its own array of directions.
A (theta, phi) grid shared by every state and a single direction (a 1x1
grid) are thin wrappers that build the directions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "conditional_entropy_dirs",
    "conditional_entropy_grid",
    "conditional_entropy_point",
    "kernel_backend",
]

LOG2 = math.log(2.0)

# Probabilities below _P_FLOOR contribute nothing; spectrum weights below
# _H_FLOOR are treated as exact zeros inside the entropy.
_P_FLOOR = 1e-15
_H_FLOOR = 1e-14


def _directions(thetas, phis):
    """Unit vectors n(theta, phi), thetas (..., A) by phis (..., B): (..., A, B, 3)."""
    st = np.sin(thetas)[..., :, None]
    n = np.empty(st.shape[:-1] + np.shape(phis)[-1:] + (3,))
    n[..., 0] = st * np.cos(phis)[..., None, :]
    n[..., 1] = st * np.sin(phis)[..., None, :]
    n[..., 2] = np.cos(thetas)[..., :, None]
    return n


def conditional_entropy_dirs(x, y, T, n):
    """Objective along unit directions n (..., M, 3), shape (..., M).

    x and y have shape (..., 3) and T shape (..., 3, 3), batch axes as n's.
    """
    x = np.asarray(x, dtype=float)[..., :, None]
    y = np.asarray(y, dtype=float)[..., None, :]
    T = np.asarray(T, dtype=float)
    n = np.swapaxes(np.asarray(n, dtype=float), -1, -2)
    # Directions as columns: T n and y.n get one contiguous row per component.
    tn = T @ n
    yn = (y @ n)[..., 0, :]
    res = np.zeros(yn.shape)
    for p, b in ((0.5 * (1.0 + yn), x + tn), (0.5 * (1.0 - yn), x - tn)):
        b0, b1, b2 = np.moveaxis(b, -2, 0)
        r = np.sqrt(b0 * b0 + b1 * b1 + b2 * b2) / np.maximum(2.0 * p, 1e-300)
        np.minimum(r, 1.0, out=r)
        h = np.zeros_like(p)
        for w in (0.5 * (1.0 - r), 0.5 * (1.0 + r)):
            live = w > _H_FLOOR
            h -= np.where(live, w * np.log(np.where(live, w, 1.0)), 0.0)
        res += np.where(p < _P_FLOOR, 0.0, p * (h / LOG2))
    return res


def conditional_entropy_grid(x, y, T, thetas, phis):
    """Objective on a full (theta, phi) grid shared by every state.

    x and y have shape (..., 3) and T shape (..., 3, 3); the leading batch
    axes, if any, must match.  Returns shape (..., len(thetas), len(phis)).
    """
    n = _directions(np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float))
    res = conditional_entropy_dirs(x, y, T, n.reshape(-1, 3))
    return res.reshape(res.shape[:-1] + n.shape[:2])


def conditional_entropy_point(x, y, T, theta: float, phi: float) -> float:
    """Objective at a single measurement direction (a 1x1 grid)."""
    return float(conditional_entropy_grid(x, y, T, [theta], [phi])[0, 0])


def kernel_backend() -> str:
    """Name of the backend the discord solver dispatches to."""
    return "numpy"
