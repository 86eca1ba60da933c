"""Hot kernels for the measurement optimization in the discord solver.

The objective is the conditional entropy of qubit A after a projective
measurement along direction n(theta, phi) on qubit B:

    f(n) = sum_{s=+-} p_s H2((1 + |a_s|) / 2),
    p_s = (1 + s y.n) / 2,   a_s = (x + s T n) / (2 p_s),

with (x, y, T) the Bloch data of the state and H2 the binary entropy in
bits.  Minimizing f over n yields the classical correlation.

The objective is written once, ``conditional_entropy_dirs``, vectorized
with numpy over a batch of states, each with its own array of directions,
and evaluated in place, rows sliced so that no pass holds more than
_DIRECTIONS directions.  A (theta, phi) grid shared by every state and a
single direction (a 1x1 grid) are thin wrappers that build the directions.
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
# Most directions one kernel pass evaluates: its temporaries, 8 or 24 bytes
# a direction each, then stay in cache.
_DIRECTIONS = 4096


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

    x and y have shape (..., 3) and T shape (..., 3, 3), on the same batch
    axes, which n shares or lacks.  Rows pass through _DIRECTIONS // M (at
    least one) at a time, in place; a row's value does not depend on its pass.
    """
    x, y, T, n = (np.asarray(a, dtype=float) for a in (x, y, T, n))
    batch, m = x.shape[:-1], n.shape[-2]
    rows = math.prod(batch)
    x, y, T = x.reshape(rows, 3, 1), y.reshape(rows, 1, 3), T.reshape(rows, 3, 3)
    # Directions as columns: T n and y.n get one contiguous row per component.
    n = np.broadcast_to(n, batch + (m, 3)).reshape(rows, m, 3).swapaxes(1, 2)
    res = np.zeros((rows, m))
    step = max(1, _DIRECTIONS // max(m, 1))
    for c in (slice(lo, lo + step) for lo in range(0, rows, step)):
        tn, yn = T[c] @ n[c], (y[c] @ n[c])[:, 0]
        # Each step of the plain expression for sum_s p_s H2, in its order;
        # x - T n overwrites T n once x + T n is built.  2 p_s = 1 + s y.n
        # divides; -(w ln w) is 0 - w ln w but for the sign of a 0 res drops.
        for p, b in ((1.0 + yn, x[c] + tn), (1.0 - yn, np.subtract(x[c], tn, tn))):
            b *= b
            r = np.sqrt(b[:, 0] + b[:, 1] + b[:, 2])
            r /= np.maximum(p, 1e-300)
            np.minimum(r, 1.0, out=r)
            p *= 0.5
            # A weight at or below _H_FLOOR takes ln 1 = 0: its product is 0.
            h = None
            for w in (1.0 - r, np.add(1.0, r, out=r)):
                w *= 0.5
                w *= np.log(np.where(w > _H_FLOOR, w, 1.0))
                h = np.negative(w, out=w) if h is None else np.subtract(h, w, out=h)
            h /= LOG2
            h *= p
            h[p < _P_FLOOR] = 0.0
            res[c] += h
    return res.reshape(batch + (m,))


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
