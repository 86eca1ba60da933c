"""Geometric (Hilbert-Schmidt) discord of two-qubit states.

In Bloch form, with x the local vector of the first qubit and T the
correlation matrix, the geometric discord for measurements on the first
qubit is

    Q_g = (||x||^2 + ||T||^2 - k_max) / 2,

where k_max is the largest eigenvalue of K = x x^T + T T^T.  The factor
1/2 fixes the normalization used throughout this package; no rescaling
by the maximal value is applied.

For the centrosymmetric family K is block-diagonal (an isolated xx entry
plus a symmetric 2x2 block in the yz sector), so the spectrum has a
closed form.  It is evaluated for arrays of parameter rows; a single
state is the one-row case.
"""

from __future__ import annotations

import math

import numpy as np

from .cs_matrix import CSDensityMatrix, check_cs_rows
from .states import bloch_data, check_density_matrix

__all__ = [
    "k_spectrum_rows",
    "geometric_discord_rows",
    "geometric_discord_cs",
    "geometric_discord_generic",
    "geometric_discord_high_t_asymptotic",
]

# Relative cancellation level in the 2x2 eigenvalue discriminant beyond
# which the difference is recomputed with compensated summation.
_CANCEL_GUARD = 1e-8


def k_spectrum_rows(params) -> np.ndarray:
    """Closed-form spectra (k1, k2, k3) of K for rows of CS parameters.

    ``params`` has shape (R, 7); returns shape (R, 3).  Rows whose yz-block
    discriminant cancels beyond _CANCEL_GUARD recompute it with
    compensated summation, one row at a time.
    """
    p1, p2, p3, p4, p5, p6, p7 = np.asarray(params, dtype=float).T
    k1 = 16.0 * p4 * p4 + 4.0 * (p6 + p7) ** 2
    # yz block of K: [[a, c], [c, b]], with a = a1 + a2 and b = b1 + b2.
    a1 = 4.0 * (p7 - p6) ** 2
    a2 = 16.0 * p5 * p5
    b1 = 16.0 * p3 * p3
    b2 = (4.0 * p1 - 1.0) ** 2
    a = a1 + a2
    b = b1 + b2
    c = -8.0 * p3 * (p7 - p6) - 4.0 * p5 * (4.0 * p1 - 1.0)
    diff = a - b
    for k in np.flatnonzero(np.abs(diff) < _CANCEL_GUARD * (np.abs(a) + np.abs(b))):
        diff[k] = math.fsum([a1[k], a2[k], -b1[k], -b2[k]])
    k2 = 0.5 * (a + b) + 0.5 * np.sqrt(diff * diff + 4.0 * c * c)
    # k3 = det / k2: the block is the Gram matrix of (2 (p7 - p6), 4 p5) and
    # (-4 p3, 1 - 4 p1), so det is their squared cross product, no cancelling.
    cross = 16.0 * p3 * p5 - 2.0 * (p7 - p6) * (4.0 * p1 - 1.0)
    return np.stack([k1, k2, cross * cross / np.maximum(k2, 1e-300)], axis=1)


def geometric_discord_rows(params) -> np.ndarray:
    """Closed-form geometric discord of rows of CS parameters, shape (R, 7).

    Half the sum of K's two smaller eigenvalues: no k_max is subtracted.
    A row that fails check_cs_rows raises InvalidStateError.
    """
    check_cs_rows(params)
    k1, k2, k3 = k_spectrum_rows(params).T
    return 0.5 * np.where(k1 >= k2, k2 + k3, k1 + k3)


def geometric_discord_cs(m: CSDensityMatrix) -> float:
    """Closed-form geometric discord of a centrosymmetric state."""
    return float(geometric_discord_rows(m.params[None])[0])


def geometric_discord_generic(rho, validate: bool = True):
    """Geometric discord of a state, or a stack (..., 4, 4), from Bloch data.

    The first qubit is measured, as in the closed form: K = x x^T + T T^T.
    For the second, pass ``swap_qubits(rho)``.
    """
    if validate:
        check_density_matrix(rho)
    x, _, T = bloch_data(rho)
    row, col = x[..., None, :], x[..., :, None]
    K = col * row + T @ np.swapaxes(T, -1, -2)
    k_max = np.linalg.eigvalsh(K)[..., -1]
    tt = (T * T).reshape(T.shape[:-2] + (9,))
    # x . x as a matrix product: the sum order of a dot product.
    return 0.5 * ((row @ col)[..., 0, 0] + np.sum(tt, axis=-1) - k_max)


def geometric_discord_high_t_asymptotic(beta: float) -> float:
    """High-temperature asymptote of the large-reservoir geometric discord."""
    return beta**4 / 128.0
