"""Geometric (Hilbert-Schmidt) discord of two-qubit states.

In Bloch form, with x the local vector of the first qubit and T the
correlation matrix, the geometric discord for measurements on the first
qubit is

    Q_g = (||x||^2 + ||T||^2 - k_max) / 2,

where k_max is the largest eigenvalue of K = x x^T + T T^T.  The factor
1/2 fixes the normalization used throughout this package; no rescaling
by the maximal value is applied.

For the centrosymmetric family x lies on the x axis and T is T_xx plus a yz
block B, so K is block-diagonal: an isolated xx entry x_1^2 + T_xx^2 and
the yz block B B^T, whose eigenvalues are B's squared singular values
s_max^2 and s_min^2.  The entries (``cs_matrix._cs_entries``) and s_max
(``_top_singular``) are discord's too: no formula in p1..p7 is written
here.  It is evaluated for arrays of parameter rows, one state per row.
"""

from __future__ import annotations

import numpy as np

from .cs_matrix import CSDensityMatrix, _checked_rows, _top_singular
from .states import bloch_data, check_density_matrix

__all__ = [
    "geometric_discord_rows",
    "geometric_discord_cs",
    "geometric_discord_generic",
    "geometric_discord_high_t_asymptotic",
]


def geometric_discord_rows(params) -> np.ndarray:
    """Closed-form geometric discord of CS parameter rows, shape (..., 7) -> (R,).

    Half the sum of K's two smaller eigenvalues: no k_max is subtracted.
    A row that fails check_cs_rows raises InvalidStateError.
    """
    _, (x1, _, txx, *block) = _checked_rows(params)
    s_max, s_min = _top_singular(*block)
    k1 = x1 * x1 + txx * txx
    return 0.5 * (np.minimum(k1, s_max * s_max) + s_min * s_min)


def geometric_discord_cs(m: CSDensityMatrix) -> float:
    """Closed-form geometric discord of a centrosymmetric state."""
    return float(geometric_discord_rows(m.params)[0])


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
