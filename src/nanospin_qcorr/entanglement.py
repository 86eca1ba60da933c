"""Two-qubit entanglement measures.

Concurrence of a state rho is computed from the spin-flipped companion

    rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y)

as C = max(0, 2 lambda_max - sum lambda), where the lambda are the square
roots of the eigenvalues of rho rho~ in descending order.  Entanglement of
formation follows from C through the usual binary-entropy formula.

Two routes are provided: a generic numeric one for arbitrary states, and a
closed form for the centrosymmetric family that needs no eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cs_matrix import CSDensityMatrix, check_cs_rows
from .states import PAULI_Y, binary_entropy, check_density_matrix

__all__ = [
    "ConcurrenceResult",
    "concurrence_numeric",
    "concurrence_numeric_rows",
    "concurrence_cs",
    "concurrence_cs_rows",
    "entanglement_of_formation",
]

_YY = np.kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Spin-flip spectrum with the derived entanglement measures.

    ``lambdas`` are the four spin-flip singular values in descending
    order; ``concurrence`` is max(0, 2 max - sum); ``eof`` is the
    entanglement of formation in bits.
    """

    lambdas: tuple
    concurrence: float
    eof: float


def entanglement_of_formation(concurrence: float) -> float:
    """Entanglement of formation in bits for a given concurrence."""
    c = min(max(concurrence, 0.0), 1.0)
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def _sorted_concurrence(lambdas):
    """Lambdas (..., 4) in descending order, and max(0, 2 max - sum) per row."""
    lam = np.sort(lambdas, axis=-1)[..., ::-1]
    return lam, np.maximum(0.0, 2.0 * lam[..., 0] - lam.sum(axis=-1))


def _result_from_lambdas(lambdas) -> ConcurrenceResult:
    lam, c = _sorted_concurrence(np.asarray(lambdas, dtype=float))
    c = float(c)
    return ConcurrenceResult(tuple(lam.tolist()), c, entanglement_of_formation(c))


def _numeric_lambdas(rhos, eigh=None) -> np.ndarray:
    """Spin-flip singular values (R, 4) of two-qubit states (R, 4, 4).

    With rho = psi psi^dag (psi = V sqrt(evals) from a symmetric
    eigensolver), the lambdas are the singular values of the complex
    symmetric matrix psi^T (sigma_y x sigma_y) psi.  This never squares
    the spectrum, so pure and near-pure states keep full precision.
    ``eigh`` is the states' (evals, vecs) when the caller already has them.
    """
    rhos = np.asarray(rhos, dtype=complex).reshape(-1, 4, 4)
    evals, vecs = np.linalg.eigh(rhos) if eigh is None else eigh
    psi = vecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
    return np.linalg.svd(np.swapaxes(psi, 1, 2) @ _YY @ psi, compute_uv=False)


def concurrence_numeric_rows(rhos, *, _eigh=None) -> np.ndarray:
    """Concurrence of two-qubit states (R, 4, 4) -> (R,), one eigh and SVD call.

    Rows are not validated: ``verification.oracle_rows`` checks its stack
    once, and passes that check's eigh as ``_eigh`` in place of this one's.
    """
    return _sorted_concurrence(_numeric_lambdas(rhos, _eigh))[1]


def concurrence_numeric(rho, validate: bool = True) -> ConcurrenceResult:
    """Concurrence of a two-qubit state: concurrence_numeric_rows' one-row case."""
    if validate:
        rho = check_density_matrix(rho)
    return _result_from_lambdas(_numeric_lambdas(rho)[0])


def _cs_lambdas(params) -> np.ndarray:
    """Spin-flip singular values (R, 4) of CS parameter vectors (..., 7).

    The rows must pass check_cs_rows.  The spin flip preserves
    centrosymmetry, so the four singular values combine pairwise
    sums/differences of four square roots.  The radicands of b and d are
    a^2 + 4 L1 L2 and c^2 + 4 L3 L4 (L the cs_spectrum eigenvalues): a
    state keeps them nonnegative, so what falls below zero is rounding and
    is clamped.
    """
    params = np.asarray(params, dtype=float).reshape(-1, 7)
    check_cs_rows(params)
    p1, p2, p3, p4, p5, p6, p7 = params.T
    a = np.sqrt((2.0 * p1 + p6 - 0.5 - p7) ** 2 + 4.0 * (p3 + p5) ** 2)
    b = np.sqrt(np.maximum((0.5 + p6 + p7) ** 2 - 4.0 * (p2 + p4) ** 2, 0.0))
    c = np.sqrt((2.0 * p1 - p6 - 0.5 + p7) ** 2 + 4.0 * (p3 - p5) ** 2)
    d = np.sqrt(np.maximum((0.5 - p6 - p7) ** 2 - 4.0 * (p2 - p4) ** 2, 0.0))
    lambdas = (0.5 * (a + b), 0.5 * abs(a - b), 0.5 * (c + d), 0.5 * abs(c - d))
    return np.stack(lambdas, axis=-1)


def concurrence_cs_rows(params) -> np.ndarray:
    """Closed-form concurrence of CS parameter rows, shape (..., 7) -> (R,)."""
    return _sorted_concurrence(_cs_lambdas(params))[1]


def concurrence_cs(m: CSDensityMatrix) -> ConcurrenceResult:
    """Closed-form concurrence of a CS state: concurrence_cs_rows' one-row case."""
    return _result_from_lambdas(_cs_lambdas(m.params)[0])
