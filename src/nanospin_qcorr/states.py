"""Generic two-qubit density-matrix utilities.

Conventions used throughout the package:

* qubit ordering is (first, second); ``np.kron(a, b)`` puts ``a`` on the
  first qubit,
* Bloch data of a two-qubit state ``rho`` is the triple ``(x, y, T)`` with
  ``x_i = Tr[rho (sigma_i x 1)]``, ``y_i = Tr[rho (1 x sigma_i)]`` and
  ``T_ij = Tr[rho (sigma_i x sigma_j)]``,
* entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ID2",
    "EPS_HERM",
    "EPS_TRACE",
    "EPS_PSD",
    "InvalidStateError",
    "check_density_matrix",
    "swap_qubits",
    "bloch_data",
    "expansion_coefficients",
    "entropy_bits",
    "binary_entropy",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# Default tolerances for state validation.  Positivity gets a looser budget
# than Hermiticity/trace because reduced matrices assembled from floating
# point correlators routinely carry O(1e-12) negative tails.
EPS_HERM = 1e-12
EPS_TRACE = 1e-12
EPS_PSD = 1e-10

# Eigenvalues below this are treated as exact zeros inside entropies.
_ENTROPY_CLAMP = 1e-14


class InvalidStateError(ValueError):
    """Raised when a matrix fails a density-matrix validity check."""


def check_density_matrix(rho) -> np.ndarray:
    """Validate a 4x4 density matrix, or a stack (..., 4, 4); return it as complex128.

    Checks shape, Hermiticity, unit trace and positive semidefiniteness
    (eigenvalues >= -EPS_PSD).  Raises InvalidStateError with a diagnostic
    message on the first condition that any matrix of the stack violates.
    """
    return _check_stack(rho, vectors=False)[0]


def _check_stack(rho, vectors=True):
    """check_density_matrix's checks; returns (rho, evals, vecs) as _check_density's."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return (rho, *_check_density(rho, vectors))


def _check_density(rho, vectors=False):
    """Finite entries, Hermiticity, unit trace and positivity (..., d, d).

    Returns (evals, vecs): the eigenvalues the positivity check read and,
    with ``vectors``, their eigenvectors from the same eigh call (else None).
    """
    if not np.all(np.isfinite(rho)):
        raise InvalidStateError("matrix has non-finite entries")
    herm = np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), initial=0.0)
    if herm > EPS_HERM:
        raise InvalidStateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho, axis1=-2, axis2=-1).ravel()
    if (bad := np.flatnonzero(abs(tr - 1.0) > EPS_TRACE)).size:
        raise InvalidStateError(f"trace is {tr[bad[0]]:.17g}, expected 1")
    evals, vecs = np.linalg.eigh(rho) if vectors else (np.linalg.eigvalsh(rho), None)
    lowest = np.min(evals[..., 0], initial=0.0)
    if lowest < -EPS_PSD:
        raise InvalidStateError(f"negative eigenvalue {lowest:.3e}")
    return evals, vecs


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def swap_qubits(rho) -> np.ndarray:
    """Exchange the two qubits: SWAP . rho . SWAP."""
    rho = np.asarray(rho, dtype=complex)
    return _SWAP @ rho @ _SWAP


# Rows are vec(op^T) for the 15 operators (sigma_i x 1), (1 x sigma_i),
# (sigma_i x sigma_j), so that Tr[rho op] = row . vec(rho).
_BLOCH_OPS = np.array(
    [np.kron(s, ID2).T.ravel() for s in _PAULIS]
    + [np.kron(ID2, s).T.ravel() for s in _PAULIS]
    + [np.kron(si, sj).T.ravel() for si in _PAULIS for sj in _PAULIS]
)


def bloch_data(rho):
    """Full Bloch decomposition ``(x, y, T)`` of a two-qubit state.

    ``rho`` is a 4x4 matrix or a stack (..., 4, 4) of them.

    Returns
    -------
    x : (..., 3) ndarray
        Local Bloch vector of the first qubit.
    y : (..., 3) ndarray
        Local Bloch vector of the second qubit.
    T : (..., 3, 3) ndarray
        Correlation matrix ``T_ij = Tr[rho (sigma_i x sigma_j)]``.
    """
    rho = np.asarray(rho, dtype=complex)
    # One (15, 16) @ (16, 1) product per state, whatever the stack.
    coeffs = (_BLOCH_OPS @ rho.reshape(rho.shape[:-2] + (16, 1)))[..., 0].real
    T = coeffs[..., 6:].reshape(coeffs.shape[:-1] + (3, 3))
    return coeffs[..., :3].copy(), coeffs[..., 3:6].copy(), T.copy()


def expansion_coefficients(rho) -> np.ndarray:
    """Coefficients of the spin-operator expansion of a two-spin state.

    Expands ``rho = sum_{ab} alpha[a, b] O_a x O_b`` in the basis
    ``(1, I^x, I^y, I^z)`` with spin operators ``I^k = sigma_k / 2``.
    Index 0 is the identity.  ``alpha[0, 0]`` is 1/4 for any unit-trace
    state; a vanishing ``alpha[a, b]`` certifies that the corresponding
    operator product is absent from the state.  In Bloch data the
    coefficients are Tr(rho)/4, x_i/2, y_j/2 and T_ij.  A stack of states
    (..., 4, 4) gives one coefficient matrix per state.
    """
    rho = np.asarray(rho, dtype=complex)
    x, y, T = bloch_data(rho)
    alpha = np.empty(rho.shape)
    alpha[..., 0, 0] = np.trace(rho, axis1=-2, axis2=-1).real / 4.0
    alpha[..., 1:, 0] = x / 2.0
    alpha[..., 0, 1:] = y / 2.0
    alpha[..., 1:, 1:] = T
    return alpha


def entropy_bits(weights):
    """Shannon entropy -sum w log2 w in bits, with 0 log 0 = 0.

    Sums over the last axis of ``weights``, so an (..., k) array gives an
    entropy per leading index.
    """
    w = np.asarray(weights, dtype=float)
    return -np.sum(w * np.log2(np.where(w > _ENTROPY_CLAMP, w, 1.0)), axis=-1)


def binary_entropy(x: float) -> float:
    """Shannon entropy -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    return float(entropy_bits((x, 1.0 - x)))
