"""Shared sampling utilities and dense reference operators for the test suite."""

from dataclasses import dataclass

import numpy as np

from nanospin_qcorr import cs_from_matrix
from nanospin_qcorr.states import ID2, PAULI_X, PAULI_Y, PAULI_Z

BELL_PHI_PLUS = np.zeros((4, 4), dtype=complex)
BELL_PHI_PLUS[0, 0] = BELL_PHI_PLUS[0, 3] = 0.5
BELL_PHI_PLUS[3, 0] = BELL_PHI_PLUS[3, 3] = 0.5


def random_density4(rng, rank: int = 4) -> np.ndarray:
    """Wishart-distributed 4x4 density matrix of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / rho.trace()


def centrosymmetrize(rho: np.ndarray) -> np.ndarray:
    """Average a matrix with its double reversal; preserves PSD and trace."""
    return 0.5 * (rho + rho[::-1, ::-1])


def random_cs(rng, rank: int = 4):
    """Random valid centrosymmetric density matrix (as CSDensityMatrix)."""
    return cs_from_matrix(centrosymmetrize(random_density4(rng, rank)))


def random_qubit_density(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_su2(rng) -> np.ndarray:
    """Haar-ish random single-qubit unitary from a unit quaternion."""
    w, x, y, z = rng.normal(size=4)
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return w * ID2 + 1j * (x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


@dataclass(frozen=True)
class CollectiveOperators:
    """Collective spin components and total spin squared for n spins."""

    n: int
    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray
    i2: np.ndarray


def site_operator(op2, site: int, n: int) -> np.ndarray:
    """Embed a single-spin operator at the given site of an n-spin chain."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for n = {n}")
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op2 if k == site else ID2)
    return out


def build_operators(n: int) -> CollectiveOperators:
    """Collective I_x, I_y, I_z and I^2 as dense Kronecker-product matrices."""
    dim = 2**n
    ix = np.zeros((dim, dim), dtype=complex)
    iy = np.zeros((dim, dim), dtype=complex)
    iz = np.zeros((dim, dim), dtype=complex)
    for site in range(n):
        ix += site_operator(PAULI_X / 2.0, site, n)
        iy += site_operator(PAULI_Y / 2.0, site, n)
        iz += site_operator(PAULI_Z / 2.0, site, n)
    i2 = ix @ ix + iy @ iy + iz @ iz
    return CollectiveOperators(n=n, ix=ix, iy=iy, iz=iz, i2=i2)


def dipolar_hamiltonian(ops: CollectiveOperators, coupling: float = 1.0) -> np.ndarray:
    """Full collective dipolar Hamiltonian (coupling/2) (3 I_z^2 - I^2).

    With this normalization the dimensionless time is
    tau = (3 coupling / 2) t.  The reference that the diagonal-phase
    evolution is checked against.
    """
    return 0.5 * coupling * (3.0 * ops.iz @ ops.iz - ops.i2)
