"""Shared sampling utilities and dense reference operators for the test suite.

Besides the samplers, this holds short independent references the tests
compare the package against: the conditional entropy after one
measurement, parameter extraction from a dense CS matrix, the Bloch data
of CS parameter vectors, a partial trace and the von Neumann entropy, the
spin flip, the rotation that splits a CS matrix into two 2x2 blocks, and
Kronecker-product collective operators.
"""

import math
from dataclasses import dataclass

import numpy as np

from nanospin_qcorr import CSDensityMatrix
from nanospin_qcorr._kernels import conditional_entropy_dirs
from nanospin_qcorr.cli import run_sweep
from nanospin_qcorr.cs_matrix import _cs_entries
from nanospin_qcorr.exact_oracle import pair_states
from nanospin_qcorr.states import ID2, PAULI_X, PAULI_Y, PAULI_Z, entropy_bits
from nanospin_qcorr.states import bloch_data, check_density_matrix

BELL_PHI_PLUS = np.zeros((4, 4), dtype=complex)
BELL_PHI_PLUS[0, 0] = BELL_PHI_PLUS[0, 3] = 0.5
BELL_PHI_PLUS[3, 0] = BELL_PHI_PLUS[3, 3] = 0.5


def random_density4(rng, rank: int = 4) -> np.ndarray:
    """Wishart-distributed 4x4 density matrix of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / rho.trace()


def numeric_batch() -> np.ndarray:
    """Generic states of every rank, a Bell state, I/4 and dense pair states (20)."""
    rng = np.random.default_rng(23)
    states = [random_density4(rng, rank) for rank in (4, 2, 1) for _ in range(4)]
    states += [BELL_PHI_PLUS, np.eye(4) / 4.0]
    pairs = grid_states((3, 8), (0.5, 3.0), (0.9,))
    rest = grid_states((9,), (3.0,), (0.0, math.pi / 2.0))
    return np.concatenate([np.array(states), pairs, rest])


def verify_dense_states() -> np.ndarray:
    """The pair states of the verify grid N 8 9 10, beta 0.5 3, 16 taus (96)."""
    taus = [float(t) for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]
    return grid_states((8, 9, 10), (0.5, 3.0), taus)


def grid_states(n_values, betas, taus) -> np.ndarray:
    """A grid's pair states as one (R, 4, 4) stack, n outer, tau inner:
    pair_states with the whole grid as its one chunk."""
    whole = (0, len(n_values) * len(betas), 0, len(taus))
    return next(pair_states(n_values, betas, taus, [whole]))


def sweep_columns(quantity, n_values, betas, taus, engine="analytic"):
    """run_sweep's names, and its chunks' values joined into whole columns."""
    names, chunks = run_sweep(quantity, n_values, betas, taus, engine)
    columns = zip(*(values for _, values in chunks))
    return names, [np.concatenate(col) for col in columns] or [np.empty(0)] * len(names)


def measurement_conditional_entropy(rho, axis) -> float:
    """Conditional entropy of the first qubit, second measured along axis."""
    x, y, T = bloch_data(check_density_matrix(rho))
    return float(conditional_entropy_dirs(x, y, T, [axis])[0])


def centrosymmetrize(rho: np.ndarray) -> np.ndarray:
    """Average a matrix with its double reversal; preserves PSD and trace."""
    return 0.5 * (rho + rho[::-1, ::-1])


def is_centrosymmetric(rho, tol: float = 1e-12) -> bool:
    """True when M[i, j] = M[5-i, 5-j] entrywise within tol."""
    rho = np.asarray(rho, dtype=complex)
    return bool(np.max(np.abs(rho - rho[::-1, ::-1])) <= tol)


def cs_from_matrix(rho, tol: float = 1e-10):
    """CSDensityMatrix read off a dense 4x4 matrix of the 7-parameter form.

    Asserts that the matrix rebuilt from the parameters is within tol of
    rho, which holds only for Hermitian, unit-trace, centrosymmetric
    matrices with equal middle diagonal entries.
    """
    rho = np.asarray(rho, dtype=complex)
    m = CSDensityMatrix(
        float(rho[0, 0].real),
        float(rho[0, 1].real),
        float(rho[0, 1].imag),
        float(rho[0, 2].real),
        float(rho[0, 2].imag),
        float(rho[0, 3].real),
        float(rho[1, 2].real),
    )
    resid = np.max(np.abs(m.to_matrix() - rho))
    assert resid <= tol, f"not of the 7-parameter form: residual {resid:.3e}"
    return m


def cs_bloch(params):
    """Bloch data (x, y, T) of CS parameter vectors (..., 7) from _cs_entries.

    Returns arrays of shapes (..., 3), (..., 3) and (..., 3, 3).
    """
    x1, y1, txx, a, b, c, d = _cs_entries(params)
    zero = np.zeros_like(x1)
    x = np.stack([x1, zero, zero], axis=-1)
    y = np.stack([y1, zero, zero], axis=-1)
    T = np.stack([txx, zero, zero, zero, a, b, zero, c, d], axis=-1)
    return x, y, T.reshape(x1.shape + (3, 3))


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


def reduced_first(rho) -> np.ndarray:
    """Reduced state of the first qubit (second traced out)."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3)


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a Hermitian PSD matrix of any dimension."""
    return float(entropy_bits(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))))


_YY = np.kron(PAULI_Y, PAULI_Y)


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped companion (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    return _YY @ np.asarray(rho, dtype=complex).conj() @ _YY


# Orthogonal, symmetric, involutory rotation that block-diagonalizes every
# centrosymmetric 4x4 matrix into two 2x2 blocks.
BLOCK_ROTATION = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
) / math.sqrt(2.0)


def cs_block_diagonalize(m):
    """Rotate a CSDensityMatrix into its two 2x2 blocks (block1, block2).

    block1 carries the (L1, L2) eigenvalue branch and block2 the (L3, L4)
    branch; the off-diagonal blocks are asserted to vanish.
    """
    full = BLOCK_ROTATION @ m.to_matrix() @ BLOCK_ROTATION
    off = max(np.max(np.abs(full[:2, 2:])), np.max(np.abs(full[2:, :2])))
    assert off <= 1e-12, f"block off-diagonal residual {off:.3e}"
    return full[:2, :2], full[2:, 2:]


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
