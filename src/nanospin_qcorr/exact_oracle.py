"""Brute-force reference engine for the full n-spin problem.

Everything here works in the z product basis (bit 0 = up, bit 1 = down)
and uses none of the package's closed forms: the initial state is the exact
transverse thermal product, and the dipolar evolution is applied through
the diagonal phases of the squared collective z component.  The oracle,
``pair_state``, sums the first two spins' evolved state over all 2^(n-2)
configurations of the other spins, brute force in O(2^n) memory, in a
phase sum that every beta shares (``pair_gram``, over an array of taus,
with one exp per tau and magnetization level); the analytic values are
validated against it.  The dense 2^n x 2^n engine (``thermal_initial``,
``evolve``, ``partial_trace_pair``) grows as 4^n and is the reference the
oracle is tested against.

Sizes are checked in bytes from n, before anything is allocated: the
budget admits pair states up to n = 20, a phase-sum block of one tau
there, and dense states up to n = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nanopore import CorrelationSet
from .states import ID2, PAULI_X, _check_density, bloch_data

__all__ = [
    "ResourceLimitError",
    "DenseState",
    "magnetizations",
    "pair_gram",
    "pair_state",
    "thermal_initial",
    "evolve",
    "partial_trace_pair",
    "measure_correlations",
    "pair_correlations",
]

# Most bytes one call may hold at its peak (see _check_size).
BYTE_BUDGET = 64 * 2**20
# Bytes a pair_gram block of taus aims at, to stay in cache; a block holds
# one tau at least, within BYTE_BUDGET.
_BLOCK_BYTES = 2**20


class ResourceLimitError(ValueError):
    """Raised when a computation would exceed the byte budget."""


def _tau_bytes(n: int) -> int:
    """Bytes each tau of a pair_gram block holds, 16 an entry: the phases on
    the basis states and their conjugate, and two arrays of level phases."""
    return 32 * ((1 << n) + n + 1)


def _check_size(n, dense: bool = False) -> int:
    """n as an int, once the peak of what its call holds fits BYTE_BUDGET.

    Per basis state, ``magnetizations`` holds a one-byte popcount besides
    the 8-byte result, and ``pair_gram`` an 8-byte level index and, for a
    block of one tau, two complex arrays: 40 bytes.  ``thermal_initial``
    (dense) holds 16 bytes per matrix entry, plus a quarter of that for its
    last Kronecker factor: 20 bytes.  Nothing is allocated before the check.
    """
    if math.isinf(n):
        raise ValueError(f"the oracle needs a finite N, got {n}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entry_bytes, exponent = (20, 2 * n) if dense else (40, n)
    # Past the budget's bit length 2^exponent alone exceeds it, and a huge
    # n is never raised to a huge power.
    if exponent >= BYTE_BUDGET.bit_length() or entry_bytes << exponent > BYTE_BUDGET:
        raise ResourceLimitError(
            f"n = {n} needs {entry_bytes} * 2^{exponent} bytes, more than "
            f"the budget of {BYTE_BUDGET} bytes"
        )
    return n


@dataclass(frozen=True)
class DenseState:
    """Dense n-spin density matrix."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2**self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match n = {self.n}"
            )

    def validate(self) -> None:
        """Assert Hermiticity, unit trace and positivity within states.EPS_*."""
        _check_density(self.matrix)


def magnetizations(n: int) -> np.ndarray:
    """Diagonal of I_z in the product basis: m = n/2 - popcount(s)."""
    n = _check_size(n)
    pc = np.zeros(1, dtype=np.int8)
    for _ in range(n):  # popcount(2^k + s) = popcount(s) + 1 for s < 2^k
        pc = np.concatenate([pc, pc + 1])
    return n / 2.0 - pc


def thermal_initial(n: int, beta: float) -> DenseState:
    """Transverse thermal product state.

    Exactly equal to exp(beta I_x) / Tr[...] because the single-site
    factors commute: each site carries (1 + tanh(beta/2) sigma_x) / 2.
    """
    n = _check_size(n, dense=True)
    factor = 0.5 * (ID2 + math.tanh(beta / 2.0) * PAULI_X)
    rho = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        rho = np.kron(rho, factor)
    return DenseState(n=n, matrix=rho)


def evolve(state: DenseState, tau: float) -> DenseState:
    """Apply the dipolar evolution for a dimensionless time tau.

    The propagator is diagonal in the product basis with phases
    exp(-i tau m^2) on each magnetization sector; the total-spin part of
    the full dipolar Hamiltonian commutes with the transverse thermal
    state and drops out of the dynamics.
    """
    m = magnetizations(state.n)
    phases = np.exp(-1j * tau * m * m)
    rho = state.matrix * np.outer(phases, phases.conj())
    return DenseState(n=state.n, matrix=rho)


def partial_trace_pair(state: DenseState) -> np.ndarray:
    """Reduced 4x4 density matrix of the first two spins."""
    if state.n < 2:
        raise ValueError("need at least two spins to form a pair")
    rest = 2 ** (state.n - 2)
    r = state.matrix.reshape(4, rest, 4, rest)
    return np.trace(r, axis1=1, axis2=3)


def pair_gram(n, tau):
    """(G, c), G = ph @ ph^H for the phases ph = exp(-i tau m^2) of ``evolve``
    as (4, c), c = 2^(n-2): pair_state's phase sum, free of beta.

    For an array of taus G has shape tau.shape + (4, 4), one batched
    product per block of as many taus as _BLOCK_BYTES holds (_tau_bytes).
    exp runs once per tau and magnetization level m = n/2 - k, on evolve's
    products ((-i tau) m) m, gathered onto the basis states by k; the sum
    over the other spins stays brute force.
    """
    if n < 2:
        raise ValueError("need at least two spins to form a pair")
    n, tau = _check_size(n), np.asarray(tau, dtype=float)
    k = (n / 2.0 - magnetizations(n)).astype(np.intp)  # each state's level
    levels, c = n / 2.0 - np.arange(n + 1), 1 << (n - 2)
    g, step = np.empty((tau.size, 4, 4), complex), max(1, _BLOCK_BYTES // _tau_bytes(n))
    for lo in range(0, tau.size, step):
        ph = np.exp(-1j * tau.reshape(-1, 1)[lo : lo + step] * levels * levels)
        ph = ph[:, k].reshape(-1, 4, c)
        g[lo : lo + step] = ph @ ph.conj().swapaxes(1, 2)
    return g.reshape(tau.shape + (4, 4)), c


def pair_state(n, beta, tau) -> np.ndarray:
    """4x4 state of the first two spins of evolve(thermal_initial(n, beta), tau).

    Tracing out the other spins, whose thermal factor has diagonal 1/2 per
    site, leaves rho = rho0 G / c for (G, c) = pair_gram(n, tau) and rho0 =
    thermal_initial(2, beta): the one-point case of verification.pair_states.
    """
    g, c = pair_gram(n, tau)
    return thermal_initial(2, beta).matrix * g / c


def measure_correlations(state: DenseState) -> CorrelationSet:
    """The five pair correlators of an n-spin state's first two spins."""
    return pair_correlations(partial_trace_pair(state))


def pair_correlations(rho) -> CorrelationSet:
    """The five pair correlators read off a 4x4 pair state, or a stack of them.

    Conventions: p = <I_1^x>, q = <I_1^x I_2^x>, r = <I_1^y I_2^y>,
    u = <I_1^y I_2^z>, v = <I_1^z I_2^z>, with spin operators
    I^k = sigma_k / 2.  p and u have a permutation-symmetric partner
    (<I_2^x> and <I_1^z I_2^y>); both orderings are evaluated and must
    agree to 1e-12 on every state, which guards the pair-exchange symmetry
    of the model.  A stack (..., 4, 4) gives arrays of correlators.
    """
    x, y, T = bloch_data(rho)
    p, u = 0.5 * x[..., 0], 0.25 * T[..., 1, 2]
    dp = np.max(abs(p - 0.5 * y[..., 0]), initial=0.0)
    du = np.max(abs(u - 0.25 * T[..., 2, 1]), initial=0.0)
    if dp > 1e-12 or du > 1e-12:
        raise ValueError(
            f"pair-exchange symmetry violated: |dp| = {dp:.3e}, |du| = {du:.3e}"
        )
    q, r, v = (0.25 * T[..., k, k] for k in range(3))
    return CorrelationSet(p=p, q=q, r=r, u=u, v=v)
