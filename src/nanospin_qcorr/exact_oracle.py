"""Brute-force reference engine for the full n-spin problem.

Everything here works in the z product basis (bit 0 = up, bit 1 = down)
and uses none of the package's closed forms: the initial state is the exact
transverse thermal product, and the dipolar evolution is applied through
the diagonal phases of the squared collective z component.  The oracle,
``pair_state``, sums the first two spins' evolved state over all 2^(n-2)
configurations of the other spins in O(2^n) memory, in a phase sum that
every beta shares (``pair_gram``); the analytic values are validated
against it.  The dense 2^n x 2^n engine (``thermal_initial``,
``evolve``, ``partial_trace_pair``) grows as 4^n and is the reference the
oracle is tested against.

Sizes are checked in bytes from n, before anything is allocated: the
budget admits pair states up to n = 20 and dense states up to n = 10.
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


class ResourceLimitError(ValueError):
    """Raised when a computation would exceed the byte budget."""


def _check_size(n, dense: bool = False) -> int:
    """n as an int, once the peak of what its call holds fits BYTE_BUDGET.

    Per basis state, ``magnetizations`` holds a one-byte popcount besides
    the 8-byte result, and ``pair_state`` two complex arrays besides the
    magnetizations: 40 bytes.  ``thermal_initial`` (dense) holds 16 bytes
    per matrix entry, plus a quarter of that for its last Kronecker factor:
    20 bytes.  Nothing is allocated before the check.
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


def pair_gram(n, tau, m=None):
    """(ph @ ph^H, c) for the phases ph = exp(-i tau m^2) of ``evolve`` as
    (4, c), c = 2^(n-2): pair_state's phase sum, free of beta."""
    if n < 2:
        raise ValueError("need at least two spins to form a pair")
    m = magnetizations(n) if m is None else m
    ph = np.exp(-1j * tau * m * m).reshape(4, -1)
    return ph @ ph.conj().T, ph.shape[1]


def pair_state(n, beta, tau, m=None, gram=None) -> np.ndarray:
    """4x4 state of the first two spins of evolve(thermal_initial(n, beta), tau).

    Tracing out the other spins, whose thermal factor has diagonal 1/2 per
    site, leaves rho = rho0 G / c for (G, c) = pair_gram(n, tau, m) (m, if
    given, is magnetizations(n)), or ``gram`` if given.  rho0 =
    thermal_initial(2, beta) is the outer product of the site factor with
    itself: the same products as its Kronecker form.
    """
    g, c = pair_gram(n, tau, m) if gram is None else gram
    f = 0.5 * (ID2 + math.tanh(beta / 2.0) * PAULI_X)
    rho0 = (f[:, None, :, None] * f[None, :, None, :]).reshape(4, 4)
    return rho0 * g / c


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
