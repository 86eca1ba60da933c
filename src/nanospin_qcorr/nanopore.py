"""Spin-pair correlations in a nanopore filled with a spin-1/2 gas.

A tagged pair of spins interacts with the remaining n - 2 reservoir spins
through a collective dipolar coupling; starting from a transverse thermal
product state, the reduced pair state at dimensionless time tau is
centrosymmetric and fully described by five real correlators

    p : single-spin transverse polarization (equal for both spins),
    q : symmetric transverse pair correlator,
    r : antisymmetric transverse pair correlator,
    u : mixed transverse-longitudinal correlator,
    v : longitudinal pair correlator (identically zero here),

with closed forms involving tanh(beta / 2) and powers of cos(tau).  beta
is the dimensionless inverse temperature h_bar omega_0 / (k_B T), and tau
grows linearly with physical time.

n = inf selects the large-reservoir limit, where only q = r survive and
the pair state becomes Bell-diagonal and time-independent.

The closed forms take a whole grid as arrays; one point is the one-row
case.  The per-axis factors tanh(beta / 2), cos(tau), cos(2 tau), sin(tau)
and ``cos_power`` stay on ``math``, whose results numpy's tanh, exp and log
miss by one ulp for some inputs; the elementwise products and sums after
them round as on floats, so a value does not depend on its batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cs_matrix import CSDensityMatrix, check_cs_rows, cs_from_vector

__all__ = [
    "H_PLANCK",
    "K_BOLTZMANN",
    "HBAR",
    "OMEGA0_DEFAULT",
    "NanoporeParams",
    "CorrelationSet",
    "beta_from_temperature",
    "temperature_from_beta",
    "tau_special",
    "cos_power",
    "check_axes",
    "correlation_grid",
    "correlations",
    "special_time_correlations",
    "cs_rows",
    "cs_from_correlations",
    "reduced_density",
    "concurrence_rows",
    "concurrence_nanopore",
]

# Exact SI values (2019 redefinition).
H_PLANCK = 6.62607015e-34
K_BOLTZMANN = 1.380649e-23
HBAR = H_PLANCK / (2.0 * math.pi)

# Default spin resonance frequency, rad/s.
OMEGA0_DEFAULT = 2.0 * math.pi * 500.0e6

# Magnitudes below this after exponentiation are flushed to zero.
_POWER_FLOOR = 1e-300


def beta_from_temperature(temperature: float, omega0: float = OMEGA0_DEFAULT) -> float:
    """Dimensionless inverse temperature h_bar omega0 / (k_B T)."""
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return math.inf
    if math.isinf(temperature):
        return 0.0
    return HBAR * omega0 / (K_BOLTZMANN * temperature)


def temperature_from_beta(beta: float, omega0: float = OMEGA0_DEFAULT) -> float:
    """Temperature in kelvin for a dimensionless inverse temperature."""
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if beta == 0.0:
        return math.inf
    if math.isinf(beta):
        return 0.0
    return HBAR * omega0 / (K_BOLTZMANN * beta)


def tau_special(l: int = 0) -> float:
    """The l-th flickering time tau_l = (1 + 2 l) pi / 2."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    try:
        return (1 + 2 * l) * math.pi / 2.0
    except OverflowError:
        raise ValueError("l is too large: tau_l overflows a float") from None


@dataclass(frozen=True)
class NanoporeParams:
    """Model parameters: pore occupancy n, inverse temperature, time.

    n is an integer >= 2 or math.inf for the large-reservoir limit;
    beta >= 0 (math.inf selects zero temperature); tau is the dimensionless
    interaction time, with 2 tau finite; omega0 the finite, positive resonance
    frequency used for temperature conversions.
    """

    n: float
    beta: float
    tau: float
    omega0: float = OMEGA0_DEFAULT

    def __post_init__(self):
        n = self.n
        if n != math.inf:
            if not (math.isfinite(n) and float(n) == int(n)):
                raise ValueError(f"n must be an integer or inf, got {n}")
            if int(n) < 2:
                raise ValueError(f"n must be >= 2, got {n}")
            object.__setattr__(self, "n", int(n))
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not math.isfinite(2.0 * self.tau):
            # The model takes cos(2 tau), so 2 tau must not overflow either.
            raise ValueError(f"tau must be finite, and 2 tau too, got {self.tau}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0}")

    @property
    def temperature(self) -> float:
        """Temperature in kelvin corresponding to beta at omega0."""
        return temperature_from_beta(self.beta, self.omega0)


@dataclass(frozen=True)
class CorrelationSet:
    """The five pair correlators of the nanopore model (arrays for a grid)."""

    p: float
    q: float
    r: float
    u: float
    v: float = 0.0

    def as_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "r": self.r, "u": self.u, "v": self.v}


def cos_power(c: float, k) -> float:
    """Sign-tracked c**k through log space, stable for very large k.

    k = 0 returns 1 for any c (empty product); c = 0 with k > 0 returns
    exactly 0; magnitudes underflowing 1e-300 are flushed to zero.
    """
    if k == 0:
        return 1.0
    if c == 0.0:
        return 0.0
    mag = math.exp(k * math.log(abs(c)))
    if mag < _POWER_FLOOR:
        return 0.0
    if c < 0.0 and int(k) % 2 == 1:
        return -mag
    return mag


def check_axes(n_values, betas, taus, omega0: float = OMEGA0_DEFAULT) -> list:
    """Check each axis value once by NanoporeParams' rules; return n as int or inf."""
    ns = [NanoporeParams(n, 0.0, 0.0, omega0).n for n in n_values]
    for beta, tau in itertools.zip_longest(betas, taus, fillvalue=0.0):
        NanoporeParams(2, beta, tau, omega0)
    return ns


def correlation_grid(n_values, betas, taus) -> CorrelationSet:
    """Pair correlators over the (n, beta, tau) grid, as arrays.

    Returns a CorrelationSet whose fields are float arrays in sweep order:
    n outer, then beta, then tau inner.  The axes must pass check_axes.
    """
    return _correlation_table(
        n_values,
        [math.tanh(beta / 2.0) for beta in betas],
        [math.cos(tau) for tau in taus],
        [math.cos(2.0 * tau) for tau in taus],
        [math.sin(tau) for tau in taus],
    )


def _correlation_table(n_values, th, cos_tau, cos_2tau, sin_tau) -> CorrelationSet:
    # correlation_grid from its factors: tanh(beta / 2) per beta, the rest per tau.
    th = np.asarray(th, dtype=float)
    q_plus_r = (0.25 * th * th)[:, None]
    p, q, r, u = (np.zeros((len(n_values), len(th), len(cos_tau))) for _ in "pqru")
    for k, n in enumerate(n_values):
        if math.isinf(n):
            q[k] = r[k] = (th * th / 8.0)[:, None]
            continue
        p[k] = np.multiply.outer(0.5 * th, [cos_power(c, n - 1) for c in cos_tau])
        q_minus_r = q_plus_r * [cos_power(c, n - 2) for c in cos_2tau]
        u[k] = np.multiply.outer(0.25 * th, [cos_power(c, n - 2) for c in cos_tau])
        u[k] *= sin_tau
        q[k] = 0.5 * (q_plus_r + q_minus_r)
        r[k] = 0.5 * (q_plus_r - q_minus_r)
    return CorrelationSet(
        p=p.ravel(), q=q.ravel(), r=r.ravel(), u=u.ravel(), v=np.zeros(p.size)
    )


def correlations(params: NanoporeParams) -> CorrelationSet:
    """Pair correlators at time tau for the given pore parameters."""
    grid = correlation_grid((params.n,), (params.beta,), (params.tau,))
    return CorrelationSet(**{f: float(a[0]) for f, a in grid.as_dict().items()})


def special_time_correlations(n: int, beta: float, l: int = 0) -> CorrelationSet:
    """Correlators at the flickering time tau_l = (1 + 2 l) pi / 2.

    Evaluated with the exact cos(tau_l) = 0, cos(2 tau_l) = -1 and
    sin(tau_l) = (-1)^l rather than through floating tau_l: the
    transverse polarization vanishes identically, u survives only for
    n = 2, and the pair correlators alternate with the parity of n
    (even n keeps q, odd n keeps r).  n and beta must pass check_axes, n
    finite, and l >= 0.
    """
    (n,) = check_axes([n], [beta], [])
    if math.isinf(n):
        raise ValueError("flickering times require a finite pore occupancy")
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    th = math.tanh(beta / 2.0)
    grid = _correlation_table([n], [th], [0.0], [-1.0], [(-1.0) ** (l % 2)])
    return CorrelationSet(**{f: float(a[0]) for f, a in grid.as_dict().items()})


def cs_rows(corr: CorrelationSet) -> np.ndarray:
    """CS parameter rows p1..p7, shape (R, 7), for R sets of correlators.

    The fields of ``corr`` are arrays of length R, or floats for one row.
    The map is p1 = 1/4, p2 = p4 = p/2, p3 = p5 = -u, p6 = q - r,
    p7 = q + r; v enters only through its being zero for this model.
    The rows pass check_cs_rows: InvalidStateError when one is not a state.
    """
    p, q, r, u = (np.atleast_1d(getattr(corr, f)).astype(float) for f in "pqru")
    rows = np.stack(
        [np.full_like(p, 0.25), p / 2.0, -u, p / 2.0, -u, q - r, q + r], axis=1
    )
    check_cs_rows(rows)
    return rows


def cs_from_correlations(corr: CorrelationSet) -> CSDensityMatrix:
    """Reduced pair density matrix for a set of correlators (see cs_rows)."""
    return cs_from_vector(cs_rows(corr)[0])


def reduced_density(params: NanoporeParams) -> CSDensityMatrix:
    """Reduced density matrix of the tagged pair at time tau."""
    return cs_from_correlations(correlations(params))


def concurrence_rows(corr: CorrelationSet) -> np.ndarray:
    """Pair concurrence max(0, 2 (sqrt(r^2 + 4 u^2) + q) - 1/2) per row of corr."""
    q, r, u = (np.atleast_1d(getattr(corr, f)) for f in "qru")
    w = np.sqrt(r * r + 4.0 * u * u)
    return np.maximum(0.0, 2.0 * (w + q) - 0.5)


def concurrence_nanopore(params: NanoporeParams) -> float:
    """Pair concurrence at the given pore parameters."""
    return float(concurrence_rows(correlations(params))[0])
