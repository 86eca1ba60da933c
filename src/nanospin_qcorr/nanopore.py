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
case.  The per-axis factors tanh(beta / 2), cos(tau), cos(2 tau) and
sin(tau) stay on ``math``, whose results numpy's tanh, exp and log miss by
one ulp for some inputs.  So do the powers of cos (``_powers``):
math.log|c| once per tau-axis value, then math.exp mapped over k log|c|
per n, the bits of a scalar loop.  The elementwise products and sums after
them round as on floats, so a value does not depend on its batch.  At a
flickering time tau_special(l) the factors are exact (``_tau_factors``).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .cs_matrix import CSDensityMatrix, check_cs_rows

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
# The largest |tau| whose 2 tau is finite (halving is exact).
_TAU_MAX = 0.5 * sys.float_info.max


def beta_from_temperature(temperature: float, omega0: float = OMEGA0_DEFAULT) -> float:
    """Dimensionless inverse temperature h_bar omega0 / (k_B T)."""
    return _over_k("temperature", temperature, omega0)


def temperature_from_beta(beta: float, omega0: float = OMEGA0_DEFAULT) -> float:
    """Temperature in kelvin for a dimensionless inverse temperature."""
    return _over_k("beta", beta, omega0)


def _over_k(name: str, x: float, omega0: float) -> float:
    """h_bar omega0 / (k_B x) for x >= 0, T from beta or beta from T; where k_B x
    is not a normal float (x < 1.6e-285), as (h_bar omega0 / k_B) / x."""
    if x < 0.0:
        raise ValueError(f"{name} must be >= 0, got {x}")
    if x == 0.0:
        return math.inf
    kx = K_BOLTZMANN * x  # inf for x = inf, and then the ratio is 0
    if kx >= sys.float_info.min:
        return HBAR * omega0 / kx
    return HBAR * omega0 / K_BOLTZMANN / x


def _check_l(l) -> int:
    """l as an int, once it is a Python or numpy integer >= 0."""
    if not isinstance(l, numbers.Integral) or l < 0:
        raise ValueError(f"l must be an integer >= 0, got {l!r}")
    return int(l)


def tau_special(l: int = 0) -> float:
    """The l-th flickering time tau_l = (1 + 2 l) pi / 2."""
    l = _check_l(l)
    try:
        return (1 + 2 * l) * math.pi / 2.0
    except OverflowError:
        raise ValueError("l is too large: tau_l overflows a float") from None


@dataclass(frozen=True)
class NanoporeParams:
    """Model parameters: pore occupancy n, inverse temperature, time.

    n is the pore occupancy, beta the inverse temperature (math.inf selects
    zero temperature) and tau the dimensionless interaction time.  They
    must pass check_axes, as a grid of one point.
    """

    n: float
    beta: float
    tau: float

    def __post_init__(self):
        (n,) = check_axes([self.n], [self.beta], [self.tau])
        object.__setattr__(self, "n", n)


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


def _log_abs(c: np.ndarray) -> np.ndarray:
    """math.log|c| per value of c, -inf where c = 0."""
    return np.array([math.log(abs(x)) if x else -math.inf for x in c.tolist()])


def _powers(c: np.ndarray, log_c: np.ndarray, k) -> np.ndarray:
    """Sign-tracked c**k per value of c in log space, log_c = _log_abs(c): 1 for
    k = 0 (an empty product), exactly 0 for c = 0 and k > 0, +0 below 1e-300."""
    if k == 0:
        return np.ones(len(c))
    mag = np.fromiter(map(math.exp, (float(k) * log_c).tolist()), float, len(c))
    power = np.where((c < 0.0) & (int(k) % 2 == 1), -mag, mag)
    power[mag < _POWER_FLOOR] = 0.0
    return power


def check_axes(n_values, betas, taus, omega0: float = OMEGA0_DEFAULT) -> list:
    """Check a grid's axes; return its n values as int, or inf.

    n is an integer >= 2 or math.inf for the large-reservoir limit; every
    beta is >= 0 (NaN is not); every |tau| is at most float max / 2, which
    is exactly when 2 tau is finite (the model takes cos(2 tau)); omega0 is
    finite and > 0.  The n values are checked first, in order, then omega0,
    the betas and the taus, and ValueError names the first bad value.
    """
    ns = []
    for n in n_values:
        if n != math.inf:
            try:
                whole = math.isfinite(n) and float(n) == int(n)
            except OverflowError:
                raise ValueError("n is too large: it overflows a float") from None
            if not whole:
                raise ValueError(f"n must be an integer or inf, got {n}")
            if int(n) < 2:
                raise ValueError(f"n must be >= 2, got {n}")
            n = int(n)
        ns.append(n)
    if not (math.isfinite(omega0) and omega0 > 0.0):
        raise ValueError(f"omega0 must be finite and > 0, got {omega0}")
    (bad,) = np.nonzero(~(np.asarray(betas, dtype=float) >= 0.0))
    if bad.size:
        raise ValueError(f"beta must be >= 0, got {betas[bad[0]]}")
    (bad,) = np.nonzero(~(np.abs(np.asarray(taus, dtype=float)) <= _TAU_MAX))
    if bad.size:
        raise ValueError(f"tau must be finite, and 2 tau too, got {taus[bad[0]]}")
    return ns


def correlation_grid(n_values, betas, taus) -> CorrelationSet:
    """Pair correlators over the (n, beta, tau) grid, as arrays.

    Returns a CorrelationSet whose fields are float arrays in sweep order:
    n outer, then beta, then tau inner.  The axes must pass check_axes.  A
    tau equal to tau_special(l) takes the exact factors (``_tau_factors``).
    """
    th = np.array([math.tanh(b / 2.0) for b in betas], dtype=float)
    factors = np.array([_tau_factors(tau) for tau in taus]).reshape(-1, 3).T
    cos_tau, cos_2tau, sin_tau = factors
    log_tau, log_2tau = _log_abs(cos_tau), _log_abs(cos_2tau)
    q_plus_r = (0.25 * th * th)[:, None]
    p, q, r, u = (np.zeros((len(n_values), len(th), len(cos_tau))) for _ in "pqru")
    for k, n in enumerate(n_values):
        if math.isinf(n):
            q[k] = r[k] = (th * th / 8.0)[:, None]
            continue
        p[k] = np.multiply.outer(0.5 * th, _powers(cos_tau, log_tau, n - 1))
        q_minus_r = q_plus_r * _powers(cos_2tau, log_2tau, n - 2)
        u[k] = np.multiply.outer(0.25 * th, _powers(cos_tau, log_tau, n - 2))
        u[k] *= sin_tau
        q[k] = 0.5 * (q_plus_r + q_minus_r)
        r[k] = 0.5 * (q_plus_r - q_minus_r)
    return CorrelationSet(
        p=p.ravel(), q=q.ravel(), r=r.ravel(), u=u.ravel(), v=np.zeros(p.size)
    )


def _tau_factors(tau: float) -> tuple:
    """(cos tau, cos 2 tau, sin tau), exact at tau = tau_special(l).  For
    l < 2^50, 2 tau / pi rounds to 1 + 2 l; from 2^53 up it rounds to an even
    number and no l is tried, so a huge tau never overflows."""
    l, odd = divmod(round(2.0 * tau / math.pi), 2)
    if odd and l >= 0 and tau == tau_special(l):
        return 0.0, -1.0, (-1.0) ** (l % 2)
    return math.cos(tau), math.cos(2.0 * tau), math.sin(tau)


def correlations(params: NanoporeParams) -> CorrelationSet:
    """Pair correlators at time tau for the given pore parameters."""
    return _one_row(correlation_grid((params.n,), (params.beta,), (params.tau,)))


def special_time_correlations(n: int, beta: float, l: int = 0) -> CorrelationSet:
    """Correlators at the flickering time tau_l = (1 + 2 l) pi / 2.

    Evaluated at tau_special(l % 2), where correlation_grid takes the exact
    cos(tau_l) = 0, cos(2 tau_l) = -1 and sin(tau_l) = (-1)^l, which hold
    for every l of that parity: the transverse polarization vanishes
    identically, u survives only for n = 2, and the pair correlators
    alternate with the parity of n (even n keeps q, odd n keeps r).  n and
    beta must pass check_axes, n finite, and l an integer >= 0.
    """
    (n,) = check_axes([n], [beta], [])
    if math.isinf(n):
        raise ValueError("flickering times require a finite pore occupancy")
    return correlations(NanoporeParams(n, beta, tau_special(_check_l(l) % 2)))


def _one_row(grid: CorrelationSet) -> CorrelationSet:
    # The correlators of a one-point grid, as floats.
    return CorrelationSet(**{f: float(a[0]) for f, a in grid.as_dict().items()})


def cs_rows(corr: CorrelationSet) -> np.ndarray:
    """CS parameter rows p1..p7, shape (R, 7), for R sets of correlators.

    The fields of ``corr`` are arrays of length R, or floats for one row.
    The map is p1 = 1/4, p2 = p4 = p/2, p3 = p5 = -u, p6 = q - r,
    p7 = q + r; v enters only through its being zero for this model.  The
    rows are not checked: each CS measure checks the rows it is given
    (check_cs_rows).
    """
    p, q, r, u = (np.atleast_1d(getattr(corr, f)) for f in "pqru")
    rows = np.empty((len(p), 7))
    rows[:, 0], rows[:, 5], rows[:, 6] = 0.25, q - r, q + r
    rows[:, 1] = rows[:, 3] = p / 2.0
    rows[:, 2] = rows[:, 4] = -u
    return rows


def cs_from_correlations(corr: CorrelationSet) -> CSDensityMatrix:
    """Reduced pair density matrix of correlators (cs_rows), if check_cs_rows passes."""
    rows = cs_rows(corr)
    check_cs_rows(rows)
    return CSDensityMatrix(*rows[0].tolist())


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
