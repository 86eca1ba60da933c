"""Quantum discord of two-qubit states.

Discord is the gap between total and classical correlations,

    Q = I(rho) - C(rho),
    I = S(rho_A) + S(rho_B) - S(rho),
    C = max_basis [ S(rho_A) - sum_s p_s S(rho_A | outcome s) ],

where the maximum runs over projective measurements on one qubit (the
second by convention here).  Both solvers take arrays of states, minimise
one objective, the conditional entropy in Bloch form (``_kernels``), and
refine grid minima with one zoom loop that steps all rows in lockstep:

* ``discord_cs_rows`` for arrays of centrosymmetric states of the
  nanopore model (``discord_cs`` is its one-row case).  Rotating each
  qubit about x turns such a state into an X-state of the same discord,
  and the search reduces exactly to one variable, the measured
  direction's x component.  A fixed grid over it, whose ends are the two
  closed-form endpoints, is evaluated for every row in one kernel call
  and zoomed only for rows whose minimum is interior.
* ``discord_numeric_rows`` for any two-qubit states (``discord_numeric``
  is its one-row case): a coarse grid over a hemisphere of directions (the
  objective is even in n) plus six seeds per row, the coordinate axes and
  the right singular vectors of T, then a zoom in a rotated frame centred
  on each row's best first-pass direction, away from the coordinate poles.

A closed form is available for the symmetric-correlator states that arise
in the large-reservoir limit of the nanopore model, together with its low-
and high-temperature asymptotes; it is kept as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _directions, conditional_entropy_dirs, conditional_entropy_grid
from ._kernels import conditional_entropy_point
from .cs_matrix import CSDensityMatrix, check_cs_rows, cs_bloch
from .states import ID2, PAULI_X, PAULI_Y, PAULI_Z
from .states import bloch_data, check_density_matrix, entropy_bits

__all__ = [
    "MeasurementBasis",
    "DiscordResult",
    "discord_bell_diagonal",
    "discord_low_t_asymptotic",
    "discord_high_t_asymptotic",
    "discord_numeric",
    "discord_numeric_rows",
    "discord_cs",
    "discord_cs_rows",
    "measurement_conditional_entropy",
]

# Points in theta over [0, pi] and in phi over the half period [0, pi).
DEFAULT_GRID = (16, 16)

# Zoom refinement: a _ZOOM_POINTS^2 box of half-width h about the best
# direction.  h shrinks by _ZOOM_SHRINK unless the box minimum lies on its
# edge, where it doubles (up to its starting value) so the box can follow a
# long valley; with 9 points and a factor 4 each new box still spans +-1
# spacing of the previous one, so a thin valley cannot slip between two boxes.
_ZOOM_POINTS = 9
_ZOOM_SHRINK = 4.0
_ZOOM_MIN_H = 1e-9
_ZOOM_MAX_STEPS = 64

# Points of the fixed grid over phi = arccos(n_x) in [0, pi/2] in
# discord_cs_rows, a spacing of pi/64.
_CS_POINTS = 33
# A grid whose values spread by no more than _CS_FLAT is flat to rounding (the
# large-pore limit, product states): an interior minimum there is noise and
# is not zoomed.
_CS_FLAT = 1e-14
# Rows per kernel call in discord_cs_rows: the kernel's temporaries hold
# about 100 floats per row each, so a chunk keeps them near 1 MB apiece.
_CS_CHUNK = 512
# Rows per first-pass kernel call in discord_numeric_rows: 128 rows of 262
# directions, so the kernel's (rows, 3, directions) temporaries stay near
# 0.8 MB apiece.
_GRID_CHUNK = 128


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction on the Bloch sphere.

    theta is the polar angle in [0, pi], phi the azimuth in [0, 2 pi).
    """

    theta: float
    phi: float

    @property
    def axis(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    def projectors(self):
        """The pair of rank-1 projectors (1 +- n.sigma)/2."""
        n = self.axis
        ns = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        return 0.5 * (ID2 + ns), 0.5 * (ID2 - ns)


@dataclass(frozen=True)
class DiscordResult:
    """Correlation split of a state for the optimal measurement."""

    mutual_information: float
    classical_correlation: float
    discord: float
    basis: MeasurementBasis

    def as_dict(self) -> dict:
        return {
            "mutual_information": self.mutual_information,
            "classical_correlation": self.classical_correlation,
            "discord": self.discord,
            "theta": self.basis.theta,
            "phi": self.basis.phi,
        }


def _xlog2x(t: float) -> float:
    return t * math.log2(t) if t > 1e-14 else 0.0


def discord_bell_diagonal(q: float) -> float:
    """Closed-form discord of the symmetric-correlator state.

    Valid for the Bell-diagonal family with transverse correlators equal
    to 4q and vanishing longitudinal one; the physical domain is
    |8 q| <= 1.
    """
    if abs(8.0 * q) > 1.0 + 1e-12:
        raise ValueError(f"q = {q} outside the physical domain |8q| <= 1")
    e = 8.0 * q
    m = 4.0 * q
    return (
        0.25 * (_xlog2x(1.0 + e) + _xlog2x(1.0 - e))
        - 0.5 * (_xlog2x(1.0 + m) + _xlog2x(1.0 - m))
    )


def discord_low_t_asymptotic(beta: float) -> float:
    """Low-temperature asymptote of the large-reservoir discord.

    Approaches the saturation value (3/4) log2(4/3) from below with an
    exponentially small correction.
    """
    return 0.75 * math.log2(4.0 / 3.0) - beta * math.exp(-beta) / math.sqrt(2.0)


def discord_high_t_asymptotic(beta: float) -> float:
    """High-temperature asymptote of the large-reservoir discord."""
    return beta**4 / (128.0 * math.log(2.0))


def _entropies(x, y, evals):
    """Per row, the unmeasured qubit's entropy and the mutual information."""
    half = 0.5 * (1.0 + np.linalg.norm(np.stack([x, y], axis=1), axis=-1))
    s_a, s_b = entropy_bits(np.stack([half, 1.0 - half], axis=-1)).T
    return s_a, s_a + s_b - entropy_bits(evals)


def measurement_conditional_entropy(rho, theta: float, phi: float) -> float:
    """Conditional entropy of the first qubit, second measured along (theta, phi)."""
    x, y, T = bloch_data(check_density_matrix(rho))
    return conditional_entropy_point(x, y, T, theta, phi)


def _chart(n0: np.ndarray) -> np.ndarray:
    """Per row of n0 (R, 3), the orthogonal matrix with rows n0, e1, n0 x e1."""
    helper = np.where(np.abs(n0[:, 2:]) >= 0.9, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    e1 = np.cross(helper, n0)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return np.stack([n0, e1, np.cross(n0, e1)], axis=1)


def _zoom_rows(x, y, T, theta, phi, h: float, best, polar=True):
    """Refine grid minima (theta, phi, best) by zooming boxes of half-width h.

    One row per state of x, y (R, 3) and T (R, 3, 3); theta, phi and best
    are (R,) or scalars.  A box has _ZOOM_POINTS points along phi and, when
    ``polar``, along theta too.  A row moves only on a strict improvement.
    A step that improves with the box minimum on a zoomed edge doubles the
    row's h, up to its starting h, so the box keeps pace along a flat
    valley; every other step divides h by _ZOOM_SHRINK.  All rows with
    h >= _ZOOM_MIN_H step together, in one kernel call.
    """
    best = np.array(best, dtype=float)
    h_start = float(h)
    theta, phi, h = (np.full(len(best), a, dtype=float) for a in (theta, phi, h))
    last = _ZOOM_POINTS - 1
    for _ in range(_ZOOM_MAX_STEPS):
        act = np.flatnonzero(h >= _ZOOM_MIN_H)
        if not act.size:
            break
        ha, ts = h[act], theta[act, None]
        ps = np.linspace(phi[act] - ha, phi[act] + ha, _ZOOM_POINTS, axis=-1)
        if polar:
            ts = np.linspace(theta[act] - ha, theta[act] + ha, _ZOOM_POINTS, axis=-1)
        n = _directions(ts, ps).reshape(len(act), -1, 3)
        box = conditional_entropy_dirs(x[act], y[act], T[act], n)
        k, l = np.divmod(np.argmin(box, axis=1), _ZOOM_POINTS)
        low = np.min(box, axis=1)
        up = low < best[act]
        rows = act[up]
        theta[rows], phi[rows], best[rows] = ts[up, k[up]], ps[up, l[up]], low[up]
        on_edge = (l % last == 0) | (polar & (k % last == 0))
        grow = act[up & on_edge]
        h[grow] = np.minimum(2.0 * h[grow], h_start)
        h[act[~(up & on_edge)]] /= _ZOOM_SHRINK
    return theta, phi, best


def _basis(n: np.ndarray) -> MeasurementBasis:
    """The measurement basis along the unit vector n."""
    # atan2 keeps the polar angle accurate near the poles; a tiny negative
    # azimuth would round to 2 pi under %, so that case wraps to 0.
    phi = math.atan2(n[1], n[0]) % (2.0 * math.pi)
    return MeasurementBasis(
        theta=math.atan2(math.hypot(n[0], n[1]), n[2]),
        phi=0.0 if phi == 2.0 * math.pi else phi,
    )


def _first_row(mutual, classical, axis) -> DiscordResult:
    """The DiscordResult of the first row of a solver's arrays."""
    mi, cc = float(mutual[0]), float(classical[0])
    return DiscordResult(mi, cc, mi - cc, _basis(axis[0]))


def discord_numeric(rho, validate=True):
    """Discord of a 4x4 state rho by measurement search, as a DiscordResult.

    The one-row case of ``discord_numeric_rows``, with the optimal basis.
    """
    return _first_row(*discord_numeric_rows([rho], validate))


def discord_numeric_rows(rhos, validate=True):
    """Discord of (R, 4, 4) two-qubit states by measurement search, row by row.

    The second qubit is measured (for the first, pass ``swap_qubits(rhos)``);
    with ``validate`` a row that is not a density matrix raises
    InvalidStateError.  Returns the arrays (mutual_information,
    classical_correlation, axis) as discord_cs_rows.

    The first pass, one kernel call per _GRID_CHUNK rows, evaluates each row
    on 262 directions: a DEFAULT_GRID of 16 polar angles over [0, pi] by 16
    azimuths over the hemisphere phi in [0, pi), then six seeds, the
    coordinate axes and the three right singular vectors of the row's T
    (the endpoint candidates of the X-state optimum).  The hemisphere
    suffices: measuring along -n swaps the two outcomes, p_+(-n) = p_-(n)
    and a_+(-n) = a_-(n), so the objective is even in n.  Each row's best
    direction n0 is then zoomed, all rows in lockstep, with 9x9 boxes in a
    rotated frame whose equator holds n0, away from the poles.  A row's
    result does not depend on the other rows; ties go to the first
    direction, grid before seeds and the grid in (theta, phi) order.
    """
    rhos = check_density_matrix(rhos) if validate else np.asarray(rhos, dtype=complex)
    rhos = rhos.reshape(-1, 4, 4)
    x, y, T = bloch_data(rhos)
    s_a, mutual = _entropies(x, y, np.linalg.eigvalsh(rhos))

    n_th, n_ph = DEFAULT_GRID
    thetas = np.linspace(0.0, math.pi, n_th)
    phis = np.linspace(0.0, math.pi, n_ph, endpoint=False)
    grid = _directions(thetas, phis).reshape(-1, 3)
    seeds = np.concatenate(
        [np.broadcast_to(np.eye(3), T.shape), np.linalg.svd(T)[2]], axis=1
    )
    n0, best = np.empty((len(rhos), 3)), np.empty(len(rhos))
    for lo in range(0, len(rhos), _GRID_CHUNK):
        c = slice(lo, lo + _GRID_CHUNK)
        rows = len(seeds[c])
        n = np.concatenate([np.broadcast_to(grid, (rows,) + grid.shape), seeds[c]], 1)
        values = conditional_entropy_dirs(x[c], y[c], T[c], n)
        at = np.argmin(values, axis=1)
        n0[c], best[c] = n[np.arange(rows), at], values[np.arange(rows), at]

    # The objective at m for data (x, R y, T R^T) is the objective at R^T m
    # for (x, y, T); R maps n0 to (theta, phi) = (pi/2, 0).
    R = _chart(n0)
    Rt = np.swapaxes(R, 1, 2)
    h = max(float(thetas[1] - thetas[0]), float(phis[1] - phis[0]))
    Ry = (R @ y[..., None])[..., 0]
    theta, phi, best = _zoom_rows(x, Ry, T @ Rt, 0.5 * math.pi, 0.0, h, best)
    axis = (Rt @ _directions(theta[:, None], phi[:, None]).reshape(-1, 3, 1))[..., 0]
    return mutual, s_a - best, axis


def discord_cs_rows(params):
    """Discord of centrosymmetric states, second qubit measured, row by row.

    ``params`` holds one parameter vector p1..p7 per row, shape (R, 7).
    Returns the arrays (mutual_information, classical_correlation, axis) of
    shapes (R,), (R,) and (R, 3); the discord of a row is its mutual
    information minus its classical correlation, and axis is the optimal
    measured direction.

    Both local Bloch vectors of a CS state lie along x and T is T_xx plus a
    2x2 yz block B, so the objective depends on the measured direction n
    only through t = n_x and |B n_yz|.  At fixed t it is least with all the
    transverse weight on the larger singular value s_max of B, and it is
    even in t, so the measurement search is exact on t in [0, 1].  It runs
    on the rotated data x = (x1, 0, 0), y = (y1, 0, 0),
    T = diag(T_xx, s_max, s_min) along theta = pi/2, phi = arccos t: a
    fixed grid whose ends are the endpoints t = 1 and t = 0, evaluated for
    all rows in one kernel call and zoomed, with discord_numeric's box
    rule and in lockstep, only for the rows whose minimum is interior and
    whose grid is not flat to rounding.  The axis is reported in the
    original frame, (t, sqrt(1 - t^2) v_max) with v_max the right singular
    vector of B for s_max.

    Rows are evaluated in chunks of _CS_CHUNK, so the kernel's temporaries
    stay bounded for any R.  Each chunk passes check_cs_rows, whose spectra
    give the entropies; a row that is not a state raises InvalidStateError.
    """
    params = np.asarray(params, dtype=float).reshape(-1, 7)
    rows = len(params)
    mutual, classical, axis = np.empty(rows), np.empty(rows), np.empty((rows, 3))
    for lo in range(0, rows, _CS_CHUNK):
        chunk = slice(lo, lo + _CS_CHUNK)
        mutual[chunk], classical[chunk], axis[chunk] = _discord_cs_chunk(
            params[chunk]
        )
    return mutual, classical, axis


def _discord_cs_chunk(params):
    evals = check_cs_rows(params)
    x, y, T = cs_bloch(params)
    s_a, mutual = _entropies(x, y, evals)
    _, s, vt = np.linalg.svd(T[:, 1:, 1:])
    diag = np.zeros_like(T)
    diag[:, 0, 0] = T[:, 0, 0]
    diag[:, 1, 1] = s[:, 0]
    diag[:, 2, 2] = s[:, 1]

    theta = 0.5 * math.pi
    phis = np.linspace(0.0, 0.5 * math.pi, _CS_POINTS)
    values = conditional_entropy_grid(x, y, diag, [theta], phis)[:, 0]
    j = np.argmin(values, axis=1)
    phi = phis[j]
    best = values[np.arange(len(values)), j]
    interior = (j > 0) & (j < _CS_POINTS - 1) & (np.ptp(values, axis=1) > _CS_FLAT)
    h = float(phis[1] - phis[0])
    rows = np.flatnonzero(interior)
    _, phi[rows], best[rows] = _zoom_rows(
        x[rows], y[rows], diag[rows], theta, phi[rows], h, best[rows], polar=False
    )

    # The zoom may step past an end; the objective is mirror symmetric there.
    t, w = np.abs(np.cos(phi)), np.abs(np.sin(phi))
    axis = np.stack([t, w * vt[:, 0, 0], w * vt[:, 0, 1]], axis=-1)
    return mutual, s_a - best, axis


def discord_cs(m: CSDensityMatrix) -> DiscordResult:
    """Discord of a centrosymmetric state, second qubit measured.

    The one-row case of ``discord_cs_rows``, with the optimal basis.
    Raises InvalidStateError when m is not positive semidefinite.
    """
    return _first_row(*discord_cs_rows(m.params))
