"""Quantum discord of two-qubit states.

Discord is the gap between total and classical correlations,

    Q = I(rho) - C(rho),
    I = S(rho_A) + S(rho_B) - S(rho),
    C = max_basis [ S(rho_A) - sum_s p_s S(rho_A | outcome s) ],

where the maximum runs over projective measurements on one qubit (the
second by convention here).  Both solvers take arrays of states and step
all rows in lockstep; they share no objective and no optimizer:

* ``discord_cs_rows`` for centrosymmetric states of the nanopore model
  (``discord_cs`` is its one-row case).  Rotating each qubit about x
  turns such a state into an X-state of the same discord; the search is
  exact in one variable, t = |n_x|, with an objective written in the
  X-state's entries, on a grid whose ends are the closed-form endpoints.
* ``discord_numeric_rows`` for any two-qubit states (``discord_numeric``
  is its one-row case): the conditional entropy in Bloch form
  (``_kernels``) on 230 directions per row, a hemisphere grid without its
  poles (the objective is even in n) and six seeds, the coordinate axes
  and the right singular vectors of T, then a zoom (``_zoom_rows``: box
  steps, then safeguarded Newton steps) in a rotated frame centred on each
  row's best first-pass direction, away from the coordinate poles.

A closed form is available for the symmetric-correlator states that arise
in the large-reservoir limit of the nanopore model, together with its low-
and high-temperature asymptotes; it is kept as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _DIRECTIONS, _directions, conditional_entropy_dirs
from ._kernels import conditional_entropy_point
from .cs_matrix import CSDensityMatrix, _top_singular, check_cs_rows, cs_bloch
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

# Zoom box steps: a _ZOOM_POINTS^2 box of half-width h about the best
# direction.  h shrinks by _ZOOM_SHRINK unless the box minimum lies on its
# edge, where it doubles (up to its starting value) so the box can follow a
# long valley; with 9 points and a factor 4 each new box still spans +-1
# spacing of the previous one, so a thin valley cannot slip between two boxes.
_ZOOM_POINTS = 9
_ZOOM_SHRINK = 4.0
# The quadratic finish (see _zoom_rows) takes over below h_start / _BOX_END.
# Its spacing stays >= _H_FLOOR after a Newton move, so the differenced
# Hessian's rounding, about 1e-16 / h^2, stays near 1e-6; a step below
# _STEP_TOL moves the objective by about its own rounding.
_BOX_END = 16.0
_H_FLOOR = 1e-5
_STEP_TOL = 1e-8

# The grid over phi = arccos(n_x) in [0, pi/2] in discord_cs_rows, spacing
# pi/64; its refinement stops at _CS_TOL, where f moves by about 1e-18.
_CS_POINTS = 33
_CS_TOL = 1e-9
# A grid or stencil whose values spread by no more than _FLAT is flat to
# rounding (the large-pore limit, product states): an interior minimum there
# is noise and is not refined, and a finishing row stops.
_FLAT = 1e-14
# Rows per chunk in discord_cs_rows: (rows, _CS_POINTS) temporaries of 135 kB.
_CS_CHUNK = 512


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


def _zoom_rows(x, y, T, theta, phi, h: float, best):
    """Refine grid minima (theta, phi, best): box steps, then a quadratic finish.

    One row per state of x, y (R, 3) and T (R, 3, 3); theta, phi and best
    are (R,) or scalars.  Active rows step together, one kernel call a step,
    and a row moves only on a strict improvement.  Boxes (see _ZOOM_POINTS)
    run while h > h_start / _BOX_END.  The finish tries the Newton step of a
    3x3 stencil's quadratic model, when convex, within a trust radius of 2 h,
    and moves to the better of the trial and the best stencil point: a
    Newton move sets h to the step's length (at least _H_FLOOR), no move
    divides h by _ZOOM_SHRINK.  A row stops once its Newton step (or h, with
    no convex model) is below _STEP_TOL, or its stencil is flat (_FLAT).
    """
    best = np.array(best, dtype=float)
    h_start = float(h)
    theta, phi, h = (np.full(len(best), a, dtype=float) for a in (theta, phi, h))
    last = _ZOOM_POINTS - 1
    while (act := np.flatnonzero(h > h_start / _BOX_END)).size:
        ha = h[act]
        ts = np.linspace(theta[act] - ha, theta[act] + ha, _ZOOM_POINTS, axis=-1)
        ps = np.linspace(phi[act] - ha, phi[act] + ha, _ZOOM_POINTS, axis=-1)
        n = _directions(ts, ps).reshape(len(act), -1, 3)
        box = conditional_entropy_dirs(x[act], y[act], T[act], n)
        k, l = np.divmod(np.argmin(box, axis=1), _ZOOM_POINTS)
        low = np.min(box, axis=1)
        up = low < best[act]
        rows = act[up]
        theta[rows], phi[rows], best[rows] = ts[up, k[up]], ps[up, l[up]], low[up]
        on_edge = (l % last == 0) | (k % last == 0)
        grow = act[up & on_edge]
        h[grow] = np.minimum(2.0 * h[grow], h_start)
        h[act[~(up & on_edge)]] /= _ZOOM_SHRINK

    step = h.copy()
    while (act := np.flatnonzero(step >= _STEP_TOL)).size:
        th, ph, ha, at = theta[act], phi[act], h[act], np.arange(len(act))
        off = np.multiply.outer(ha, [-1.0, 0.0, 1.0])
        ts, ps = th[:, None] + off, ph[:, None] + off
        n = _directions(ts, ps).reshape(len(act), -1, 3)
        f = conditional_entropy_dirs(x[act], y[act], T[act], n).reshape(-1, 3, 3)
        # The model's gradient and Hessian by central differences.
        hh = ha * ha
        g_t = (f[:, 2, 1] - f[:, 0, 1]) / (2 * ha)
        g_p = (f[:, 1, 2] - f[:, 1, 0]) / (2 * ha)
        h_tt = (f[:, 2, 1] - 2 * f[:, 1, 1] + f[:, 0, 1]) / hh
        h_pp = (f[:, 1, 2] - 2 * f[:, 1, 1] + f[:, 1, 0]) / hh
        h_tp = (f[:, 2, 2] - f[:, 2, 0] - f[:, 0, 2] + f[:, 0, 0]) / (4 * hh)
        det = h_tt * h_pp - h_tp * h_tp
        convex = (h_tt > 0.0) & (det > 0.0)
        d = np.where(convex, [h_tp * g_p - h_pp * g_t, h_tp * g_t - h_tt * g_p], 0.0)
        d /= np.where(convex, det, 1.0)
        size, radius = np.hypot(*d), 2.0 * ha
        cut = radius / np.maximum(size, radius)  # the step cut to the trust radius
        t_new, p_new = th + cut * d[0], ph + cut * d[1]
        n = _directions(t_new[:, None], p_new[:, None])[:, 0]
        trial = conditional_entropy_dirs(x[act], y[act], T[act], n)[:, 0]
        flat = np.ptp(f, axis=(1, 2)) <= _FLAT
        f[:, 1, 1] = np.inf  # the row's own point
        j = np.argmin(f.reshape(len(act), -1), axis=1)
        low = f.reshape(len(act), -1)[at, j]
        newton = convex & (trial < best[act]) & (trial <= low)
        moved = newton | (low < best[act])
        rows = act[moved]
        theta[rows] = np.where(newton, t_new, ts[at, j // 3])[moved]
        phi[rows] = np.where(newton, p_new, ps[at, j % 3])[moved]
        best[rows] = np.where(newton, trial, low)[moved]
        h[act] = np.where(newton, np.maximum(cut * size, _H_FLOOR), ha)
        h[act[~moved]] /= _ZOOM_SHRINK
        step[act] = np.where(flat, 0.0, np.where(convex, cut * size, h[act]))
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

    The first pass evaluates each row on 230 directions, in kernel calls of
    as many rows as one pass of _DIRECTIONS holds: +z, a DEFAULT_GRID of 16
    polar angles over [0, pi] by 16 azimuths over the hemisphere phi in
    [0, pi) less its theta = 0 and pi rows (32 copies of +z and, to
    rounding, -z), then x, y and the three right singular vectors of the
    row's T (the endpoint candidates of the X-state optimum).  The
    hemisphere suffices: measuring along -n swaps the two outcomes,
    p_+(-n) = p_-(n) and a_+(-n) = a_-(n), so the objective is even in n.
    Each row's best direction n0 is then zoomed, all rows in lockstep, in a
    rotated frame whose equator holds n0, away from the poles: 9x9 boxes
    down to 1/16 of the grid's spacing, then Newton steps on 3x3 stencils
    (_zoom_rows).  A row's result does not depend on the other rows; ties
    go to the first direction: +z, the grid in (theta, phi) order, then the
    seeds.
    """
    rhos = check_density_matrix(rhos) if validate else np.asarray(rhos, dtype=complex)
    rhos = rhos.reshape(-1, 4, 4)
    x, y, T = bloch_data(rhos)
    s_a, mutual = _entropies(x, y, np.linalg.eigvalsh(rhos))

    n_th, n_ph = DEFAULT_GRID
    thetas = np.linspace(0.0, math.pi, n_th)
    phis = np.linspace(0.0, math.pi, n_ph, endpoint=False)
    grid = _directions(thetas[1:-1], phis).reshape(-1, 3)
    grid = np.concatenate([[(0.0, 0.0, 1.0)], grid])
    seeds = np.concatenate(
        [np.broadcast_to(np.eye(3)[:2], (len(T), 2, 3)), np.linalg.svd(T)[2]], axis=1
    )
    n0, best = np.empty((len(rhos), 3)), np.empty(len(rhos))
    chunk = max(1, _DIRECTIONS // (len(grid) + 5))
    for lo in range(0, len(rhos), chunk):
        c = slice(lo, lo + chunk)
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

    ``params`` holds one parameter vector p1..p7 per row, shape (..., 7).
    Returns the arrays (mutual_information, classical_correlation, axis) of
    shapes (R,), (R,) and (R, 3): discord is the first minus the second, and
    axis is the optimal measured direction.  A row that is not a state
    raises InvalidStateError (check_cs_rows).

    x and y of a CS state lie along x and T is T_xx plus a yz block B, so
    the objective depends on n only through t = |n_x| and |B n_yz|, least
    with the transverse weight on B's larger singular value: the search is
    exact in t = cos phi (_cs_objective).  A grid of _CS_POINTS angles,
    whose ends are t = 1 and t = 0, runs _CS_CHUNK rows at a time; rows
    whose minimum is interior and not flat to rounding are refined
    (_refine_rows).  axis is (t, sqrt(1 - t^2) v); s_max and v come from
    cs_matrix._top_singular, which geometric discord reads too.
    """
    params = np.asarray(params, dtype=float).reshape(-1, 7)
    evals = check_cs_rows(params)  # once, not per chunk; spectra for the entropies
    x, y, T = cs_bloch(params)
    s_a, mutual = _entropies(x, y, evals)
    s_max, _, v_max = _top_singular(T[:, 1:, 1:])
    data = np.stack([x[:, 0], y[:, 0], T[:, 0, 0], s_max], axis=1)
    phis = np.linspace(0.0, 0.5 * math.pi, _CS_POINTS)
    j, best, spread = np.empty(len(data), int), np.empty(len(data)), np.empty(len(data))
    for lo in range(0, len(data), _CS_CHUNK):
        c = slice(lo, lo + _CS_CHUNK)
        values = _cs_objective(data[c], phis)
        j[c], best[c], spread[c] = values.argmin(1), values.min(1), np.ptp(values, 1)
    phi = phis[j]
    r = np.flatnonzero((j > 0) & (j < _CS_POINTS - 1) & (spread > _FLAT))
    phi[r], best[r] = _refine_rows(data[r], phi[r], best[r], phis[1])
    axis = np.concatenate([np.cos(phi)[:, None], np.sin(phi)[:, None] * v_max], 1)
    return mutual, s_a - best, axis


def _eta(z):
    """z ln z, and 0 for z <= 0: rounding can leave D - N just below 0."""
    return z * np.log(np.where(z > 0.0, z, 1.0))


def _cs_objective(data, phi):
    """Conditional entropy (R, M) of rotated CS X-states measured at t = cos phi.

    data rows are (x1, y1, T_xx, s_max), phi (M,) or (R, M).  With D = 1 +- y1 t
    and N = |(x1 +- T_xx t, s_max sin phi)| it is, in bits,
    sum_+- [eta(D) - eta((D + N) / 2) - eta((D - N) / 2)] / (2 ln 2).
    """
    x1, y1, txx, s_max = data.T[..., None]
    t, st2 = np.cos(phi), (s_max * np.sin(phi)) ** 2
    f = 0.0
    for d, x in ((1.0 + y1 * t, x1 + txx * t), (1.0 - y1 * t, x1 - txx * t)):
        n = np.sqrt(x * x + st2)  # np.hypot takes several times longer
        f = f + _eta(d) - _eta(0.5 * (d + n)) - _eta(0.5 * (d - n))
    return f / (2.0 * math.log(2.0))


def _refine_rows(data, phi, best, h):
    """Refine CS grid minima phi (objective best), grid spacing h, in lockstep.

    Each step moves to the least of 9 points over [phi - h, phi + h], and h
    shrinks by 4 (the next step spans +-1 spacing) until below _CS_TOL.
    """
    while phi.size and h > _CS_TOL:
        points = phi[:, None] + np.linspace(-h, h, 9)
        values = _cs_objective(data, points)
        k = np.argmin(values, axis=1)
        phi, best, h = points[np.arange(len(k)), k], values.min(axis=1), h / 4.0
    return phi, best


def discord_cs(m: CSDensityMatrix) -> DiscordResult:
    """Discord of a centrosymmetric state, second qubit measured.

    The one-row case of ``discord_cs_rows``, with the optimal basis.
    Raises InvalidStateError when m is not positive semidefinite.
    """
    return _first_row(*discord_cs_rows(m.params))
