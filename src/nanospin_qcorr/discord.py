"""Quantum discord of two-qubit states.

Discord is the gap between total and classical correlations,

    Q = I(rho) - C(rho),
    I = S(rho_A) + S(rho_B) - S(rho),
    C = max_basis [ S(rho_A) - sum_s p_s S(rho_A | outcome s) ],

where the maximum runs over projective measurements on one qubit (the
second by convention here).  Both solvers minimise one objective, the
conditional entropy in Bloch form (``_kernels``):

* ``discord_cs_rows`` for arrays of centrosymmetric states of the
  nanopore model (``discord_cs`` is its one-row case).  Rotating each
  qubit about x turns such a state into an X-state of the same discord,
  and the search reduces exactly to one variable, the measured
  direction's x component.  A fixed grid over it, whose ends are the two
  closed-form endpoints, is evaluated for every row in one kernel call
  and zoomed only for rows whose minimum is interior.
* ``discord_numeric`` for any two-qubit state: a coarse grid over the
  measurement sphere followed by a zoom of small grids in a rotated frame
  centred on the best grid direction, away from the coordinate poles.

A closed form is available for the symmetric-correlator states that arise
in the large-reservoir limit of the nanopore model, together with its low-
and high-temperature asymptotes; it is kept as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import conditional_entropy_grid, conditional_entropy_point
from .cs_matrix import (
    CSDensityMatrix,
    cs_bloch,
    cs_from_vector,
    cs_spectrum,
    validate_density,
)
from .states import (
    EPS_PSD,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    InvalidStateError,
    _qubit_side,
    binary_entropy,
    bloch_data,
    check_density_matrix,
    entropy_bits,
    von_neumann_entropy,
)

__all__ = [
    "MeasurementBasis",
    "DiscordResult",
    "discord_bell_diagonal",
    "discord_low_t_asymptotic",
    "discord_high_t_asymptotic",
    "discord_numeric",
    "discord_cs",
    "discord_cs_rows",
    "measurement_conditional_entropy",
]

DEFAULT_GRID = (64, 128)

# Zoom refinement: a _ZOOM_POINTS^2 box of half-width h about the best
# direction.  h shrinks by _ZOOM_SHRINK unless the box minimum lies on its
# edge; with 9 points and a factor 4 each new box still spans +-1 spacing of
# the previous one, so a thin valley cannot slip between two boxes.
_ZOOM_POINTS = 9
_ZOOM_SHRINK = 4.0
_ZOOM_MIN_H = 1e-9
_ZOOM_MAX_STEPS = 64

# Points of the fixed grid over phi = arccos(n_x) in [0, pi/2] in
# discord_cs_rows: the spacing of DEFAULT_GRID's azimuthal grid.
_CS_POINTS = 33
# A grid whose values spread by no more than _CS_FLAT is flat to rounding (the
# large-pore limit, product states): an interior minimum there is noise and
# is not zoomed.
_CS_FLAT = 1e-14
# Rows per kernel call in discord_cs_rows: the kernel's temporaries hold
# about 100 floats per row each, so a chunk keeps them near 1 MB apiece.
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


def _resolve_bloch(rho, measured: str, validate: bool):
    rho = np.asarray(rho, dtype=complex)
    if validate:
        rho = check_density_matrix(rho)
    x, y, T = bloch_data(rho)
    if _qubit_side(measured, "measured") == "first":
        # Measuring the first qubit of rho is the same problem with the
        # qubit roles exchanged: swap local vectors, transpose T.
        x, y = y, x
        T = T.T.copy()
    return rho, x, y, T


def measurement_conditional_entropy(
    rho, theta: float, phi: float, measured: str = "second", validate: bool = True
) -> float:
    """Conditional entropy of the unmeasured qubit for a fixed direction."""
    _, x, y, T = _resolve_bloch(rho, measured, validate)
    return conditional_entropy_point(x, y, T, theta, phi)


def _chart(n0: np.ndarray) -> np.ndarray:
    """Orthogonal matrix with rows (n0, e1, n0 x e1), e1 perpendicular to n0."""
    helper = np.array([1.0, 0.0, 0.0] if abs(n0[2]) >= 0.9 else [0.0, 0.0, 1.0])
    e1 = np.cross(helper, n0)
    e1 /= np.linalg.norm(e1)
    return np.array([n0, e1, np.cross(n0, e1)])


def _zoom(x, y, T, theta, phi, h, best, polar=True):
    """Refine a grid minimum (theta, phi, best) by zooming boxes of half-width h.

    A box has _ZOOM_POINTS points along phi and, when ``polar``, along theta
    too.  The search moves only on a strict improvement and keeps h while the
    box minimum lies on a zoomed edge.  Returns the refined (theta, phi, best).
    """
    edge = (0, _ZOOM_POINTS - 1)
    for _ in range(_ZOOM_MAX_STEPS):
        if h < _ZOOM_MIN_H:
            break
        if polar:
            ts = np.linspace(theta - h, theta + h, _ZOOM_POINTS)
        else:
            ts = np.array([theta])
        ps = np.linspace(phi - h, phi + h, _ZOOM_POINTS)
        box = conditional_entropy_grid(x, y, T, ts, ps)
        k, l = divmod(int(np.argmin(box)), _ZOOM_POINTS)
        if box[k, l] < best:
            theta, phi, best = float(ts[k]), float(ps[l]), float(box[k, l])
            if (polar and k in edge) or l in edge:
                continue
        h /= _ZOOM_SHRINK
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


def discord_numeric(
    rho,
    grid=DEFAULT_GRID,
    measured: str = "second",
    validate: bool = True,
) -> DiscordResult:
    """Discord of an arbitrary two-qubit state by measurement search.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix.
    grid : (int, int)
        Number of polar x azimuthal samples of the initial sweep.  The
        polar grid includes both poles; the azimuthal one is periodic.
    measured : str
        Which qubit is measured, "second" (default) or "first".
    validate : bool
        Validate rho before use.

    The best grid direction n0 is refined by zooming 9x9 grids in a
    rotated frame whose equator passes through n0, so the search never
    sits on a coordinate pole.  Deterministic: ties on every grid resolve
    to the first point in (theta, phi) lexicographic order, and the zoom
    has fixed box sizes and a fixed step cap.
    """
    rho, x, y, T = _resolve_bloch(rho, measured, validate)
    s_a = binary_entropy(0.5 * (1.0 + float(np.linalg.norm(x))))
    s_b = binary_entropy(0.5 * (1.0 + float(np.linalg.norm(y))))
    s_ab = von_neumann_entropy(rho)
    mutual = s_a + s_b - s_ab

    n_th, n_ph = grid
    thetas = np.linspace(0.0, math.pi, n_th)
    phis = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    values = conditional_entropy_grid(x, y, T, thetas, phis)
    i, j = divmod(int(np.argmin(values)), n_ph)

    # The objective at m for data (x, R y, T R^T) is the objective at R^T m
    # for (x, y, T); R maps n0 to (theta, phi) = (pi/2, 0).
    R = _chart(MeasurementBasis(float(thetas[i]), float(phis[j])).axis)
    h = max(float(thetas[1] - thetas[0]), float(phis[1] - phis[0]))
    theta, phi, best = _zoom(
        x, R @ y, T @ R.T, 0.5 * math.pi, 0.0, h, float(values[i, j])
    )
    classical = s_a - best
    return DiscordResult(
        mutual_information=mutual,
        classical_correlation=classical,
        discord=mutual - classical,
        basis=_basis(R.T @ MeasurementBasis(theta, phi).axis),
    )


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
    all rows in one kernel call and zoomed, one row at a time, with
    discord_numeric's box rule only when a row's minimum is interior and
    its grid is not flat to rounding.  The axis is reported in the
    original frame, (t, sqrt(1 - t^2) v_max) with v_max the right singular
    vector of B for s_max.

    Rows are evaluated in chunks of _CS_CHUNK, so the kernel's temporaries
    stay bounded for any R.  Raises InvalidStateError, naming the negative
    eigenvalue, when a row is not positive semidefinite.
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
    evals = cs_spectrum(params)
    bad = np.flatnonzero(np.any(evals < -EPS_PSD, axis=1))
    if bad.size:
        report = validate_density(cs_from_vector(params[bad[0]]))
        raise InvalidStateError(
            "not a density matrix: " + "; ".join(report.violations)
        )
    x, y, T = cs_bloch(params)
    half = 0.5 * (1.0 + np.abs(np.stack([x[:, 0], y[:, 0]], axis=-1)))
    s_a, s_b = entropy_bits(np.stack([half, 1.0 - half], axis=-1)).T
    mutual = s_a + s_b - entropy_bits(evals)
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
    for i in np.flatnonzero(interior):
        _, phi[i], best[i] = _zoom(
            x[i], y[i], diag[i], theta, float(phi[i]), h, float(best[i]), polar=False
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
    mutual, classical, axis = discord_cs_rows(m.params)
    return DiscordResult(
        mutual_information=float(mutual[0]),
        classical_correlation=float(classical[0]),
        discord=float(mutual[0] - classical[0]),
        basis=_basis(axis[0]),
    )
