"""Quantum discord of two-qubit states.

Discord is the gap between total and classical correlations,

    Q = I(rho) - C(rho),
    I = S(rho_A) + S(rho_B) - S(rho),
    C = max_basis [ S(rho_A) - sum_s p_s S(rho_A | outcome s) ],

where the maximum runs over projective measurements on one qubit (the
second by convention here).  Two solvers take arrays of states and step
all rows in lockstep; they share no entropy formula, no objective and no
optimizer:

* ``discord_cs_rows``, for the centrosymmetric states of the nanopore
  model: an exact search in one variable, settled at an endpoint by a
  closed-form certificate (``_certified_phi``) where it can be.  Its
  entropies and its objective are sums of ``_eta``.
* ``discord_numeric_rows``, for any two-qubit states: a first pass over
  the axes, T's right singular vectors and the half great circles through
  them (``_kernels``), then Newton steps (``_zoom_rows``).  Its entropies
  are ``states.entropy_bits``; its objective is the kernel's.

A closed form for the symmetric-correlator states of the large-reservoir
limit, with its low- and high-temperature asymptotes, is kept as an
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _directions, conditional_entropy_dirs
from .cs_matrix import _checked_rows, _top_singular, _top_vector
from .states import bloch_data, check_density_matrix, entropy_bits

__all__ = [
    "DiscordResult",
    "discord_bell_diagonal",
    "discord_low_t_asymptotic",
    "discord_high_t_asymptotic",
    "discord_numeric",
    "discord_numeric_rows",
    "discord_cs_rows",
]

# The first pass's half great circles through two of T's right singular
# vectors, the plane of a rotated CS state's optimum, at spacing pi/_CIRCLE,
# in blocks of at most _FIRST_BYTES of directions (441 rows of 99).
_CIRCLE = 32
_FIRST_BYTES = 2**20
# discord_numeric_rows' fixed first-pass directions +z, x and y, and the
# circles' cos and sin of k pi/_CIRCLE, k = 1 .. _CIRCLE - 1.
_AXES = np.eye(3)[[2, 0, 1]]
_ARC = np.arange(1, _CIRCLE) * (math.pi / _CIRCLE)
_ARC_COS, _ARC_SIN = np.cos(_ARC), np.sin(_ARC)
# The finish's first stencil spacing, that of the 8 x 8 hemisphere grid the
# first pass once held: kept so that the finish takes the same path.
_ZOOM_H = math.pi / 7

# A zoom row that does not move divides its stencil's spacing by _ZOOM_SHRINK.
# The spacing stays >= _H_FLOOR after a Newton move, so the differenced
# Hessian's rounding, about 1e-16 / h^2, stays near 1e-6; a step below
# _STEP_TOL moves the objective by about its own rounding.
_ZOOM_SHRINK = 4.0
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
# Weights at or below _ZERO_WEIGHT, a pure state's rounded zero eigenvalues
# among them, count as 0 in discord_cs_rows' entropies and in the
# Bell-diagonal closed form.
_ZERO_WEIGHT = 1e-14
# Rows per chunk in discord_cs_rows: (rows, _CS_POINTS) temporaries of 135 kB.
_CS_CHUNK = 512
# The endpoint certificate's rounding: _EPS scales the bounds on Delta and
# kappa, P must exceed _P_MARGIN times its terms' size, and r_lo is capped at
# _R_CAP (a smaller kappa is weaker, never wrong).
_EPS = np.finfo(float).eps
_P_MARGIN = 2.0**-40
_R_CAP = 0.5


@dataclass(frozen=True)
class DiscordResult:
    """Correlation split of a state for the optimal measurement, measured
    along the unit vector axis = (n_x, n_y, n_z) (-axis is the same one)."""

    mutual_information: float
    classical_correlation: float
    discord: float
    axis: tuple


def _xlog2x(t: float) -> float:
    return t * math.log2(t) if t > _ZERO_WEIGHT else 0.0


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


def _chart(n0: np.ndarray) -> np.ndarray:
    """Per row of n0 (R, 3), the orthogonal matrix with rows n0, e1, n0 x e1."""
    helper = np.where(np.abs(n0[:, 2:]) >= 0.9, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    e1 = np.cross(helper, n0)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return np.stack([n0, e1, np.cross(n0, e1)], axis=1)


def _zoom_rows(x, y, T, theta, phi, h: float, best):
    """Refine first-pass minima (theta, phi, best) by safeguarded Newton steps.

    One row per state of x, y (R, 3) and T (R, 3, 3); theta, phi and best
    are (R,) or scalars, and h is the first pass's spacing.  Active rows
    step together, two kernel calls a step, and a row moves only on a strict
    improvement.  Each step tries the Newton step of a 3x3 stencil's
    quadratic model of spacing h, when convex, within a trust radius of 2 h,
    and moves to the better of the trial and the best stencil point: a
    Newton move sets h to the step's length (at least _H_FLOOR), no move
    divides h by _ZOOM_SHRINK.  A row stops once its Newton step (or h, with
    no convex model) is below _STEP_TOL, or its stencil is flat (_FLAT).
    """
    best = np.array(best, dtype=float)
    theta, phi, h = (np.full(len(best), a, dtype=float) for a in (theta, phi, h))
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


def discord_numeric(rho, validate=True):
    """Discord of a 4x4 state, a DiscordResult: discord_numeric_rows' one-row case."""
    mutual, classical, axis = discord_numeric_rows([rho], validate)
    mi, cc = float(mutual[0]), float(classical[0])
    return DiscordResult(mi, cc, mi - cc, tuple(axis[0].tolist()))


def discord_numeric_rows(rhos, validate=True, *, _evals=None):
    """Discord of (R, 4, 4) two-qubit states by measurement search, row by row.

    The second qubit is measured (for the first, pass ``swap_qubits(rhos)``);
    with ``validate`` a row that is not a density matrix raises
    InvalidStateError.  Returns the arrays (mutual_information,
    classical_correlation, axis) as discord_cs_rows.  ``_evals`` are the
    states' eigenvalues when the caller already has them
    (``verification.oracle_rows`` passes its check's).  S(rho) takes them,
    S(rho_A) and S(rho_B) the Bloch lengths |x| and |y|, all through
    states.entropy_bits.

    The objective is the conditional entropy in Bloch form (``_kernels``).
    The first pass evaluates each row on 99 directions, one kernel call per
    block of rows (at most _FIRST_BYTES of directions): +z, x, y and the three
    right singular vectors v1, v2, v3 of the row's T; then three half great
    circles, cos(k pi / _CIRCLE) vi + sin(k pi / _CIRCLE) vj for
    k = 1 .. _CIRCLE - 1 through (v1, v2), (v1, v3) and (v2, v3).  A locally
    rotated CS state is an X-state whose optimum lies in the plane of two of
    T's right singular vectors (Chen et al., PRA 84, 042313 (2011)), so the
    circles sample that plane.  Half circles suffice: measuring along -n
    swaps the two outcomes, p_+(-n) = p_-(n) and a_+(-n) = a_-(n), so the
    objective is even in n.  Each row's best direction n0 is then zoomed
    (_zoom_rows), all rows in lockstep, in a rotated frame whose equator
    holds n0, away from the poles, from the spacing _ZOOM_H = pi/7.  A
    row's result does not depend on the other rows; ties go to the first
    direction in the order above.
    """
    rhos = check_density_matrix(rhos) if validate else np.asarray(rhos, dtype=complex)
    rhos = rhos.reshape(-1, 4, 4)
    x, y, T = bloch_data(rhos)
    evals = np.linalg.eigvalsh(rhos) if _evals is None else _evals
    half = 0.5 * (1.0 + np.linalg.norm(np.stack([x, y], axis=1), axis=-1))
    s_a, s_b = entropy_bits(np.stack([half, 1.0 - half], axis=-1)).T
    mutual = s_a + s_b - entropy_bits(evals)

    # A block's directions, (rows, 99, 3) as the kernel takes them (its y.n
    # and T n round by their layout); each circle is written through its
    # component-major view (rows, 3, 31), so the products run along it.
    v = np.linalg.svd(T)[2]
    n0, best = np.empty((len(rhos), 3)), np.empty(len(rhos))
    block = max(1, _FIRST_BYTES // (3 * 8 * (6 + 3 * len(_ARC))))
    for lo in range(0, len(rhos), block):
        c = slice(lo, lo + block)
        n = np.empty((len(v[c]), 6 + 3 * len(_ARC), 3))
        n[:, :3], n[:, 3:6] = _AXES, v[c]
        arcs = np.swapaxes(n[:, 6:].reshape(len(n), 3, len(_ARC), 3), 2, 3)
        for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            np.multiply(_ARC_COS, v[c, i, :, None], out=arcs[:, k], order="C")
            np.add(arcs[:, k], _ARC_SIN * v[c, j, :, None], out=arcs[:, k], order="C")
        values = conditional_entropy_dirs(x[c], y[c], T[c], n)
        at, rows = np.argmin(values, axis=1), np.arange(len(n))
        n0[c], best[c] = n[rows, at], values[rows, at]

    # The objective at m for data (x, R y, T R^T) is the objective at R^T m
    # for (x, y, T); R maps n0 to (theta, phi) = (pi/2, 0).
    R = _chart(n0)
    Rt = np.swapaxes(R, 1, 2)
    Ry = (R @ y[..., None])[..., 0]
    theta, phi, best = _zoom_rows(x, Ry, T @ Rt, 0.5 * math.pi, 0.0, _ZOOM_H, best)
    axis = (Rt @ _directions(theta[:, None], phi[:, None]).reshape(-1, 3, 1))[..., 0]
    return mutual, s_a - best, axis


def discord_cs_rows(params):
    """Discord of centrosymmetric states, second qubit measured, row by row.

    ``params`` holds one parameter vector p1..p7 per row, shape (..., 7).
    Returns the arrays (mutual_information, classical_correlation, axis) of
    shapes (R,), (R,) and (R, 3): discord is the first minus the second, and
    axis is the optimal measured direction.  A row that is not a state
    raises InvalidStateError (check_cs_rows).  S(rho) takes check_cs_rows'
    spectrum, S(rho_A) and S(rho_B) the weights (1 +- |x1|) / 2 and
    (1 +- |y1|) / 2, each a sum of _eta terms, as the objective is.

    x and y of a CS state lie along x and T is T_xx plus a yz block B, so
    the objective depends on n only through t = |n_x| and |B n_yz|, least
    with the transverse weight on B's larger singular value s_max.  Rotating
    each qubit about x makes the state an X-state of the same discord, and
    the search is exact in t = cos phi: f(t) = H(t) + H(-t) (_cs_objective).

    A row that _certified_phi settles at an endpoint takes the objective
    once, there.  The other rows run on a grid of _CS_POINTS angles, whose
    ends are t = 1 and t = 0, _CS_CHUNK rows at a time; rows whose grid
    minimum is not flat to rounding are refined (_refine_rows) when it is
    interior, or at an endpoint whose slope test fails or is NaN:
    f'(1) = H'(1) - H'(-1) > 0 at t = 1, H''(0) < 0 at t = 0.  axis is
    (t, sqrt(1 - t^2) v), v from _top_vector.  x1, y1, T_xx and B come from
    cs_matrix._cs_entries and s_max from _top_singular, as geometric
    discord's do.
    """
    evals, (x1, y1, txx, *block) = _checked_rows(params)  # once, not per chunk
    half = 0.5 * (1.0 + np.abs(np.stack([x1, y1], axis=1)))
    w = np.concatenate([half, 1.0 - half, evals], axis=1)
    h = _eta(np.where(w > _ZERO_WEIGHT, w, 0.0)) / -math.log(2.0)
    s_a, s_b = h[:, 0] + h[:, 2], h[:, 1] + h[:, 3]
    mutual = s_a + s_b - h[:, 4:].sum(1)
    data = np.stack([x1, y1, txx, _top_singular(*block)[0]], axis=1)
    phi, best = _certified_phi(data), np.empty(len(data))
    c, u = np.flatnonzero(~np.isnan(phi)), np.flatnonzero(np.isnan(phi))
    best[c] = _cs_objective(data[c], phi[c, None])[:, 0]
    phis = np.linspace(0.0, 0.5 * math.pi, _CS_POINTS)
    j, spread = np.empty(len(u), int), np.empty(len(u))
    for lo in range(0, len(u), _CS_CHUNK):
        k = slice(lo, lo + _CS_CHUNK)
        values = _cs_objective(data[u[k]], phis)
        j[k], spread[k], best[u[k]] = values.argmin(1), np.ptp(values, 1), values.min(1)
    phi[u] = phis[j]
    h1, h2 = _slopes(data[u], np.array([[1.0], [-1.0], [0.0]]))
    with np.errstate(invalid="ignore"):  # inf - inf at N = D
        rise = h1[0] - h1[1]
    refine = (j > 0) & (j < _CS_POINTS - 1)
    refine |= (j == 0) & ~(rise <= 0.0)
    refine |= (j == _CS_POINTS - 1) & ~(h2[2] >= 0.0)
    r = u[refine & (spread > _FLAT)]
    phi[r], best[r] = _refine_rows(data[r], phi[r], best[r], phis[1])
    # The refinement may step past an end: f is even in cos phi and in phi.
    t, st = np.abs(np.cos(phi)), np.abs(np.sin(phi))
    axis = np.concatenate([t[:, None], st[:, None] * _top_vector(*block)], 1)
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


def _cs_terms(data):
    """Per row, x1, y1, s and the coefficients A, b, C of N(tau)^2 (see _slopes).

    A = T_xx^2 - s^2 is taken as a product, exactly 0 where |T_xx| = s.
    """
    x1, y1, txx, s = data.T
    a = (np.abs(txx) - s) * (np.abs(txx) + s)
    return x1, y1, s, a, x1 * txx, x1 * x1 + s * s


def _slopes(data, tau):
    """H'(tau) and H''(tau) in nats, H as in _certified_phi.

    One row of data per state (R, 4); tau broadcasts against (R,).  With D,
    N, r and H'' as in _certified_phi,
    H' = y1 ln(2 D / sqrt(D^2 - N^2)) - artanh(r) (A tau + b) / N.  NaN or
    infinite where N = 0 or N >= D (rounding can leave N^2 just below 0 or
    N just above D).
    """
    x1, y1, s, a, b, c = _cs_terms(data)
    d, n2 = 1.0 + y1 * tau, (a * tau + 2.0 * b) * tau + c
    gap, lin = d * d - n2, (a - y1 * b) * tau + b - y1 * c
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.sqrt(n2)
        at = np.arctanh(n / d)
        h1 = y1 * np.log(2.0 * d / np.sqrt(gap)) - at * (a * tau + b) / n
        h2 = -lin * lin / (n2 * d * gap) - at * (a * c - b * b) / (n2 * n)
    return h1, h2


def _certified_phi(data):
    """Per row, the phi of a certified global minimum, 0 (t = 1) or pi/2, else NaN.

    The certificate follows Chen et al., PRA 84, 042313 (2011) and
    Yurischev, QIP 14, 3399 (2015).
    f(t) = H(t) + H(-t) with H(tau) = G(D, N) = D phi_2(N / D), where
    phi_2(r) is the binary entropy in nats (phi_2' = -artanh,
    phi_2'' = -1 / (1 - r^2)), so f'(t) is the integral of H'' over
    [-t, t].  With D = 1 + y1 tau, N^2 = A tau^2 + 2 b tau + C, r = N / D,
    L = (A - y1 b) tau + b - y1 C and Delta = T_xx^2 - x1^2 - s^2, so that
    A C - b^2 = s^2 Delta (_slopes evaluates H' and H''),
    H'' = -L^2 / (N^2 D (D^2 - N^2)) - artanh(r) s^2 Delta / N^3.
    The L^2 term is never positive: if s = 0 or Delta >= 0, H'' <= 0 on
    [-1, 1] and t = 1 is the minimum.  If Delta < 0, artanh r >= kappa r
    for r >= r_lo, with kappa = artanh(r_lo) / r_lo and r_lo = min N / max D
    over [-1, 1], gives N^2 D (D^2 - N^2) H'' >= P = kappa s^2 |Delta|
    (D^2 - N^2) - L^2, a quadratic in tau: if P > 0 at tau = +-1 and at its
    vertex, H'' >= 0 and t = 0 is the minimum.  Delta = A - x1^2 must clear
    its rounding bound, kappa and |Delta| are cut by theirs, and P must
    clear _P_MARGIN of its terms' size: an uncertain sign certifies nothing.
    """
    x1, y1, s, a, b, c = _cs_terms(data)
    delta = a - x1 * x1
    err = 4.0 * _EPS * (np.abs(a) + x1 * x1)
    # min N^2 over [-1, 1]: at tau = +-1, or at the vertex -b / A when inside.
    inside = (a > 0.0) & (np.abs(b) < a)
    vertex = c - b * b / np.where(inside, a, 1.0)
    n2 = np.minimum(a + c - 2.0 * np.abs(b), np.where(inside, vertex, np.inf))
    r = np.sqrt(np.maximum(n2, 0.0)) / (1.0 + np.abs(y1)) * (1.0 - 4.0 * _EPS)
    r = np.clip(r, 1e-300, _R_CAP)  # kappa(1e-300) = 1 holds for any r
    k = np.arctanh(r) / r * (1.0 - 4.0 * _EPS) * s * s * np.maximum(-delta - err, 0.0)
    # P(tau) = p2 tau^2 + p1 tau + p0, with L = l1 tau + l0.
    l1, l0 = a - y1 * b, b - y1 * c
    p2 = k * (y1 * y1 - a) - l1 * l1
    p1 = 2.0 * (k * (y1 - b) - l1 * l0)
    p0 = k * (1.0 - c) - l0 * l0
    inside = (p2 > 0.0) & (np.abs(p1) < 2.0 * p2)
    vertex = p0 - p1 * p1 / (4.0 * np.where(inside, p2, 1.0))
    low = np.minimum(p2 + p0 - np.abs(p1), np.where(inside, vertex, np.inf))
    convex = low > _P_MARGIN * (k + (np.abs(l1) + np.abs(l0)) ** 2)
    half = np.where(convex, 0.5 * math.pi, np.nan)
    return np.where((s == 0.0) | (delta >= err), 0.0, half)


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
