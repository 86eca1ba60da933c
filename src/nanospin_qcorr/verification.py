"""Closed forms and the brute-force pair oracle, both as columns over a grid.

``grid_walk`` is the one walk over a grid of (n, beta, tau) behind both CLI
subcommands: chunk by chunk (``grid_plan``), it gives the correlators of
``correlation_grid`` to ``analytic_rows`` and the pair states of
``exact_oracle.pair_states`` to ``oracle_rows``.  ``sweep`` writes their
values, and ``verify`` runs them side by side, adds checks of its own and
tracks the worst absolute discrepancy per quantity and where it occurred.
Both return raw values; ``sweep`` clamps the discord it writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cs_matrix import cs_dense, cs_spectrum
from .discord import discord_cs_rows, discord_numeric_rows
from .entanglement import concurrence_cs_rows, concurrence_numeric_rows
from .exact_oracle import pair_correlations, pair_states
from .geometric_discord import geometric_discord_generic, geometric_discord_rows
from .nanopore import check_axes, concurrence_rows, correlation_grid, cs_rows
from .states import EPS_PSD, InvalidStateError, _check_stack, expansion_coefficients

__all__ = [
    "CORR_FIELDS",
    "DEFAULT_TOLERANCES",
    "VerificationReport",
    "analytic_rows",
    "oracle_rows",
    "run_verification",
    "format_report",
]

DEFAULT_TOLERANCES = {
    "correlations": 1e-10,
    "reduced_matrix": 1e-10,
    "concurrence": 1e-10,
    "geometric_discord": 1e-10,
    "discord": 1e-10,
    "structural_zeros": 1e-12,
}

CORR_FIELDS = ("p", "q", "r", "u", "v")

# Bytes a chunk of grid_walk holds, at its caller's charge per row: 16,384
# sweep rows at 1 KiB, or 4,096 verify states at 4 KiB (measured peaks).
CHUNK_BYTES = 16 << 20

# The default verify grid: n from 3 to 9, four temperatures, 32 taus.
DEFAULT_N_VALUES = (3, 4, 5, 6, 7, 8, 9)
DEFAULT_BETAS = (0.5, 1.0, 3.0, 10.0)
DEFAULT_N_TAU = 32

# Operator-expansion indices that must vanish for this model: mixed
# identity-z, xy/yx and zx/xz products (index 0 = identity, 1..3 = x, y, z).
_ZERO_ALPHA_INDICES = ((0, 3), (3, 0), (1, 2), (2, 1), (3, 1), (1, 3))


def analytic_rows(corr, needed) -> dict:
    """Closed-form columns for the rows of correlator arrays ``corr``.

    Returns an array per column that ``needed`` names among p, q, r, u, v,
    concurrence, geometric_discord and discord, the columns that sweep
    writes.  All derive from ``corr``, so an offset on it reaches every
    quantity.  Discord takes the exact CS reduction for every pore
    occupancy, as mutual - classical.  Each CS measure checks its rows
    (check_cs_rows): InvalidStateError when one is not a state.
    """
    out = {f: getattr(corr, f) for f in CORR_FIELDS if f in needed}
    if "concurrence" in needed:
        out["concurrence"] = concurrence_rows(corr)
    if "geometric_discord" in needed or "discord" in needed:
        params = cs_rows(corr)
        if "geometric_discord" in needed:
            out["geometric_discord"] = geometric_discord_rows(params)
        if "discord" in needed:
            mutual, classical, _ = discord_cs_rows(params)
            out["discord"] = mutual - classical
    return out


def oracle_rows(rhos, needed) -> dict:
    """Oracle columns for (R, 4, 4) pair states, keyed as analytic_rows'.

    The five correlators always; concurrence, geometric_discord and discord
    when ``needed`` names them.  The stack is validated once, up front, by
    one eigh call whose eigenvalues also give the discord's S(rho) and
    whose eigenvectors give the concurrence's spin flip.
    """
    rhos, evals, vecs = _check_stack(rhos)
    corr = pair_correlations(rhos)
    out = {f: getattr(corr, f) for f in CORR_FIELDS}
    if "concurrence" in needed:
        out["concurrence"] = concurrence_numeric_rows(rhos, _eigh=(evals, vecs))
    if "geometric_discord" in needed:
        out["geometric_discord"] = geometric_discord_generic(rhos, validate=False)
    if "discord" in needed:
        mutual, classical, _ = discord_numeric_rows(rhos, False, _evals=evals)
        out["discord"] = mutual - classical
    return out


def grid_plan(n_blocks, n_tau, rows) -> list:
    """Chunks (b0, b1, t0, t1) of n_blocks (n, beta) blocks of n_tau rows, in
    order: taus t0..t1-1 of blocks b0..b1-1, as many whole blocks as ``rows``
    holds, or a slice of one block of ``rows`` rows (one at least)."""
    per, span = max(1, rows // max(n_tau, 1)), max(1, min(rows, n_tau))
    return [
        (b0, min(b0 + per, n_blocks), t0, min(t0 + span, n_tau))
        for b0 in range(0, n_blocks, per)
        for t0 in range(0, n_tau, span)
    ]


def grid_walk(n_values, betas, taus, row_bytes, oracle=False):
    """grid_plan's chunks, CHUNK_BYTES // row_bytes rows each, as (span, corr,
    rhos): span the chunk's (b0, b1, t0, t1), corr its rows of the correlators
    (correlation_grid, built once), rhos its pair states if ``oracle``, else
    None; exact_oracle.pair_states checks every n's byte budget at the call."""
    n_tau = len(taus)
    plan = grid_plan(len(n_values) * len(betas), n_tau, CHUNK_BYTES // row_bytes)
    states = pair_states(n_values, betas, taus, plan) if oracle else None
    corr = correlation_grid(n_values, betas, taus)

    def chunks():
        for b0, b1, t0, t1 in plan:
            k = slice(b0 * n_tau + t0, (b1 - 1) * n_tau + t1)  # (b0, t0)..(b1 - 1, t1)
            part = replace(corr, **{f: getattr(corr, f)[k] for f in CORR_FIELDS})
            yield (b0, b1, t0, t1), part, next(states) if oracle else None

    return chunks()


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case |analytic - reference| per quantity over a grid.

    ``worst_at`` maps a quantity to the (n, beta, tau) of the first state
    where its worst discrepancy occurred; a quantity that never differs has
    no entry.
    """

    max_discrepancies: dict
    tolerances: dict
    states_checked: int
    worst_at: dict = field(default_factory=dict)

    @property
    def failures(self) -> tuple:
        return tuple(
            name
            for name, val in self.max_discrepancies.items()
            if val > self.tolerances[name]
        )

    @property
    def ok(self) -> bool:
        return not self.failures


def _diffs(corr, rhos) -> dict:
    """|analytic - reference| per quantity, an array over a chunk's rows.

    ``corr`` holds the chunk's correlators and ``rhos`` its pair states; the
    states are also compared with the CS parameter rows, and both sides'
    concurrence with the rows' closed-form CS concurrence.
    """
    params = cs_rows(corr)
    model = analytic_rows(corr, DEFAULT_TOLERANCES)
    closed = concurrence_cs_rows(params)
    ref = oracle_rows(rhos, DEFAULT_TOLERANCES)
    alpha = expansion_coefficients(rhos)
    zeros = [alpha[:, i, j] for i, j in _ZERO_ALPHA_INDICES] + [ref["v"]]
    return {
        "correlations": np.abs([getattr(corr, f) - ref[f] for f in CORR_FIELDS]).max(0),
        "reduced_matrix": np.abs(rhos - cs_dense(params)).max((1, 2)),
        "concurrence": np.maximum(
            abs(model["concurrence"] - closed), abs(closed - ref["concurrence"])
        ),
        "geometric_discord": abs(model["geometric_discord"] - ref["geometric_discord"]),
        "discord": abs(model["discord"] - ref["discord"]),
        "structural_zeros": np.abs(zeros).max(0),
    }


def run_verification(
    n_values=DEFAULT_N_VALUES,
    betas=DEFAULT_BETAS,
    n_tau: int = DEFAULT_N_TAU,
    corruption: float = 0.0,
) -> VerificationReport:
    """Compare closed forms against the pair oracle on a parameter grid.

    ``corruption`` is a test hook: it is added to the analytic correlator
    q before any derived quantity is computed, so a nonzero value must
    make the comparison fail.  It must lie in [-1, 1]: a state has
    |q| <= 1/4, so a larger offset leaves no state to compare.  In a chunk
    whose offset rows are not all states, each row that is not a state
    differs by inf in every quantity, and the chunk's other rows by 0 (they
    are not compared).

    Tau values cover one full period, ``n_tau`` points in [0, 2 pi).  The
    grid's axes and every n's size budget are checked before anything is
    evaluated; both sides then run on each chunk of grid_walk in turn.
    """
    if n_tau < 1 or not n_values or not betas:
        raise ValueError(
            "verification needs at least one N, one beta and one tau point"
        )
    if not abs(corruption) <= 1.0:  # NaN too
        raise ValueError(f"corruption must lie in [-1, 1], got {corruption}")
    taus = [float(t) for t in np.linspace(0.0, 2.0 * math.pi, n_tau, endpoint=False)]
    n_values = check_axes(n_values, betas, taus)
    worst, worst_at = dict.fromkeys(DEFAULT_TOLERANCES, 0.0), {}
    walk = grid_walk(n_values, betas, taus, 4 << 10, oracle=True)  # 4 KiB a state
    for (b0, _, t0, _), chunk, rhos in walk:
        chunk = replace(chunk, q=chunk.q + corruption)
        try:
            diffs = _diffs(chunk, rhos)
        except InvalidStateError:
            bad = ~np.all(cs_spectrum(cs_rows(chunk)) >= -EPS_PSD, axis=1)
            if not (corruption and bad.any()):
                raise
            diffs = dict.fromkeys(worst, np.where(bad, np.inf, 0.0))
        for name, diff in diffs.items():
            k = int(np.argmax(diff))
            if diff[k] > worst[name]:
                block, t = divmod(b0 * n_tau + t0 + k, n_tau)  # n outer, tau inner
                n, b = divmod(block, len(betas))
                worst[name] = float(diff[k])
                worst_at[name] = n_values[n], betas[b], taus[t]
    n_states = len(n_values) * len(betas) * n_tau
    return VerificationReport(worst, dict(DEFAULT_TOLERANCES), n_states, worst_at)


def format_report(report: VerificationReport) -> str:
    """Human-readable per-quantity summary, one line each.

    The first line is ``checked N states``; each quantity line gives the
    worst discrepancy, where it occurred, the tolerance, and ends in ``ok``
    or ``FAIL``.
    """
    lines = [f"checked {report.states_checked} states"]
    for name, val in report.max_discrepancies.items():
        tol = report.tolerances[name]
        verdict = "ok" if val <= tol else "FAIL"
        where = ""
        if name in report.worst_at:
            n, beta, tau = report.worst_at[name]
            where = f" at N={n}, beta={beta:g}, tau={tau:.4f}"
        lines.append(
            f"{name}: max |diff| = {val:.3e}{where} (tolerance {tol:.0e}) {verdict}"
        )
    return "\n".join(lines)
