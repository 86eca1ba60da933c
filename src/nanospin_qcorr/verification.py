"""Closed forms for a whole grid at once, the dense engine state by state.

``analytic_rows`` (fed by ``correlation_grid``) and ``pair_states`` with
``oracle_row`` are the one evaluation path behind both CLI subcommands:
``sweep`` writes their values, and ``verify`` runs them side by side over a
grid of (n, beta, tau), adds checks of its own and tracks the worst absolute
discrepancy per quantity and where it occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cs_matrix import cs_from_vector
from .discord import discord_cs_rows, discord_numeric
from .entanglement import concurrence_cs, concurrence_numeric
from .exact_oracle import (
    N_MAX_DEFAULT,
    evolve,
    pair_correlations,
    partial_trace_pair,
    thermal_initial,
)
from .geometric_discord import geometric_discord_generic, geometric_discord_rows
from .nanopore import check_axes, concurrence_rows, correlation_grid, cs_rows
from .states import expansion_coefficients

__all__ = [
    "CORR_FIELDS",
    "DEFAULT_TOLERANCES",
    "VerificationReport",
    "analytic_rows",
    "pair_states",
    "oracle_row",
    "run_verification",
    "format_report",
]

DEFAULT_TOLERANCES = {
    "correlations": 1e-10,
    "reduced_matrix": 1e-10,
    "concurrence": 1e-10,
    "geometric_discord": 1e-10,
    "discord": 1e-6,
    "structural_zeros": 1e-12,
}

CORR_FIELDS = ("p", "q", "r", "u", "v")

# Operator-expansion indices that must vanish for this model: mixed
# identity-z, xy/yx and zx/xz products (index 0 = identity, 1..3 = x, y, z).
_ZERO_ALPHA_INDICES = ((0, 3), (3, 0), (1, 2), (2, 1), (3, 1), (1, 3))


def analytic_rows(corr, needed) -> dict:
    """Closed-form columns for the rows of correlator arrays ``corr``.

    Returns an array per column that ``needed`` names among p, q, r, u, v,
    concurrence, geometric_discord and discord, and a list of CSDensityMatrix
    for state.  All derive from ``corr``, so an offset on it reaches every
    quantity.  Discord takes the exact CS reduction for every pore occupancy.
    """
    out = {f: getattr(corr, f) for f in CORR_FIELDS if f in needed}
    if "concurrence" in needed:
        out["concurrence"] = concurrence_rows(corr)
    if not {"geometric_discord", "discord", "state"}.isdisjoint(needed):
        params = cs_rows(corr)
        if "geometric_discord" in needed:
            out["geometric_discord"] = geometric_discord_rows(params)
        if "discord" in needed:
            mutual, classical, _ = discord_cs_rows(params)
            out["discord"] = mutual - classical
        if "state" in needed:
            out["state"] = [cs_from_vector(row) for row in params]
    return out


def pair_states(n_values, betas, taus, n_max: int = N_MAX_DEFAULT):
    """Yield ((n, beta, tau), dense pair state) per grid point, n outer, tau inner."""
    for n in n_values:
        for beta in betas:
            rho0 = thermal_initial(n, beta, n_max=n_max)
            for tau in taus:
                yield (n, beta, tau), partial_trace_pair(evolve(rho0, tau))


def oracle_row(rho, needed) -> dict:
    """Dense-engine values for one 4x4 pair state, keyed as analytic_rows' columns.

    ``rho`` is the pair state traced out of an n-spin state by
    ``partial_trace_pair``.
    """
    out = pair_correlations(rho).as_dict()
    if "concurrence" in needed:
        out["concurrence"] = concurrence_numeric(rho).concurrence
    if "geometric_discord" in needed:
        out["geometric_discord"] = geometric_discord_generic(rho)
    if "discord" in needed:
        out["discord"] = discord_numeric(rho, validate=False).discord
    return out


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


def run_verification(
    n_values=(3, 4, 5, 6, 7, 8, 9),
    betas=(0.5, 1.0, 3.0, 10.0),
    n_tau: int = 32,
    include_discord: bool = True,
    corruption: float = 0.0,
    n_max: int = N_MAX_DEFAULT,
) -> VerificationReport:
    """Compare closed forms against the dense engine on a parameter grid.

    ``corruption`` is a test hook: it is added to the analytic correlator
    q before any derived quantity is computed, so a nonzero value must
    make the comparison fail.

    Tau values cover one full period, ``n_tau`` points in [0, 2 pi).  The
    grid's axes are checked and the closed forms evaluated for the whole
    grid before the dense engine runs.
    """
    if n_tau < 1 or not n_values or not betas:
        raise ValueError(
            "verification needs at least one N, one beta and one tau point"
        )
    taus = [float(t) for t in np.linspace(0.0, 2.0 * math.pi, n_tau, endpoint=False)]
    n_values = check_axes(n_values, betas, taus)
    worst = {name: 0.0 for name in DEFAULT_TOLERANCES}
    if not include_discord:
        worst.pop("discord")
    worst_at = {}
    needed = tuple(worst) + CORR_FIELDS + ("state",)

    corr = correlation_grid(n_values, betas, taus)
    model = analytic_rows(replace(corr, q=corr.q + corruption), needed)

    states = pair_states(n_values, betas, taus, n_max=n_max)
    for k, (point, rho_ref) in enumerate(states):
        ref = oracle_row(rho_ref, needed)
        m = model["state"][k]
        diffs = {
            "correlations": max(abs(model[f][k] - ref[f]) for f in CORR_FIELDS),
            "reduced_matrix": float(np.max(np.abs(m.to_matrix() - rho_ref))),
        }
        c_closed = concurrence_cs(m).concurrence
        diffs["concurrence"] = max(
            abs(model["concurrence"][k] - c_closed),
            abs(c_closed - ref["concurrence"]),
        )
        for name in ("geometric_discord", "discord"):
            if name in worst:
                diffs[name] = abs(model[name][k] - ref[name])
        alpha = expansion_coefficients(rho_ref)
        zero_terms = [abs(alpha[i, j]) for i, j in _ZERO_ALPHA_INDICES]
        zero_terms.append(abs(ref["v"]))
        diffs["structural_zeros"] = max(zero_terms)

        for name, diff in diffs.items():
            if diff > worst[name]:
                worst[name] = diff
                worst_at[name] = point
    tols = {name: DEFAULT_TOLERANCES[name] for name in worst}
    return VerificationReport(worst, tols, len(model["state"]), worst_at)


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
