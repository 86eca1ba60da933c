"""Closed forms and the dense engine, evaluated row by row.

``analytic_row`` and ``oracle_row`` are the one evaluation path behind both
CLI subcommands: ``sweep`` writes their values, and ``verify`` runs them side
by side over a grid of (n, beta, tau), adds checks of its own and tracks the
worst absolute discrepancy per quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discord import discord_cs, discord_numeric
from .entanglement import concurrence_cs, concurrence_numeric
from .exact_oracle import (
    N_MAX_DEFAULT,
    evolve,
    pair_correlations,
    partial_trace_pair,
    thermal_initial,
)
from .geometric_discord import geometric_discord_cs, geometric_discord_generic
from .nanopore import (
    CorrelationSet,
    NanoporeParams,
    concurrence_from_correlations,
    correlations,
    cs_from_correlations,
)
from .states import expansion_coefficients

__all__ = [
    "DEFAULT_TOLERANCES",
    "VerificationReport",
    "analytic_row",
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

# Operator-expansion indices that must vanish for this model: mixed
# identity-z, xy/yx and zx/xz products (index 0 = identity, 1..3 = x, y, z).
_ZERO_ALPHA_INDICES = ((0, 3), (3, 0), (1, 2), (2, 1), (3, 1), (1, 3))


def analytic_row(corr: CorrelationSet, needed) -> dict:
    """Closed-form values for the pair state of one set of correlators.

    Returns the correlators p, q, r, u, v of ``corr`` and each of
    concurrence, geometric_discord and discord that ``needed`` names.
    Everything is derived from ``corr``, so an offset applied to it
    reaches every quantity.  Discord takes the exact CS reduction for
    every pore occupancy, the large-pore limit included.
    """
    out = corr.as_dict()
    if "concurrence" in needed:
        out["concurrence"] = concurrence_from_correlations(corr)
    if "geometric_discord" in needed or "discord" in needed:
        m = cs_from_correlations(corr)
        if "geometric_discord" in needed:
            out["geometric_discord"] = geometric_discord_cs(m)
        if "discord" in needed:
            out["discord"] = discord_cs(m).discord
    return out


def oracle_row(rho, needed) -> dict:
    """Dense-engine values for one 4x4 pair state, keyed as in analytic_row.

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
    """Worst-case |analytic - reference| per quantity over a grid."""

    max_discrepancies: dict
    tolerances: dict
    states_checked: int

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

    Tau values cover one full period, ``n_tau`` points in [0, 2 pi).
    """
    if n_tau < 1 or not n_values or not betas:
        raise ValueError(
            "verification needs at least one N, one beta and one tau point"
        )
    taus = np.linspace(0.0, 2.0 * math.pi, n_tau, endpoint=False)
    worst = {name: 0.0 for name in DEFAULT_TOLERANCES}
    if not include_discord:
        worst.pop("discord")
    needed = tuple(worst)
    states = 0
    for n in n_values:
        for beta in betas:
            rho0 = thermal_initial(n, beta, n_max=n_max)
            for tau in taus:
                rho_ref = partial_trace_pair(evolve(rho0, float(tau)))
                ref = oracle_row(rho_ref, needed)

                corr = correlations(NanoporeParams(n=n, beta=beta, tau=float(tau)))
                if corruption:
                    corr = replace(corr, q=corr.q + corruption)
                model = analytic_row(corr, needed)
                m = cs_from_correlations(corr)

                diff_corr = max(abs(model[f] - ref[f]) for f in corr.as_dict())
                worst["correlations"] = max(worst["correlations"], diff_corr)

                diff_rho = float(np.max(np.abs(m.to_matrix() - rho_ref)))
                worst["reduced_matrix"] = max(worst["reduced_matrix"], diff_rho)

                c_closed = concurrence_cs(m).concurrence
                diff_c = max(
                    abs(model["concurrence"] - c_closed),
                    abs(c_closed - ref["concurrence"]),
                )
                worst["concurrence"] = max(worst["concurrence"], diff_c)

                for name in ("geometric_discord", "discord"):
                    if name in worst:
                        worst[name] = max(worst[name], abs(model[name] - ref[name]))

                alpha = expansion_coefficients(rho_ref)
                zero_terms = [abs(alpha[i, j]) for i, j in _ZERO_ALPHA_INDICES]
                zero_terms.append(abs(ref["v"]))
                worst["structural_zeros"] = max(
                    worst["structural_zeros"], max(zero_terms)
                )
                states += 1
    tols = {name: DEFAULT_TOLERANCES[name] for name in worst}
    return VerificationReport(
        max_discrepancies=worst, tolerances=tols, states_checked=states
    )


def format_report(report: VerificationReport) -> str:
    """Human-readable per-quantity summary, one line each."""
    lines = [f"checked {report.states_checked} states"]
    for name, val in report.max_discrepancies.items():
        tol = report.tolerances[name]
        verdict = "ok" if val <= tol else "FAIL"
        lines.append(f"{name}: max |diff| = {val:.3e} (tolerance {tol:.0e}) {verdict}")
    return "\n".join(lines)
