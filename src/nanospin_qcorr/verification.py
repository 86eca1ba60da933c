"""Closed forms and the brute-force pair oracle, both as columns over a grid.

``analytic_rows`` (fed by ``correlation_grid``) and ``oracle_rows`` (fed by
``pair_states``) are the one evaluation path behind both CLI subcommands:
``sweep`` writes their values, and ``verify`` runs them side by side, chunk
by chunk, over a grid of (n, beta, tau), adds checks of its own and tracks
the worst absolute discrepancy per quantity and where it occurred.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cs_matrix import cs_dense
from .discord import discord_cs_rows, discord_numeric_rows
from .entanglement import concurrence_cs_rows, concurrence_numeric_rows
from .exact_oracle import BYTE_BUDGET, _check_size, pair_correlations
from .exact_oracle import pair_gram, thermal_initial
from .geometric_discord import geometric_discord_generic, geometric_discord_rows
from .nanopore import _cs_params, check_axes, concurrence_rows, correlation_grid
from .states import check_density_matrix, expansion_coefficients

__all__ = [
    "CORR_FIELDS",
    "DEFAULT_TOLERANCES",
    "VerificationReport",
    "analytic_rows",
    "pair_states",
    "oracle_rows",
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

# The default verify grid: n from 3 to 9, four temperatures, 32 taus.
DEFAULT_N_VALUES = (3, 4, 5, 6, 7, 8, 9)
DEFAULT_BETAS = (0.5, 1.0, 3.0, 10.0)
DEFAULT_N_TAU = 32

# Grid points per chunk of pair_states and verify: about 1 MiB of arrays.
STATE_CHUNK = 256

# Operator-expansion indices that must vanish for this model: mixed
# identity-z, xy/yx and zx/xz products (index 0 = identity, 1..3 = x, y, z).
_ZERO_ALPHA_INDICES = ((0, 3), (3, 0), (1, 2), (2, 1), (3, 1), (1, 3))


def analytic_rows(corr, needed) -> dict:
    """Closed-form columns for the rows of correlator arrays ``corr``.

    Returns an array per column that ``needed`` names among p, q, r, u, v,
    concurrence, geometric_discord, discord and params, the (R, 7) CS
    parameter rows.  All derive from ``corr``, so an offset on it reaches
    every quantity.  Discord takes the exact CS reduction for every pore
    occupancy.  The parameter rows are not checked here: each measure runs
    check_cs_rows once on the rows it takes, and so do verify's checks.
    """
    out = {f: getattr(corr, f) for f in CORR_FIELDS if f in needed}
    if "concurrence" in needed:
        out["concurrence"] = concurrence_rows(corr)
    if not {"geometric_discord", "discord", "params"}.isdisjoint(needed):
        params = _cs_params(corr)
        if "geometric_discord" in needed:
            out["geometric_discord"] = geometric_discord_rows(params)
        if "discord" in needed:
            mutual, classical, _ = discord_cs_rows(params)
            out["discord"] = mutual - classical
        if "params" in needed:
            out["params"] = params
    return out


def pair_states(n_values, betas, taus):
    """(points, rhos) chunks of up to STATE_CHUNK grid points, n outer, tau inner.

    rhos stacks the points' 4x4 pair states, built as in pair_state by one
    broadcast rho0(beta) G / c per chunk.  Every n is checked against the
    oracle's byte budget before any work.  Every beta shares one pair_gram
    call's phase sums G over an n's taus while their 256 bytes apiece fit
    the budget; past that each beta takes them in parts that do.
    """
    for n in n_values:
        _check_size(n)
    rho0 = [thermal_initial(2, beta).matrix for beta in betas]
    held = BYTE_BUDGET // 256

    def points():
        for n in n_values:
            shared = len(taus) <= held and pair_gram(n, taus)
            for beta, r0 in zip(betas, rho0):
                for lo in range(0, len(taus), held):
                    g, c = shared or pair_gram(n, taus[lo : lo + held])
                    for k, gk in enumerate(g, lo):
                        yield (n, beta, taus[k]), r0, gk, c

    def chunks(stream):
        while part := list(itertools.islice(stream, STATE_CHUNK)):
            pts, r0, g, c = zip(*part)
            yield list(pts), np.array(r0) * np.array(g) / np.array(c)[:, None, None]

    return chunks(points())


def oracle_rows(rhos, needed) -> dict:
    """Oracle columns for (R, 4, 4) pair states, keyed as analytic_rows'.

    The five correlators always; concurrence, geometric_discord and discord
    when ``needed`` names them.  The stack is validated once, up front.
    """
    rhos = check_density_matrix(rhos)
    corr = pair_correlations(rhos)
    out = {f: getattr(corr, f) for f in CORR_FIELDS}
    if "concurrence" in needed:
        out["concurrence"] = concurrence_numeric_rows(rhos)
    if "geometric_discord" in needed:
        out["geometric_discord"] = geometric_discord_generic(rhos, validate=False)
    if "discord" in needed:
        mutual, classical, _ = discord_numeric_rows(rhos, validate=False)
        out["discord"] = mutual - classical
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


def _diffs(model, ref, rhos, names) -> dict:
    """|analytic - reference| per quantity, an array over a chunk's rows."""
    closed = concurrence_cs_rows(model["params"])
    alpha = expansion_coefficients(rhos)
    zeros = [alpha[:, i, j] for i, j in _ZERO_ALPHA_INDICES] + [ref["v"]]
    diffs = {
        "correlations": np.abs([model[f] - ref[f] for f in CORR_FIELDS]).max(0),
        "reduced_matrix": np.abs(rhos - cs_dense(model["params"])).max((1, 2)),
        "concurrence": np.maximum(
            abs(model["concurrence"] - closed), abs(closed - ref["concurrence"])
        ),
        "structural_zeros": np.abs(zeros).max(0),
    }
    for name in ("geometric_discord", "discord"):
        if name in names:
            diffs[name] = abs(model[name] - ref[name])
    return diffs


def run_verification(
    n_values=DEFAULT_N_VALUES,
    betas=DEFAULT_BETAS,
    n_tau: int = DEFAULT_N_TAU,
    include_discord: bool = True,
    corruption: float = 0.0,
) -> VerificationReport:
    """Compare closed forms against the pair oracle on a parameter grid.

    ``corruption`` is a test hook: it is added to the analytic correlator
    q before any derived quantity is computed, so a nonzero value must
    make the comparison fail; it must be finite.

    Tau values cover one full period, ``n_tau`` points in [0, 2 pi).  The
    grid's axes and every n's size budget are checked before anything is
    evaluated; both sides then run on STATE_CHUNK grid points at a time.
    """
    if n_tau < 1 or not n_values or not betas:
        raise ValueError(
            "verification needs at least one N, one beta and one tau point"
        )
    if not math.isfinite(corruption):
        raise ValueError(f"corruption must be finite, got {corruption}")
    taus = [float(t) for t in np.linspace(0.0, 2.0 * math.pi, n_tau, endpoint=False)]
    n_values = check_axes(n_values, betas, taus)
    worst = {name: 0.0 for name in DEFAULT_TOLERANCES}
    if not include_discord:
        worst.pop("discord")
    worst_at = {}
    needed = tuple(worst) + CORR_FIELDS + ("params",)

    states = pair_states(n_values, betas, taus)
    corr = correlation_grid(n_values, betas, taus)
    corr = replace(corr, q=corr.q + corruption)
    for lo, (points, rhos) in zip(range(0, len(corr.q), STATE_CHUNK), states):
        part = slice(lo, lo + STATE_CHUNK)
        model = analytic_rows(
            replace(corr, **{f: getattr(corr, f)[part] for f in CORR_FIELDS}), needed
        )
        for name, diff in _diffs(model, oracle_rows(rhos, needed), rhos, worst).items():
            k = int(np.argmax(diff))
            if diff[k] > worst[name]:
                worst[name], worst_at[name] = float(diff[k]), points[k]
    tols = {name: DEFAULT_TOLERANCES[name] for name in worst}
    return VerificationReport(worst, tols, len(corr.q), worst_at)


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
