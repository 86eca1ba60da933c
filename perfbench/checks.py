"""Output checks for the benchmark's workloads.

A sweep is checked row by row: every expected (N, beta, tau) row must be
present in order, every value finite and inside its physical range.  Every
row with finite N <= 10 is then recomputed with the dense engine (thermal
state, evolution, partial trace), which shares no formula with the closed
forms the sweep uses; rows with larger finite N are beyond its size limit.
N = inf discord rows are checked against the Bell-diagonal closed form at
q = tanh(beta/2)^2 / 8.

Known gaps in the discord references:

- the dense reference still runs the same measurement optimizer
  (``discord_numeric``) as the sweep, so an optimizer that misses the
  global optimum would miss it on both sides;
- the N = inf reference calls ``discord_bell_diagonal`` at the same
  q = tanh(beta/2)^2 / 8 as the command line does, so it catches a row
  routed to another code path but not a wrong closed form.  An independent
  reference, such as a dense optimisation of the Bell-diagonal state,
  would close it.

A verify run is checked through its exit code and report: it must check
every state and pass every quantity.

Both checks return (failed_ops, messages); a row or state counts once.
"""

from __future__ import annotations

import functools
import math

DENSE_N_MAX = 10
TOLERANCES = {
    "p": 1e-10,
    "q": 1e-10,
    "r": 1e-10,
    "u": 1e-10,
    "v": 1e-10,
    "concurrence": 1e-10,
    "geometric_discord": 1e-10,
    "discord": 1e-6,
}
# Physical ranges: spin-1/2 correlators are bounded by 1/2 (one spin) and
# 1/4 (a pair); the correlation measures of two qubits lie in [0, 1].
_BOUNDS = {"p": 0.5, "q": 0.25, "r": 0.25, "u": 0.25, "v": 0.25}
_SLACK = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _in_range(col: str, value: float) -> bool:
    if not math.isfinite(value):
        return False
    if col in _BOUNDS:
        return abs(value) <= _BOUNDS[col] + _SLACK
    return -_SLACK <= value <= 1.0 + _SLACK


def parse_csv(text: str):
    """(columns, rows) of a sweep CSV; rows are lists of floats."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([float(cell) for cell in ln.split(",")])
        except ValueError:
            rows.append(None)
    return columns, rows


def concurrence_reference(rho) -> float:
    """Wootters concurrence with the lambdas taken as singular values."""
    import numpy as np

    evals, vecs = np.linalg.eigh(rho)
    psi = vecs * np.sqrt(np.clip(evals, 0.0, None))
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y x sigma_y
    lam = np.linalg.svd(psi.T @ yy @ psi, compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


@functools.lru_cache(maxsize=4)  # rows run tau fastest, so (n, beta) repeats
def _thermal(n: int, beta: float):
    from nanospin_qcorr.exact_oracle import thermal_initial

    return thermal_initial(n, beta)


def _dense_reference(n: int, beta: float, tau: float, quantity: str) -> dict:
    from nanospin_qcorr.discord import discord_numeric
    from nanospin_qcorr.exact_oracle import (
        evolve,
        measure_correlations,
        partial_trace_pair,
    )
    from nanospin_qcorr.geometric_discord import geometric_discord_generic

    state = evolve(_thermal(n, beta), tau)
    if quantity == "correlations":
        return measure_correlations(state).as_dict()
    rho = partial_trace_pair(state)
    if quantity == "concurrence":
        return {quantity: concurrence_reference(rho)}
    if quantity == "geometric_discord":
        return {quantity: geometric_discord_generic(rho)}
    return {quantity: discord_numeric(rho, validate=False).discord}


def _bell_diagonal_discord(beta: float) -> float:
    from nanospin_qcorr.discord import discord_bell_diagonal

    return discord_bell_diagonal(math.tanh(beta / 2.0) ** 2 / 8.0)


def check_sweep(text: str, workload, quantity: str):
    """Check one sweep output (CSV text) of `workload` for `quantity`."""
    columns, rows = parse_csv(text)
    value_cols = ["p", "q", "r", "u", "v"] if quantity == "correlations" else [quantity]
    if columns != ["N", "beta", "T_K", "tau", *value_cols]:
        return workload.ops // len(workload.commands), [
            f"{quantity}: unexpected columns {columns}"
        ]

    w = workload
    expected = [(n, b, t) for n in w.n_values for b in w.betas for t in w.taus]
    failed, messages = set(), []

    def fail(k, why):
        if k not in failed and len(messages) < 5:
            messages.append(f"{quantity} row {k}: {why}")
        failed.add(k)

    for k, (n, b, t) in enumerate(expected):
        row = rows[k] if k < len(rows) else None
        if row is None or len(row) != len(columns):
            fail(k, "missing or malformed")
            continue
        if not (row[0] == n and _close(row[1], b) and _close(row[3], t)):
            fail(k, f"grid point {row[:4]} != expected {(n, b, t)}")
            continue
        for col, value in zip(value_cols, row[4:]):
            if not _in_range(col, value):
                fail(k, f"{col} = {value} is non-finite or out of range")
    extra = max(0, len(rows) - len(expected))
    if extra:
        messages.append(f"{quantity}: {extra} unexpected extra rows")

    for k, (n, beta, tau) in enumerate(expected):
        if k in failed:
            continue
        if n <= DENSE_N_MAX:
            ref = _dense_reference(int(n), beta, tau, quantity)
        elif quantity == "discord" and math.isinf(n):
            ref = {"discord": _bell_diagonal_discord(beta)}
        else:
            continue
        for col, value in zip(value_cols, rows[k][4:]):
            want = float(ref[col])
            if abs(value - want) > TOLERANCES[col]:
                fail(k, f"{col} = {value!r} but the reference gives {want!r}")
    return len(failed) + extra, messages


def check_verify(returncode: int, report: str, workload):
    """Check one ``verify`` run: exit 0, all states checked, all quantities ok."""
    lines = report.splitlines()
    head = lines[0].split() if lines else []
    if len(head) == 3 and head[0] == "checked" and head[1].isdigit():
        checked = int(head[1])
    else:
        checked = 0
    bad = [ln for ln in lines[1:] if not ln.endswith(" ok")]
    if returncode != 0 or bad or not lines[1:]:
        return workload.ops, [f"verify exited {returncode}", *bad[:4]]
    if checked != workload.ops:
        return abs(workload.ops - checked), [
            f"verify checked {checked} states, expected {workload.ops}"
        ]
    return 0, []
