"""The benchmark's workloads: fixed CLI command lines, shifted by a seed.

Each workload is one or more ``nanospin-qcorr`` command lines that together
form one repetition.  The seed shifts the start of the beta and tau grids by
a fraction of one grid step, so the number of rows (and the mix of code
paths) never changes while the evaluated states do.  The program only ever
sees the generated command-line arguments.

This module uses the standard library only: the workload process imports it
before the package under test, whose import time belongs to ``setup_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OUT = "{out}"  # placeholder for a per-command output path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "verify"
    commands: tuple  # argv tuples; a sweep's contains OUT
    ops: int  # output rows (sweep) or states (verify) per repetition
    n_values: tuple = ()
    betas: tuple = ()
    taus: tuple = ()
    warmup: tuple = ()  # argv tuples run once during set-up


@dataclass(frozen=True)
class _Grid:
    lo: float
    step: float
    count: int

    def shifted(self, frac: float) -> "_Grid":
        return _Grid(self.lo + frac * self.step, self.step, self.count)

    def flag(self) -> str:
        # hi sits half a step past the last point, so the CLI's
        # floor((hi - lo) / step) + 1 is exactly `count`.
        hi = self.lo + (self.count - 0.5) * self.step
        return f"{self.lo!r}:{hi!r}:{self.step!r}"

    def values(self) -> tuple:
        # Same arithmetic as the CLI's range parser: lo + k * step.
        return tuple(self.lo + k * self.step for k in range(self.count))


# Grids per size.  "full" is what the benchmark measures; "tiny" keeps the
# same mix of code paths at a few rows and exists for the benchmark's tests.
_SWEEP_DISCORD = {
    "full": (("3", "6", "9", "25", "inf"), _Grid(1.0, 1.0, 10), _Grid(0.0, 0.4, 8)),
    "tiny": (("3", "inf"), _Grid(1.0, 1.0, 2), _Grid(0.0, 0.4, 2)),
}
_SWEEP_CLOSED = {
    "full": (
        ("2", "3", "6", "25", "100", "inf"),
        _Grid(0.5, 0.5, 20),
        _Grid(0.0, 0.05, 126),
    ),
    "tiny": (("2", "3", "inf"), _Grid(0.5, 0.5, 2), _Grid(0.0, 0.05, 3)),
}
_CLOSED_QUANTITIES = ("correlations", "concurrence", "geometric_discord")
_VERIFY_DENSE = {
    # (N values, betas, beta shift span, tau points)
    "full": (("8", "9", "10"), (0.5, 3.0), 2.5, 16),
    "tiny": (("3", "4"), (0.5, 3.0), 2.5, 2),
}

NAMES = ("sweep-discord", "sweep-closed", "verify-dense")
SIZES = ("full", "tiny")


def _n_value(tok: str) -> float:
    return float("inf") if tok == "inf" else int(tok)


def _sweep(name, quantities, n_tokens, betas: _Grid, taus: _Grid) -> Workload:
    def argv(q, ns, b, t):
        return (
            "sweep", "--quantity", q, "--N", *ns,
            "--beta-range", b.flag(), "--tau-range", t.flag(), "--out", OUT,
        )

    one_b, one_t = _Grid(betas.lo, betas.step, 1), _Grid(taus.lo, taus.step, 1)
    return Workload(
        name=name,
        kind="sweep",
        commands=tuple(argv(q, n_tokens, betas, taus) for q in quantities),
        ops=len(quantities) * len(n_tokens) * betas.count * taus.count,
        n_values=tuple(_n_value(t) for t in n_tokens),
        betas=betas.values(),
        taus=taus.values(),
        warmup=tuple(argv(q, n_tokens[:1], one_b, one_t) for q in quantities),
    )


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload `name` for `seed`; the same seed gives the same commands."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{name}:{seed}")
    f_beta, f_tau = rng.random(), rng.random()
    if name == "sweep-discord":
        ns, b, t = _SWEEP_DISCORD[size]
        return _sweep(name, ("discord",), ns, b.shifted(f_beta), t.shifted(f_tau))
    if name == "sweep-closed":
        ns, b, t = _SWEEP_CLOSED[size]
        return _sweep(
            name, _CLOSED_QUANTITIES, ns, b.shifted(f_beta), t.shifted(f_tau)
        )
    # verify has no tau-grid flag (tau is always a uniform period grid), so
    # the seed shifts only the betas.
    ns, betas, span, tau_points = _VERIFY_DENSE[size]
    betas = tuple(b + f_beta * span for b in betas)
    argv = (
        "verify", "--N", *ns, "--beta", *(repr(b) for b in betas),
        "--tau-points", str(tau_points),
    )
    return Workload(
        name=name,
        kind="verify",
        commands=(argv,),
        ops=len(ns) * len(betas) * tau_points,
        n_values=tuple(_n_value(t) for t in ns),
        betas=betas,
        warmup=(("verify", "--N", "3", "--beta", "1.0", "--tau-points", "1"),),
    )
