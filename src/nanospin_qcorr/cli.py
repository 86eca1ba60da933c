"""Command line interface: parameter sweeps and engine cross-checks.

Two subcommands:

* ``sweep`` evaluates correlation quantities over a grid of pore size,
  inverse temperature and interaction time, writing CSV or JSON,
* ``verify`` runs the closed forms against the dense reference engine
  and reports the worst discrepancy per quantity, failing on violation.

Output is deterministic: identical configuration produces byte-identical
files.  CSV floats carry 17 significant digits so values round-trip
exactly.

The CSV writer uses the grid's shape: rows come in blocks of one (N, beta)
pair over every tau.  It writes ``CSV_CHUNK_ROWS`` rows at a time, and for
each chunk it formats the "N,beta,T_K," prefix of each block it meets and
each tau once, joins one ``%.17g`` template per row from them, and fills in
all of the chunk's value cells with one ``%`` call.  ``'%.17g' % x`` and
``format(x, '.17g')`` give the same text, so the bytes are those of a
cell-by-cell writer, and the writer holds at most one chunk at a time.
JSON output records the grid (N, beta, tau and omega0) it was built from,
and is written on one line by a single ``json.dumps`` call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .nanopore import (
    OMEGA0_DEFAULT,
    beta_from_temperature,
    check_axes,
    correlation_grid,
    tau_special,
    temperature_from_beta,
)
from .verification import (
    CORR_FIELDS,
    DEFAULT_BETAS,
    DEFAULT_N_TAU,
    DEFAULT_N_VALUES,
    analytic_rows,
    format_report,
    oracle_rows,
    pair_states,
    run_verification,
)

__all__ = ["main", "run_sweep"]

_HEADER = f"# nanospin-qcorr v{__version__}"

# Most points one lo:hi:step range may expand to.  _parse_range checks the
# count, which may be inf for a tiny step, before it builds the list.
MAX_RANGE_POINTS = 1_000_000
# Most rows (N x beta x tau points) one sweep may evaluate, and most states
# one verify may check; _cmd_sweep and _cmd_verify check the product before
# they build any grid.
MAX_SWEEP_ROWS = 1_000_000

# Rows formatted per write: the CSV writer holds the text, templates and
# prefixes of at most this many rows, whatever the grid's shape.
CSV_CHUNK_ROWS = 4096

_SCALARS = ("concurrence", "discord", "geometric_discord")


def _base_columns(quantity: str):
    if quantity == "correlations":
        return list(CORR_FIELDS)
    if quantity == "all":
        return list(_SCALARS) + list(CORR_FIELDS)
    return [quantity]


def _parse_range(text: str, flag: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag} takes numbers lo:hi:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"{flag} needs finite lo:hi:step, got {text!r}")
    if step <= 0.0:
        raise ValueError(f"{flag} step must be > 0, got {step}")
    if hi < lo:
        raise ValueError(f"{flag} needs hi >= lo, got {text!r}")
    span = (hi - lo) / step
    if not span < MAX_RANGE_POINTS:
        raise ValueError(
            f"{flag} spans more than {MAX_RANGE_POINTS} points, got {text!r}"
        )
    count = int(math.floor(span + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def _parse_n(tokens):
    values = []
    for tok in tokens:
        t = tok.strip().lower()
        try:
            values.append(math.inf if t == "inf" else int(t))
        except ValueError:
            raise ValueError(f"--N takes integers or 'inf', got {tok!r}") from None
    try:
        return check_axes(values, [], [])
    except ValueError as exc:
        raise ValueError(f"--N: {exc}") from None


def run_sweep(
    quantity: str,
    n_values,
    betas,
    taus,
    engine: str = "analytic",
    omega0: float = OMEGA0_DEFAULT,
):
    """Evaluate the requested quantity over the grid.

    Returns (columns, table): ``table`` holds one sequence per column, each
    with one value per row, and rows iterate n (outer), beta, tau (inner).
    The N column is a list of int (or inf); the others are float arrays.
    """
    base = _base_columns(quantity)
    n_values = check_axes(n_values, betas, taus, omega0)
    if engine != "analytic":
        states = pair_states(n_values, betas, taus)
        parts = [oracle_rows(rhos, base) for _, rhos in states]
        oracle = {c: np.concatenate([[]] + [p[c] for p in parts]) for c in base}
    if engine != "oracle":
        analytic = analytic_rows(correlation_grid(n_values, betas, taus), base)

    temps = [temperature_from_beta(b, omega0) for b in betas]
    per_n = len(betas) * len(taus)
    columns = ["N", "beta", "T_K", "tau"]
    table = [
        [n for n in n_values for _ in range(per_n)],
        np.tile(np.repeat(betas, len(taus)), len(n_values)),
        np.tile(np.repeat(temps, len(taus)), len(n_values)),
        np.tile(taus, len(n_values) * len(betas)),
    ]
    for col in base:
        if engine == "both":
            columns += [col, f"{col}_oracle", f"{col}_diff"]
            table += [analytic[col], oracle[col], analytic[col] - oracle[col]]
        else:
            columns.append(col)
            table.append(analytic[col] if engine == "analytic" else oracle[col])
    return columns, table


def _write_csv(columns, table, n_tau, stream) -> None:
    # table is run_sweep's: blocks of n_tau rows, one per (N, beta).  See
    # the module docstring.
    stream.write(_HEADER + "\n")
    stream.write(",".join(columns) + "\n")
    n_col, beta_col, temp_col, tau_col, *values = table
    cells = ",".join(["%.17g"] * len(values)) + "\n"
    for lo in range(0, len(n_col), CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, len(n_col))
        # The chunk meets min(hi - lo, n_tau) distinct taus, in axis order
        # from row lo's (wrapping); listed twice, no block's run wraps.
        taus = tau_col[lo : lo + min(hi - lo, n_tau)].tolist()
        tails = [format(t, ".17g") + "," + cells for t in taus] * 2
        rows = []
        for start in range(lo - lo % n_tau, hi, n_tau):
            s, e = max(start, lo), min(start + n_tau, hi)
            beta, temp = float(beta_col[start]), float(temp_col[start])
            prefix = f"{n_col[start]},{beta:.17g},{temp:.17g},"
            k = (s - lo) % len(taus)
            rows += [prefix + tail for tail in tails[k : k + e - s]]
        chunk = np.column_stack([col[lo:hi] for col in values])
        stream.write("".join(rows) % tuple(chunk.ravel().tolist()))


def _json_safe(values) -> list:
    # JSON has no inf or nan; they are written as "inf", "-inf" and "nan".
    if isinstance(values, np.ndarray):
        if np.isfinite(values).all():
            return values.tolist()
        values = values.tolist()
    return [v if isinstance(v, int) or math.isfinite(v) else str(v) for v in values]


def _write_json(columns, table, engine, axes, omega0, stream) -> None:
    # axes maps "N", "beta" and "tau" to the values the rows were built from.
    # One json.dumps call takes the C encoder (an indent would not).
    grid = {name: _json_safe(values) for name, values in axes.items()}
    doc = {
        "tool": "nanospin-qcorr",
        "version": __version__,
        "engine": engine,
        "grid": {**grid, "omega0": omega0},
        "columns": columns,
        "rows": list(zip(*map(_json_safe, table))),
    }
    stream.write(json.dumps(doc) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanospin-qcorr",
        description="Quantum correlations of a spin pair in a nanopore spin gas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate quantities over a parameter grid")
    sweep.add_argument(
        "--quantity",
        choices=("concurrence", "discord", "geometric_discord", "correlations", "all"),
        default="all",
    )
    sweep.add_argument(
        "--N",
        nargs="+",
        required=True,
        metavar="N",
        help="pore occupancies (integers >= 2, or 'inf')",
    )
    temp_group = sweep.add_mutually_exclusive_group(required=True)
    temp_group.add_argument(
        "--beta-range", metavar="LO:HI:STEP", help="inverse-temperature grid"
    )
    temp_group.add_argument(
        "--temp-range", metavar="LO:HI:STEP", help="temperature grid in kelvin"
    )
    sweep.add_argument(
        "--omega0",
        type=float,
        default=OMEGA0_DEFAULT,
        help="resonance frequency in rad/s for temperature conversion",
    )
    tau_group = sweep.add_mutually_exclusive_group(required=True)
    tau_group.add_argument(
        "--tau-range", metavar="LO:HI:STEP", help="dimensionless-time grid"
    )
    tau_group.add_argument(
        "--tau",
        metavar="VALUE",
        help="single time: a float, or special:<l> for the l-th flickering time",
    )
    tau_group.add_argument(
        "--time-range",
        metavar="LO:HI:STEP",
        help="physical-time grid in seconds; requires --coupling",
    )
    sweep.add_argument(
        "--coupling",
        type=float,
        metavar="D",
        help="dipolar coupling constant in rad/s, converts t to tau = (3 D / 2) t",
    )
    sweep.add_argument(
        "--engine", choices=("analytic", "oracle", "both"), default="analytic"
    )
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    verify = sub.add_parser(
        "verify", help="cross-check closed forms against the pair oracle"
    )
    lo, hi = DEFAULT_N_VALUES[0], DEFAULT_N_VALUES[-1]
    verify.add_argument(
        "--N", nargs="+", metavar="N", help=f"pore occupancies (default {lo}..{hi})"
    )
    verify.add_argument(
        "--beta", nargs="+", type=float, default=DEFAULT_BETAS, metavar="BETA"
    )
    verify.add_argument("--tau-points", type=int, default=DEFAULT_N_TAU)
    verify.add_argument(
        "--skip-discord",
        action="store_true",
        help="skip the (slowest) discord comparison",
    )
    verify.add_argument(
        "--inject-corruption",
        type=float,
        default=0.0,
        metavar="EPS",
        help="test hook: offset the analytic correlator q by EPS",
    )
    return parser


def _cmd_sweep(args) -> int:
    n_values = _parse_n(args.N)
    if args.beta_range:
        betas = _parse_range(args.beta_range, "--beta-range")
    else:
        temps = _parse_range(args.temp_range, "--temp-range")
        betas = [beta_from_temperature(t, args.omega0) for t in temps]
    if args.tau_range:
        taus = _parse_range(args.tau_range, "--tau-range")
    elif args.time_range:
        if args.coupling is None:
            raise ValueError("--time-range requires --coupling")
        times = _parse_range(args.time_range, "--time-range")
        taus = [1.5 * args.coupling * t for t in times]
    else:
        tok = args.tau.strip().lower()
        special = tok.startswith("special:")
        try:
            value = int(tok[len("special:") :]) if special else float(tok)
        except ValueError:
            msg = f"--tau takes a float or special:<l>, l an integer, got {args.tau!r}"
            raise ValueError(msg) from None
        if special and value < 0:
            raise ValueError(f"--tau special:<l> takes l >= 0, got {args.tau!r}")
        try:
            taus = [tau_special(value) if special else value]
        except ValueError as exc:
            raise ValueError(f"--tau {args.tau!r}: {exc}") from None
    n_rows = len(n_values) * len(betas) * len(taus)
    if n_rows > MAX_SWEEP_ROWS:
        raise ValueError(
            f"the sweep grid has {n_rows} rows, more than {MAX_SWEEP_ROWS}"
        )
    columns, table = run_sweep(
        args.quantity,
        n_values,
        betas,
        taus,
        engine=args.engine,
        omega0=args.omega0,
    )
    if args.out:
        stream = open(args.out, "w", newline="")
    else:
        stream = contextlib.nullcontext(sys.stdout)
    with stream as fh:
        if args.format == "csv":
            _write_csv(columns, table, len(taus), fh)
        else:
            axes = {"N": n_values, "beta": betas, "tau": taus}
            _write_json(columns, table, args.engine, axes, args.omega0, fh)
    return 0


def _cmd_verify(args) -> int:
    if not math.isfinite(eps := args.inject_corruption):
        raise ValueError(f"--inject-corruption must be finite, got {eps}")
    n_values = _parse_n(args.N) if args.N else DEFAULT_N_VALUES
    n_states = len(n_values) * len(args.beta) * args.tau_points
    if n_states > MAX_SWEEP_ROWS:
        raise ValueError(
            f"the verify grid has {n_states} states, more than {MAX_SWEEP_ROWS}"
        )
    report = run_verification(
        n_values=n_values,
        betas=tuple(args.beta),
        n_tau=args.tau_points,
        include_discord=not args.skip_discord,
        corruption=args.inject_corruption,
    )
    print(format_report(report))
    if not report.ok:
        print(
            "verification FAILED for: " + ", ".join(report.failures), file=sys.stderr
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout at
        # devnull so that the interpreter's final flush stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
