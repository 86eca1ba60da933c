"""Command line interface: parameter sweeps and engine cross-checks.

Two subcommands:

* ``sweep`` evaluates correlation quantities over a grid of pore size,
  inverse temperature and interaction time, writing CSV or JSON,
* ``verify`` runs the closed forms against the brute-force pair oracle
  and reports the worst discrepancy per quantity, failing on violation.

Output is deterministic: identical configuration produces byte-identical
files.  CSV floats carry 17 significant digits so values round-trip
exactly.

``run_sweep`` yields the value columns of each chunk of the grid walk
(``verification.grid_walk``).  The writers read each row's N, beta, T_K
and tau from the grid, whose rows come in blocks of one (N, beta) pair over
every tau, and write each chunk in pieces of at most CSV_CHUNK_BYTES of
value cells (``_pieces``, by ``verification.grid_plan``): as many whole
blocks as fit, or a slice of one block.  A CSV piece is one uint64 row
buffer: per row, words for "N,beta,T_K,tau," and the value cells, which one
call of ``_g17.format_g17`` (its docstring gives the method; the bytes are
Python's ``format(x, '.17g')``) writes in place through a strided view.
The same call formats the piece's betas and T_Ks, and its taus unless the
last piece had the same, in leading rows, or, when they outnumber its
value cells (blocks of one or two taus), a second call.  Each block's
"N,beta,T_K," and each tau's "tau," are broadcast into the prefix words of
the block's rows; the writer drops the zero bytes and makes one write.
JSON output records the grid (N, beta, tau and omega0) it was built from:
the one line of ``json.dumps`` of the whole document, written as the head,
each piece's rows and the tail.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later one.  Building it (its help formatters, each of
which reads the terminal size, and its message catalogue look-ups) costs
about as much as a small sweep, and a caller that runs ``main`` many times
in one process, as a script or a test suite does, would pay that on every
call.  Each call still parses into a fresh namespace, and ``--help`` reads
the terminal width when it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
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
    grid_plan,
    grid_walk,
    oracle_rows,
    run_verification,
)

__all__ = ["main", "run_sweep"]

_HEADER = f"# nanospin-qcorr v{__version__}"

# Bytes of value cells a write holds: 4,096 cells of _g17.CELL_BYTES.
CSV_CHUNK_BYTES = 224 << 10

# Most rows (N x beta x tau points) one sweep may evaluate, and most states
# one verify may check; _cmd_sweep and _cmd_verify check the product before
# they build any grid.  A lo:hi:step range may not expand to more points
# either: _parse_range checks its count, which may be inf for a tiny step,
# before it builds the list.
MAX_SWEEP_ROWS = 1_000_000

_AXES = ["N", "beta", "T_K", "tau"]
_SCALARS = ("concurrence", "discord", "geometric_discord")
# The value columns of each --quantity that names more than one.
_GROUPS = {"correlations": CORR_FIELDS, "all": _SCALARS + CORR_FIELDS}
# The CSV separators, in the last byte of a formatted cell.
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)


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
    if not span < MAX_SWEEP_ROWS:
        raise ValueError(
            f"{flag} spans more than {MAX_SWEEP_ROWS} points, got {text!r}"
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


def run_sweep(quantity: str, n_values, betas, taus, engine: str = "analytic"):
    """Evaluate the requested quantity over the grid, chunk by chunk.

    Returns (names, chunks): the value columns' names, and an iterator of
    grid_walk's chunks as (span, values), values one float array per value
    column; rows iterate n (outer), beta, tau (inner).  The call checks the
    axes and, for the oracle, every n's byte budget.  Every discord column
    is clamped at 0, the closed form's and the oracle's alike, since mutual
    - classical of a classical state is rounding that may fall below 0 (a
    clamped cell reads 0, not -0); ``discord_diff`` is their difference.
    """
    base = list(_GROUPS.get(quantity, [quantity]))
    n_values = check_axes(n_values, betas, taus)
    names = [f"{c}{s}" for c in base for s in ("", "_oracle", "_diff")]
    names = names if engine == "both" else base
    walk = grid_walk(n_values, betas, taus, 1 << 10, oracle=engine != "analytic")

    def written(side):
        return {c: np.maximum(v, 0.0) if c == "discord" else v for c, v in side.items()}

    def chunks():
        for span, corr, rhos in walk:
            a = engine != "oracle" and written(analytic_rows(corr, base))
            o = engine != "analytic" and written(oracle_rows(rhos, base))
            if engine == "both":
                yield span, [v for c in base for v in (a[c], o[c], a[c] - o[c])]
            else:
                yield span, [(a or o)[c] for c in base]

    return names, chunks()


def _pieces(chunks, n_val):
    # run_sweep's chunks of n_val value columns cut into grid_plan's pieces.
    from ._g17 import CELL_BYTES

    rows = max(1, CSV_CHUNK_BYTES // (n_val * CELL_BYTES))
    for (c0, c1, s0, s1), values in chunks:
        for b0, b1, t0, t1 in grid_plan(c1 - c0, s1 - s0, rows):
            lo = b0 * (s1 - s0) + t0
            part = [v[lo : lo + (b1 - b0) * (t1 - t0)] for v in values]
            yield (c0 + b0, c0 + b1, s0 + t0, s0 + t1), part


def _words(texts, words=0):
    # Byte strings as rows of uint64 words, zero-padded to the longest or to
    # `words` words, if that is more.
    words = max(words, -(-max(map(len, texts)) // 8))
    return np.array(texts, f"S{8 * words}").view(np.uint64).reshape(len(texts), -1)


def _write_csv(names, chunks, grid, stream) -> None:
    # chunks are run_sweep's over grid = (N values, betas, T_K values, taus):
    # blocks of len(taus) rows, one per (N, beta).  See the module docstring.
    from ._g17 import CELL_WORDS, format_g17  # only CSV sweeps load the formatter

    n_text = [str(n).encode() for n in grid[0]]
    betas, temps, tau_axis = (np.asarray(axis, dtype=float) for axis in grid[1:])
    n_beta, n_val = len(betas), len(names)
    stream.write(_HEADER + "\n")
    stream.write(",".join(_AXES + names) + "\n")
    # Words for the longest "N,beta,T_K," (a 17g cell has at most 24 bytes).
    head_room = -(-(max(map(len, n_text)) + 51) // 8)
    held = None  # the first tau of the piece whose "tau," words taus holds
    for (b0, b1, t0, t1), values in _pieces(chunks, n_val):
        blocks = np.arange(b0, b1)
        k, n_rows = b1 - b0, (b1 - b0) * (t1 - t0)
        # The betas and T_Ks of the piece's blocks, and its taus unless
        # the last piece had the same, go in the value cells of n_lead
        # leading rows, so that one call formats every cell, unless they
        # outnumber its value cells (blocks of one or two taus).
        n_axis = 2 * k + (t1 - t0 if t0 != held else 0)
        n_lead = -(-n_axis // n_val) if n_axis <= n_rows * n_val else 0
        x = np.empty((n_lead + n_rows, n_val))
        lead = x[:n_lead].reshape(-1) if n_lead else np.empty(n_axis)
        lead[:k] = betas.take(blocks, mode="wrap")
        lead[k : 2 * k] = temps.take(blocks, mode="wrap")
        lead[2 * k : n_axis] = tau_axis[t0 : t0 + n_axis - 2 * k]
        lead[n_axis:] = 1.0
        for j, col in enumerate(values):
            x[n_lead:, j] = col
        # A row: room words for "N,beta,T_K,tau," (4 for "tau," until its
        # text is known), then the value cells, formatted in place.
        room = head_room + (4 if t0 != held else taus.shape[1])
        buf = np.empty((len(x), room + CELL_WORDS * n_val), np.uint64)
        cells = buf[:, room:].reshape(len(x), n_val, -1)
        format_g17(x, out=cells)
        cells[n_lead:, -1, -1] ^= _COMMA ^ _NEWLINE
        text = buf[:n_lead, room:] if n_lead else format_g17(lead)
        text = text.view(np.uint8)
        text = text[text != 0].tobytes().split(b",")
        if t0 != held:
            taus, held = _words([t + b"," for t in text[2 * k : n_axis]]), t0
        n_col = [n_text[n] for n in (blocks // n_beta).tolist()]
        heads = [b"%s,%s,%s," % h for h in zip(n_col, text, text[k:])]
        # Each block's head, zero-padded up to the "tau," words, and each
        # tau's, broadcast over the rows.
        cut = room - taus.shape[1]
        body = buf[n_lead:].reshape(k, t1 - t0, -1)
        body[:, :, :cut] = _words(heads, cut)[:, None]
        body[:, :, cut:room] = taus
        text = buf[n_lead:].view(np.uint8)
        stream.write(text[text != 0].tobytes().decode())


def _json_safe(values) -> list:
    # JSON has no inf or nan; they are written as "inf", "-inf" and "nan".
    if isinstance(values, np.ndarray):
        if np.isfinite(values).all():
            return values.tolist()
        values = values.tolist()
    return [v if isinstance(v, int) or math.isfinite(v) else str(v) for v in values]


def _write_json(names, chunks, grid, engine, omega0, stream) -> None:
    # The one line that json.dumps gives the whole document (its C encoder:
    # an indent would not take it), written a piece of rows at a time.
    n_values, betas, temps, taus = map(_json_safe, grid)
    doc = {
        "tool": "nanospin-qcorr",
        "version": __version__,
        "engine": engine,
        "grid": {"N": n_values, "beta": betas, "tau": taus, "omega0": omega0},
        "columns": _AXES + names,
        "rows": [],
    }
    head, tail = json.dumps(doc).rsplit("[]", 1)
    stream.write(head + "[")
    axes = itertools.product(n_values, zip(betas, temps), taus)
    for k, (_, values) in enumerate(_pieces(chunks, len(names))):
        cells = zip(*map(_json_safe, values))
        # cells first: zip ends on them before it takes a row of axes.
        chunk = [(n, b, t, tau, *c) for c, (n, (b, t), tau) in zip(cells, axes)]
        stream.write((", " if k else "") + json.dumps(chunk)[1:-1])
    stream.write("]" + tail + "\n")


@functools.cache
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
        "--inject-corruption",
        type=float,
        default=0.0,
        metavar="EPS",
        help="test hook: offset the analytic correlator q by EPS",
    )
    return parser


def _cmd_sweep(args) -> int:
    n_values = _parse_n(args.N)
    if args.beta_range is not None:
        betas = _parse_range(args.beta_range, "--beta-range")
    else:
        temps = _parse_range(args.temp_range, "--temp-range")
        betas = [beta_from_temperature(t, args.omega0) for t in temps]
    if args.coupling is not None and args.time_range is None:
        raise ValueError("--coupling applies only to --time-range")
    if args.tau_range is not None:
        taus = _parse_range(args.tau_range, "--tau-range")
    elif args.time_range is not None:
        if args.coupling is None:
            raise ValueError("--time-range requires --coupling")
        if not math.isfinite(args.coupling):
            raise ValueError(f"--coupling must be finite, got {args.coupling}")
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
    check_axes([], [], [], args.omega0)
    names, chunks = run_sweep(args.quantity, n_values, betas, taus, engine=args.engine)
    temps = [temperature_from_beta(b, args.omega0) for b in betas]
    grid = (n_values, betas, temps, taus)
    if args.out is not None:
        stream = open(args.out, "w", newline="")
    else:
        stream = contextlib.nullcontext(sys.stdout)
    with stream as fh:
        if args.format == "csv":
            _write_csv(names, chunks, grid, fh)
        else:
            _write_json(names, chunks, grid, args.engine, args.omega0, fh)
    return 0


def _cmd_verify(args) -> int:
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
        rc = _cmd_sweep(args) if args.command == "sweep" else _cmd_verify(args)
        sys.stdout.flush()  # off a tty stdout is buffered: fail here, not at exit
        return rc
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout at
        # devnull so that the interpreter's final flush stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an --out or a stdout that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "out", None) is None:  # stdout: silence its flush too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
