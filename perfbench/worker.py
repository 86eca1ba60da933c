"""The workload process: set-up, timed repetitions, output checks.

Started by ``run.py`` in a fresh interpreter with the package on the path
and the BLAS/OpenMP thread counts pinned to 1.  Prints one JSON object.

Set-up is timed from the package import to the end of one warm-up command
(a one-row version of the workload), so lazy initialisation such as JIT
compilation lands in ``setup_s`` and not in the repetitions.  A repetition
runs every command of the workload through ``nanospin_qcorr.cli.main``,
including writing its output file; only that is inside the timer.  The
host-speed calibration (``calibration.py``) runs once after set-up and,
with ``--trace 0``, after every repetition.  With ``--trace 1`` untraced
and traced repetitions alternate, so the tracing overhead is their
difference on the same inputs.  With ``--replay DIR`` the process instead
runs one repetition after set-up and compares its outputs with those
another process kept in DIR, so outputs are checked to be identical across
processes, not only across repetitions of one process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (standard library only)
from calibration import REFERENCE_S, calibrate  # noqa: E402

MIN_REPS = 3  # at least three repetitions, for quartiles
# (layer, function) pairs reported as microseconds per call.
US_FUNCTIONS = (
    ("discord", "discord_numeric"),
    ("_kernels", "conditional_entropy_grid"),
    ("_kernels", "conditional_entropy_point"),
    ("exact_oracle", "thermal_initial"),
    ("exact_oracle", "evolve"),
    ("exact_oracle", "partial_trace_pair"),
    ("nanopore", "correlations"),
    ("nanopore", "reduced_density"),
    ("entanglement", "concurrence_cs"),
    ("entanglement", "concurrence_numeric"),
    ("geometric_discord", "geometric_discord_cs"),
    ("geometric_discord", "geometric_discord_generic"),
)
# Spin counts and repeats of the pair-state timing.
PAIR_STATE_REPEATS = {6: 41, 8: 21, 10: 9}


def _run_command(cli, argv, out_path):
    argv = [str(out_path) if a == workloads.OUT else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    return rc, stdout.getvalue()


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Runner:
    """Runs repetitions of a workload and counts the ops that fail.

    The first successful output of each command is kept and checked in full
    by ``check``; every later repetition must reproduce it byte for byte.
    A runner made with ``kept`` compares against the outputs that another
    runner kept there (sweep files ``first<i>``, and ``first.json`` written
    by ``keep``) instead.
    """

    def __init__(self, workload, cli, tmp: Path, kept: Path = None):
        self.workload = workload
        self.cli = cli
        self.tmp = tmp
        self.kept = kept or tmp
        self.ops_per_command = workload.ops // len(workload.commands)
        self.first = [None] * len(workload.commands)  # (rc, text, digest)
        if kept is not None:
            listed = json.loads((kept / "first.json").read_text())
            self.first = [None if f is None else (f[0], None, f[1]) for f in listed]
        self.same = [0] * len(workload.commands)  # reps that reproduced it
        self.failed = 0
        self.messages = []

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def rep(self) -> float:
        """One repetition; returns its wall time in seconds."""
        results = []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.workload.commands):
            try:
                results.append(_run_command(self.cli, argv, self.tmp / f"out{i}"))
            except Exception as exc:  # a crash is a failed op, not a crash here
                results.append((None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - t0
        for i, (rc, text) in enumerate(results):
            self._record(i, rc, text)
        return wall

    def _record(self, i: int, rc, text: str) -> None:
        if rc is None or (self.workload.kind == "sweep" and rc != 0):
            self._fail(self.ops_per_command, f"command {i}: exit {rc} {text}".strip())
            return
        out = self.tmp / f"out{i}"
        digest = _digest(out) if self.workload.kind == "sweep" else text
        if self.first[i] is None:
            if self.workload.kind == "sweep":
                out.replace(self.tmp / f"first{i}")
            self.first[i] = (rc, text, digest)
        if (rc, digest) == (self.first[i][0], self.first[i][2]):
            self.same[i] += 1
        else:
            self._fail(self._differing_ops(i), f"command {i}: output not reproduced")

    def keep(self) -> None:
        """List the kept outputs' exit codes and digests for a replay."""
        firsts = [None if f is None else [f[0], f[2]] for f in self.first]
        (self.tmp / "first.json").write_text(json.dumps(firsts))

    def _differing_ops(self, i: int) -> int:
        if self.workload.kind != "sweep":
            return self.ops_per_command
        new = (self.tmp / f"out{i}").read_text().splitlines()
        old = (self.kept / f"first{i}").read_text().splitlines()
        return sum(a != b for a, b in zip(new, old)) + abs(len(new) - len(old))

    def check(self) -> None:
        """Check the kept outputs; a failure counts in every rep that made it."""
        import checks

        for i, argv in enumerate(self.workload.commands):
            if self.first[i] is None:
                continue
            rc, text, _ = self.first[i]
            if self.workload.kind == "sweep":
                quantity = argv[argv.index("--quantity") + 1]
                text = (self.tmp / f"first{i}").read_text()
                failed, msgs = checks.check_sweep(text, self.workload, quantity)
            else:
                failed, msgs = checks.check_verify(rc, text, self.workload)
            if failed:
                self._fail(failed * self.same[i], "; ".join(msgs))


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def _fast(values) -> float:
    """The first decile: the time of a repetition in the host's fast phases."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def layer_metrics(stats, reps: int) -> dict:
    """Per-layer metrics from the tracer, per repetition."""
    from tracer import LAYERS

    m = {}
    for layer in LAYERS:
        sel = [s for (lay, _), s in stats.items() if lay == layer]
        name = layer.lstrip("_")
        m[f"{name}.self_s"] = sum(s.self_s for s in sel) / reps
        m[f"{name}.calls"] = sum(s.calls for s in sel) / reps
    for layer, fn in US_FUNCTIONS:
        s = stats[(layer, fn)]
        us = 1e6 * s.total_s / s.calls if s.calls else 0.0
        m[f"{layer.lstrip('_')}.{fn}.us"] = us
    grid = stats[("_kernels", "conditional_entropy_grid")]
    point = stats[("_kernels", "conditional_entropy_point")]
    states = stats[("discord", "discord_numeric")].calls
    m["discord.objective_evals_per_state"] = (
        (grid.work + point.calls) / states if states else 0.0
    )
    ev = stats[("exact_oracle", "evolve")]
    m["exact_oracle.dense_bytes_per_state"] = ev.work / ev.calls if ev.calls else 0.0
    return m


def pair_state_us(n: int, repeats: int, beta: float = 3.0, tau: float = 1.1) -> float:
    """Median time of one dense reference pair state from scratch.

    A pair state is thermal_initial(n, beta), then evolve(., tau), then
    partial_trace_pair(.): everything the oracle does to produce the 4x4
    reduced state at one (n, beta, tau).
    """
    from nanospin_qcorr.exact_oracle import evolve, partial_trace_pair, thermal_initial

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        partial_trace_pair(evolve(thermal_initial(n, beta), tau))
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def measure(
    workload, cli, seconds: float, trace: bool, tmp: Path, cal_s: float
) -> dict:
    """Run repetitions for `seconds`, then check the outputs.

    `cal_s` is the calibration time measured after set-up; untraced runs
    calibrate again after every repetition.
    """
    runner = Runner(workload, cli, tmp)
    tracer = None
    if trace:
        from tracer import LayerTracer

        tracer = LayerTracer()
    walls, traced, cals = [], [], [cal_s]
    deadline = time.perf_counter() + seconds
    while True:
        walls.append(runner.rep())
        if tracer is None:
            cals.append(calibrate())
        else:
            tracer.install()
            try:
                traced.append(runner.rep())
            finally:
                tracer.uninstall()
        if len(walls) >= MIN_REPS and time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.keep()
    runner.check()

    reps = len(walls) + len(traced)
    result = {
        "ops": workload.ops * reps,
        "ops_failed": runner.failed,
        "messages": runner.messages,
        "reps": reps,
        "rep_s": dict(_quartiles(walls), d1=_fast(walls)),
    }
    if tracer is None:
        # Fast-phase repetition time over fast-phase calibration time: short
        # slow spells drop out of the first deciles, long ones slow both.
        scaled_rep_s = _fast(walls) * REFERENCE_S / _fast(cals)
        result["metrics"] = {
            "states_per_s": workload.ops / scaled_rep_s,
            "peak_rss_mib": peak_rss_mib,
        }
        result["walls_s"] = walls
        result["cals_s"] = cals
        result["wall_states_per_s"] = workload.ops / statistics.median(walls)
        return result
    metrics = layer_metrics(tracer.stats, len(traced))
    for n, repeats in PAIR_STATE_REPEATS.items():
        metrics[f"exact_oracle.pair_state.n{n}.us"] = pair_state_us(n, repeats)
    metrics["trace.untraced_rep_s"] = statistics.median(walls)
    metrics["trace.traced_rep_s"] = statistics.median(traced)
    # Each traced repetition follows an untraced one on the same inputs; the
    # median of the pairwise differences cancels host speed drifting over a run.
    metrics["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(walls, traced)
    )
    result["metrics"] = metrics
    return result


def environment() -> dict:
    import numpy

    from nanospin_qcorr import kernel_backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark workload process")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory")
    parser.add_argument(
        "--setup-only", action="store_true", help="stop after set-up"
    )
    parser.add_argument(
        "--replay",
        metavar="DIR",
        help="run one repetition and compare it with the outputs kept in DIR",
    )
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed, args.size)
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    from nanospin_qcorr import cli

    for warm in workload.warmup:
        _run_command(cli, warm, tmp / "warmup")
    setup_s = time.perf_counter() - t0
    cal_s = calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_s": cal_s}))
        return 0
    if args.replay:
        runner = Runner(workload, cli, tmp, kept=Path(args.replay))
        runner.rep()
        print(json.dumps({
            "setup_s": setup_s,
            "cal_s": cal_s,
            "ops": workload.ops,
            "ops_failed": runner.failed,
            "messages": runner.messages,
        }))
        return 0

    result = measure(workload, cli, args.seconds, bool(args.trace), tmp, cal_s)
    result["setup_s"] = setup_s
    result["setup_cal_s"] = cal_s
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
