"""Benchmark of the nanospin-qcorr command line.

    python3 perfbench/run.py --workload sweep-discord --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (pure Python, nothing to build).  Workloads and metrics are listed
in ``BENCHMARK.json``; ``perfbench/README.md`` says why each was chosen.

With ``--trace 0`` the end-to-end metrics are measured: ``states_per_s`` and
``peak_rss_mib`` come from one workload process that repeats the workload
for ``--seconds``; ``setup_s`` is the median over eleven fresh interpreters,
three before that process, the process itself and seven after it (the
replay process and six more), so the samples spread over the whole run.
One more interpreter, unmeasured, runs first to fill the bytecode and file
caches.  ``states_per_s`` and ``setup_s`` are scaled to a reference host
speed by the calibration in ``calibration.py``.  With ``--trace 1`` the
workload process alternates untraced and traced repetitions and reports
the per-layer metrics.  Either way a replay process then runs one
repetition and must reproduce the outputs byte for byte.

Output: a line with the environment and details, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  Exits 0 when it
measured, whether or not the outputs were correct; nonzero without a result
when it could not measure (for example when the package source is absent).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402

# Set-up-only interpreters before and after the workload process; with the
# workload and replay processes that makes eleven set-up samples.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 6
# A run measures for --seconds (a traced run alternates untraced and traced
# repetitions within it); set-up probes, checks, pair-state timings and the
# replay take the rest.
TIME_MARGIN_S = 120.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _run_worker(args, tmp: Path, deadline: float, *extra) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--tmp", str(tmp), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload process started")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def measure(args) -> tuple:
    """Returns (result line, details line)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + TIME_MARGIN_S + 1.5 * args.seconds
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    probes = (0, 0) if args.trace else (1 + SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER)

    def setup_probes(count):
        return [
            _run_worker(args, tmp / "probe", deadline, "--setup-only")
            for _ in range(count)
        ]

    try:
        samples = setup_probes(probes[0])[1:]  # the first only fills the caches
        res = _run_worker(args, tmp / "main", deadline)
        replay = _run_worker(
            args, tmp / "replay", deadline, "--replay", str(tmp / "main")
        )
        samples += [
            {"setup_s": res["setup_s"], "cal_s": res["setup_cal_s"]},
            replay,
            *setup_probes(probes[1]),
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    ops = res["ops"] + replay["ops"]
    ops_failed = res["ops_failed"] + replay["ops_failed"]
    # Each set-up time is scaled by the calibration of its own interpreter.
    setup = [s["setup_s"] * REFERENCE_S / s["cal_s"] for s in samples]
    measured = dict(res["metrics"], setup_s=statistics.median(setup))
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    env = dict(
        res["env"],
        git_commit=_git_commit(),
        threads={name: "1" for name in THREAD_VARS},
    )
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "ops": ops,
        "ops_failed": ops_failed,
        "messages": res["messages"] + replay["messages"],
        "reps": res["reps"],
        "rep_s": res["rep_s"],
        "walls_s": res.get("walls_s"),
        "cals_s": res.get("cals_s"),
        "wall_states_per_s": res.get("wall_states_per_s"),
        "setup_s_samples": [s["setup_s"] for s in samples],
        "setup_cal_s_samples": [s["cal_s"] for s in samples],
        "env": env,
    }
    result = {
        "correct": ops_failed == 0,
        "attempted": ops,
        "failed": ops_failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=workloads.SIZES,
        default="full",
        help="'tiny' shrinks every grid to a few rows, for the benchmark's tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nanospin_qcorr" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
