"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --seeds 1 --trace

Runs ``run.py`` once per workload and seed, one run at a time, and prints,
per workload, each end-to-end metric with its unit, median, quartiles and
spread (interquartile range over median, the figure compared against the
metric's bound in BENCHMARK.json), plus ops and ops_failed.  ``--trace``
adds one traced run per workload (first seed) and prints the per-layer
table, with each layer's self time as a share of the layers' total self
time (the traced time spent inside the package).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="A-B")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    for workload in names:
        runs = [_run(workload, seed, seconds, 0) for seed in args.seeds]
        ops = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, ops {ops}, ops_failed {failed}")
        print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = _summary(values)
            print(f"  {m['name']:14s} {m['unit']:5s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.2%} {m['bound']:6.0%}")
        if args.trace:
            metrics = _run(workload, args.seeds[0], seconds, 1)["metrics"]
            inside = sum(
                m["value"] for name, m in metrics.items() if name.endswith(".self_s")
            )
            print(f"  traced run, seed {args.seeds[0]}, per repetition:")
            for name, m in metrics.items():
                share = f"{m['value'] / inside:7.1%}" if name.endswith(".self_s") else ""
                print(f"    {name:48s} {m['value']:14.6g} {m['unit']:14s} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
