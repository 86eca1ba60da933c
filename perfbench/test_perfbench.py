"""Tests of the benchmark itself: metrics, checks and seeds.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, _run_command  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _bench(
        "--workload", name, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # The layers each workload was chosen for (the time shares are a
    # property of the full grids; see README.md).
    if name == "sweep-closed":
        assert values["discord.calls"] == 0
    else:
        assert values["discord.calls"] > 0
    assert (values["exact_oracle.calls"] > 0) == (name == "verify-dense")


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench(
        "--workload", "sweep-closed", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _cli():
    from nanospin_qcorr import cli

    return cli


def test_verify_corruption_counts_as_failed_ops(tmp_path):
    clean = workloads.build("verify-dense", 1, "tiny")
    corrupted = tuple(c + ("--inject-corruption", "1e-3") for c in clean.commands)
    corrupt = dataclasses.replace(clean, commands=corrupted)
    for workload, expected in ((clean, 0), (corrupt, 2 * clean.ops)):
        runner = Runner(workload, _cli(), tmp_path)
        runner.rep()
        runner.rep()
        runner.check()
        assert runner.failed == expected, runner.messages


def _sweep_text(workload, i, tmp_path):
    out = tmp_path / "out.csv"
    rc, _ = _run_command(_cli(), workload.commands[i], out)
    assert rc == 0
    return out.read_text()


def _perturb(text, row, delta):
    lines = text.splitlines(keepends=True)
    data = [k for k, ln in enumerate(lines) if ln[0].isdigit() or ln.startswith("inf")]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize(
    "name, command, row",
    [
        ("sweep-closed", 0, 0),  # correlations, N = 2
        ("sweep-closed", 1, 7),  # concurrence, N = 3
        ("sweep-closed", 2, 5),  # geometric discord, N = 2
        ("sweep-discord", 0, 1),  # discord, N = 3 (dense reference)
        ("sweep-discord", 0, 6),  # discord, N = inf (closed form)
    ],
)
def test_perturbed_sweep_value_counts_as_failed_op(name, command, row, tmp_path):
    workload = workloads.build(name, 2, "tiny")
    quantity = workload.commands[command][2]
    text = _sweep_text(workload, command, tmp_path)
    assert checks.check_sweep(text, workload, quantity) == (0, [])
    delta = 2e-6 if quantity == "discord" else 1e-9
    perturbed = _perturb(text, row, delta)
    failed, messages = checks.check_sweep(perturbed, workload, quantity)
    assert failed == 1, messages
    failed, _ = checks.check_sweep(_perturb(text, row, math.nan), workload, quantity)
    assert failed == 1
    dropped = "".join(text.splitlines(keepends=True)[:-1])
    assert checks.check_sweep(dropped, workload, quantity)[0] == 1


def test_unreproduced_output_counts_as_failed_op(tmp_path):
    class DriftingCli:
        calls = 0

        def main(self, argv):
            self.calls += 1
            Path(argv[-1]).write_text(f"# header\nN,beta\n2,{self.calls}\n3,0.5\n")
            return 0

    workload = workloads.build("sweep-discord", 1, "tiny")
    runner = Runner(workload, DriftingCli(), tmp_path)
    runner.rep()
    assert runner.failed == 0
    runner.rep()
    assert runner.failed == 1


def test_replay_compares_with_the_outputs_another_runner_kept(tmp_path):
    class FixedCli:
        def __init__(self, value):
            self.value = value

        def main(self, argv):
            Path(argv[-1]).write_text(f"# header\nN,beta\n2,{self.value}\n3,0.5\n")
            return 0

    workload = workloads.build("sweep-discord", 1, "tiny")
    kept = tmp_path / "main"
    kept.mkdir()
    main = Runner(workload, FixedCli(1), kept)
    main.rep()
    main.keep()
    for value, failed in ((1, 0), (2, 1)):
        replay_dir = tmp_path / f"replay{value}"
        replay_dir.mkdir()
        replay = Runner(workload, FixedCli(value), replay_dir, kept=kept)
        replay.rep()
        assert replay.failed == failed, replay.messages


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_shifts_the_grid_but_not_its_size(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert a == workloads.build(name, 1)
    assert a.ops == b.ops and a.commands != b.commands
