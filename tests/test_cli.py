import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import sweep_columns
from nanospin_qcorr import __version__, cli, verification
from nanospin_qcorr._g17 import CELL_BYTES
from nanospin_qcorr.cli import (
    MAX_SWEEP_ROWS,
    _write_csv,
    _write_json,
    main,
    run_sweep,
)
from nanospin_qcorr.nanopore import (
    OMEGA0_DEFAULT,
    special_time_correlations,
    tau_special,
    temperature_from_beta,
)
from nanospin_qcorr.verification import VerificationReport, run_verification

SWEEP_BASE = [
    "sweep",
    "--N",
    "4",
    "--beta-range",
    "1:3:1",
    "--tau-range",
    "0:1:0.5",
]


def run_to_file(tmp_path, name, argv):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    assert rc == 0
    return path


AXES = ["N", "beta", "T_K", "tau"]


def _grid(n_values, betas, taus):
    # The writers' grid, with T_K at the default omega0.
    return n_values, betas, [temperature_from_beta(b) for b in betas], taus


def _rows(values, grid):
    # Each row's N, beta, T_K and tau, then its value cells: n outer, tau inner.
    n_values, betas, temps, taus = grid
    axes = list(itertools.product(n_values, zip(betas, temps), taus))
    assert all(len(col) == len(axes) for col in values)
    return [(n, b, t, tau, *c) for (n, (b, t), tau), c in zip(axes, zip(*values))]


def _whole(values, grid):
    # Whole value columns over grid as the grid walk's one chunk.
    n_blocks, n_tau = len(grid[0]) * len(grid[1]), len(grid[3])
    return [((0, n_blocks, 0, n_tau), values)] if n_tau else []


def test_repeat_runs_are_byte_identical(tmp_path):
    a = run_to_file(tmp_path, "a.csv", SWEEP_BASE)
    b = run_to_file(tmp_path, "b.csv", SWEEP_BASE)
    assert a.read_bytes() == b.read_bytes()


def test_csv_shape_and_header(tmp_path):
    path = run_to_file(tmp_path, "out.csv", SWEEP_BASE)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "# nanospin-qcorr v0.1.0"
    cols = lines[1].split(",")
    assert cols[:4] == ["N", "beta", "T_K", "tau"]
    assert "concurrence" in cols and "q" in cols
    # 1 pore size x 3 betas x 3 taus
    assert len(lines) == 2 + 9


def test_csv_floats_round_trip(tmp_path):
    path = run_to_file(tmp_path, "out.csv", SWEEP_BASE)
    lines = path.read_text().splitlines()
    axes = ([4], [1.0, 2.0, 3.0], [0.0, 0.5, 1.0])
    names, values = sweep_columns("all", *axes, engine="analytic")
    grid = _grid(*axes)
    assert lines[1].split(",") == AXES + names
    rows = _rows(values, grid)
    assert len(lines[2:]) == len(rows) == 9
    for text_row, row in zip(lines[2:], rows):
        parsed = [float(cell) for cell in text_row.split(",")]
        assert parsed == [float(v) for v in row]


def test_json_output(tmp_path):
    path = run_to_file(
        tmp_path, "out.json", SWEEP_BASE + ["--format", "json"]
    )
    doc = json.loads(path.read_text())
    assert doc["tool"] == "nanospin-qcorr"
    assert doc["version"] == "0.1.0"
    assert doc["engine"] == "analytic"
    axes = ([4], [1.0, 2.0, 3.0], [0.0, 0.5, 1.0])
    names, values = sweep_columns("all", *axes, engine="analytic")
    grid = _grid(*axes)
    assert doc["columns"] == AXES + names
    rows = _rows(values, grid)
    assert len(doc["rows"]) == len(rows) == 9
    for json_row, row in zip(doc["rows"], rows):
        for a, b in zip(json_row, row):
            assert float(a) == float(b)
    assert list(doc) == ["tool", "version", "engine", "grid", "columns", "rows"]
    assert doc["grid"] == {
        "N": [4],
        "beta": [1.0, 2.0, 3.0],
        "tau": [0.0, 0.5, 1.0],
        "omega0": OMEGA0_DEFAULT,
    }


def test_json_grid_records_axes(tmp_path):
    # The grid holds the betas the rows were built from (converted from the
    # temperatures here, T = 0 giving beta = inf) and "inf" for N = inf.
    argv = ["sweep", "--quantity", "concurrence", "--N", "3", "inf"]
    argv += ["--temp-range", "0:0.001:0.001", "--tau", "-0", "--omega0", "2e9"]
    path = run_to_file(tmp_path, "g.json", argv + ["--format", "json"])
    doc = json.loads(path.read_text())
    grid = doc["grid"]
    assert grid["N"] == [3, "inf"]
    assert grid["beta"][0] == "inf" and len(grid["beta"]) == 2
    assert grid["beta"][1] == doc["rows"][1][1]
    assert grid["tau"] == [0.0] and math.copysign(1.0, grid["tau"][0]) < 0
    assert grid["omega0"] == 2e9


def test_version_matches_package(tmp_path):
    csv = run_to_file(tmp_path, "v.csv", SWEEP_BASE)
    js = run_to_file(tmp_path, "v.json", SWEEP_BASE + ["--format", "json"])
    assert csv.read_text().splitlines()[0] == f"# nanospin-qcorr v{__version__}"
    assert json.loads(js.read_text())["version"] == __version__


def test_json_encodes_infinite_pore(tmp_path):
    path = run_to_file(
        tmp_path,
        "inf.json",
        [
            "sweep",
            "--quantity",
            "discord",
            "--N",
            "inf",
            "--beta-range",
            "2:2:1",
            "--tau",
            "0.4",
            "--format",
            "json",
        ],
    )
    doc = json.loads(path.read_text())
    assert doc["rows"][0][0] == "inf"


def test_infinite_pore_csv_cell(tmp_path):
    path = run_to_file(
        tmp_path,
        "inf.csv",
        [
            "sweep",
            "--quantity",
            "correlations",
            "--N",
            "inf",
            "--beta-range",
            "2:2:1",
            "--tau",
            "0.4",
        ],
    )
    first = path.read_text().splitlines()[2]
    assert first.split(",")[0] == "inf"


def test_temperature_grid_round_trip(tmp_path):
    temps = [0.005, 0.01, 0.015]
    path = run_to_file(
        tmp_path,
        "temps.csv",
        [
            "sweep",
            "--quantity",
            "concurrence",
            "--N",
            "6",
            "--temp-range",
            "0.005:0.015:0.005",
            "--tau",
            "1.0",
        ],
    )
    lines = path.read_text().splitlines()[2:]
    for line, t in zip(lines, temps):
        t_k = float(line.split(",")[2])
        assert t_k == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize(
    "grid, beta, t_k",
    [
        (["--beta-range", "1e-320:1e-320:1"], "9.9998886718268301e-321", "inf"),
        (["--temp-range", "1e-320:1e-320:1"], "inf", "0"),
        (
            ["--temp-range", "1e308:1e308:1"],
            "2.3996215366830962e-310",
            "1.000000000000006e+308",
        ),
    ],
)
def test_subnormal_temperature_or_beta_sweeps(capsys, grid, beta, t_k):
    # k_B times a subnormal beta or T, or times 1e-320 K, is not a normal
    # float, and 1e308 K's beta is subnormal; each sweep writes its row.
    rc = main(["sweep", "--quantity", "all", "--N", "2", *grid, "--tau", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and len(lines) == 3
    assert lines[2].split(",")[1:3] == [beta, t_k]


def test_large_pore_cold_discord_saturates(tmp_path):
    # The headline regime: a very cold large pore sits at the plateau.
    path = run_to_file(
        tmp_path,
        "cold.csv",
        [
            "sweep",
            "--quantity",
            "discord",
            "--N",
            "inf",
            "--temp-range",
            "0.0005:0.0005:1",
            "--tau",
            "2.2",
        ],
    )
    value = float(path.read_text().splitlines()[2].split(",")[4])
    assert 0.31 < value < 0.3113
    assert value == pytest.approx(0.75 * math.log2(4.0 / 3.0), abs=1e-3)


def test_special_time_token(tmp_path):
    path = run_to_file(
        tmp_path,
        "special.csv",
        [
            "sweep",
            "--quantity",
            "discord",
            "--N",
            "6",
            "--beta-range",
            "3:3:1",
            "--tau",
            "special:1",
        ],
    )
    line = path.read_text().splitlines()[2].split(",")
    assert line[3] == "4.7123889803846897"
    # Flickering: the discord vanishes at odd half-periods.
    assert abs(float(line[4])) < 1e-6


def test_special_time_sweep_is_exact(capsys):
    # special:0 takes cos tau_0 = 0 exactly: p = 0 and q r = 0 on every row,
    # u = 0 from N = 3 on, each cell special_time_correlations' bits.
    argv = ["sweep", "--quantity", "correlations", "--N", "2", "3"]
    assert main([*argv, "--beta-range", "1:3:1", "--tau", "special:0"]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == 6
    for line in lines:
        n, beta, _, _, *cells = line.split(",")
        p, q, r, u, v = map(float, cells)
        assert p == 0.0 and q * r == 0.0 and (n == "2" or u == 0.0)
        exact = special_time_correlations(int(n), float(beta), 0).as_dict().values()
        assert cells == [format(x, ".17g") for x in exact]


def test_engine_comparison_columns(tmp_path):
    path = run_to_file(
        tmp_path,
        "both.csv",
        [
            "sweep",
            "--quantity",
            "concurrence",
            "--N",
            "5",
            "--beta-range",
            "6:6:1",
            "--tau-range",
            "0.3:0.9:0.3",
            "--engine",
            "both",
        ],
    )
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[4:] == [
        "concurrence",
        "concurrence_oracle",
        "concurrence_diff",
    ]
    for line in lines[2:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(cells[6]) < 1e-10
        assert cells[6] == pytest.approx(cells[4] - cells[5], abs=1e-18)


def test_oracle_engine_rejects_infinite_pore(capsys):
    rc = main(
        [
            "sweep",
            "--N",
            "inf",
            "--beta-range",
            "1:1:1",
            "--tau",
            "0",
            "--engine",
            "oracle",
        ]
    )
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_bad_range_syntax(capsys):
    rc = main(["sweep", "--N", "4", "--beta-range", "1:2", "--tau", "0"])
    assert rc == 2
    assert "lo:hi:step" in capsys.readouterr().err


# l parses as an int, but tau_l = (1 + 2 l) pi / 2 overflows a float.
_HUGE_SPECIAL = "special:1" + "0" * 400


@pytest.mark.parametrize(
    "grid, named",
    [
        (["--N", "abc", "--tau", "0"], "--N takes integers or 'inf', got 'abc'"),
        (["--N", "2.5", "--tau", "0"], "--N takes integers or 'inf', got '2.5'"),
        (["--N", "4", "--tau", "special:x"], "got 'special:x'"),
        (["--N", "4", "--tau", "abc"], "--tau takes a float or special:<l>"),
        (["--N", "4", "--tau-range", "0:one:1"], "--tau-range takes numbers"),
        (
            ["--N", "4", "--tau", "special:-1"],
            "--tau special:<l> takes l >= 0, got 'special:-1'",
        ),
        pytest.param(
            ["--N", "4", "--tau", _HUGE_SPECIAL],
            f"--tau {_HUGE_SPECIAL!r}: l is too large",
            id="tau-special-overflows",
        ),
        (["--N", "4", "--tau-range", "0:1:0"], "--tau-range step must be > 0"),
        (["--N", "4", "--tau-range", "3:1:1"], "--tau-range needs hi >= lo"),
    ],
)
def test_unparsable_token_named(capsys, grid, named):
    # The message names the flag and the token, not int()'s literal error.
    rc = main(["sweep", "--beta-range", "1:1:1"] + grid)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert "invalid literal" not in captured.err
    assert captured.out == ""


def test_verify_unparsable_n_named(capsys):
    rc = main(["verify", "--N", "3", "x"])
    assert rc == 2
    assert "--N takes integers or 'inf', got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        ["--beta-range", "3:3:1", "--tau", "nan"],
        ["--beta-range", "3:3:1", "--tau", "inf"],
        ["--beta-range", "3:3:1", "--tau", "nan", "--engine", "oracle"],
        ["--beta-range", "3:3:1", "--tau", "1", "--omega0", "nan"],
        ["--beta-range", "nan:nan:1", "--tau", "1"],
    ],
)
def test_non_finite_input_rejected(capsys, grid):
    rc = main(["sweep", "--quantity", "concurrence", "--N", "6"] + grid)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid",
    [
        ["--tau", "1e308"],
        ["--time-range", "0:1:1", "--coupling", "1e308"],
    ],
)
def test_overflowing_tau_rejected(capsys, grid):
    # tau is finite but 2 tau is not, and the model takes cos(2 tau).
    rc = main(["sweep", "--N", "3", "--beta-range", "1:1:1"] + grid)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: tau must be finite")
    assert "domain" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tau_range", ["0:1:1e-320", "0:1e9:1e-3"])
def test_oversized_range_rejected(capsys, tau_range):
    rc = main(
        [
            "sweep",
            "--quantity",
            "correlations",
            "--N",
            "3",
            "--beta-range",
            "1:1:1",
            "--tau-range",
            tau_range,
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "points" in captured.err
    assert captured.out == ""


def test_oversized_grid_rejected(tmp_path, capsys):
    # Each range has fewer than MAX_SWEEP_ROWS points; their product does not.
    out = tmp_path / "big.csv"
    argv = ["sweep", "--N", "3", "6", "--beta-range", "1:1000:1"]
    argv += ["--tau-range", "0:999:1", "--out", str(out)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert f"more than {MAX_SWEEP_ROWS}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "n_values, message",
    [
        (["3", "30"], "n = 30 needs 40 * 2^30 bytes"),
        (["3", "inf"], "the oracle needs a finite N, got inf"),
    ],
    ids=["over-budget", "infinite"],
)
def test_oracle_input_errors_leave_out_untouched(tmp_path, capsys, n_values, message):
    # The oracle's checks of every N run before --out is opened: an existing
    # file keeps its bytes.
    out = tmp_path / "kept.csv"
    out.write_bytes(b"earlier output\n")
    argv = ["sweep", "--quantity", "correlations", "--N", *n_values]
    argv += ["--beta-range", "1:2:1", "--tau", "0.5", "--engine", "oracle"]
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"


def test_empty_grid_gives_no_rows():
    names, chunks = run_sweep("all", [3, math.inf], [1.0], [])
    assert names[0] == "concurrence"
    assert len(names) == 8
    assert list(chunks) == []
    grid = _grid([3, math.inf], [1.0], [])
    text = io.StringIO()
    _write_csv(names, [], grid, text)
    assert text.getvalue().splitlines()[1:] == [",".join(AXES + names)]
    text = io.StringIO()
    _write_json(names, [], grid, "analytic", OMEGA0_DEFAULT, text)
    assert json.loads(text.getvalue())["rows"] == []


def test_small_pore_rejected(capsys):
    rc = main(["sweep", "--N", "1", "--beta-range", "1:1:1", "--tau", "0"])
    assert rc == 2
    assert "n must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_huge_n_is_rejected_naming_the_flag(command, capsys):
    argv = ["--N", "3", "1" + "0" * 400]
    if command == "sweep":
        argv += ["--quantity", "concurrence", "--beta-range", "1:2:1", "--tau", "0"]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: --N: n is too large: it overflows a float\n"


def test_time_range_needs_coupling(capsys):
    rc = main(
        ["sweep", "--N", "4", "--beta-range", "1:1:1", "--time-range", "0:1:0.5"]
    )
    assert rc == 2
    assert "--coupling" in capsys.readouterr().err


@pytest.mark.parametrize("omega0", ["nan", "0"])
def test_bad_omega0_is_rejected_before_any_row(monkeypatch, capsys, omega0):
    # _cmd_sweep checks --omega0 itself: run_sweep takes no omega0.
    monkeypatch.setattr(cli, "run_sweep", None)  # reached only by a bug
    argv = ["sweep", "--N", "3", "--temp-range", "1:1:1", "--tau", "0"]
    assert main(argv + ["--omega0", omega0]) == 2
    captured = capsys.readouterr()
    message = f"omega0 must be finite and > 0, got {float(omega0)}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "tau", [["--tau", "0"], ["--tau-range", "0:1:0.5"], ["--tau", "special:0"]]
)
def test_coupling_needs_time_range(monkeypatch, capsys, tau):
    # A --coupling that no --time-range reads is an error, not ignored.
    monkeypatch.setattr(cli, "run_sweep", None)  # reached only by a bug
    argv = ["sweep", "--quantity", "all", "--N", "2", "--beta-range", "1:1:1"]
    assert main(argv + tau + ["--coupling", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --coupling applies only to --time-range\n"
    assert captured.out == ""


@pytest.mark.parametrize("coupling", ["inf", "nan"])
def test_non_finite_coupling_named(monkeypatch, capsys, coupling):
    # The coupling is checked itself, not through the tau it would make.
    monkeypatch.setattr(cli, "run_sweep", None)  # reached only by a bug
    argv = ["sweep", "--N", "2", "--beta-range", "1:1:1", "--time-range", "0:1:0.5"]
    assert main(argv + ["--coupling", coupling]) == 2
    captured = capsys.readouterr()
    message = f"--coupling must be finite, got {float(coupling)}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid",
    [
        ["--beta-range", "", "--tau", "0"],
        ["--temp-range", "", "--tau", "0"],
        ["--beta-range", "1:1:1", "--tau-range", ""],
        ["--beta-range", "1:1:1", "--time-range", "", "--coupling", "1"],
    ],
)
def test_empty_range_named(capsys, grid):
    # An empty range is one that does not parse, not one left out.
    flag = grid[grid.index("") - 1]
    assert main(["sweep", "--N", "4"] + grid) == 2
    assert capsys.readouterr().err == f"error: {flag} expects lo:hi:step, got ''\n"


_TINY_SWEEP = ["sweep", "--quantity", "all", "--N", "2", "--beta-range", "1:1:1"]
_TINY_SWEEP += ["--tau", "0"]


def _assert_one_error_line(err: str):
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("where", ["missing", "directory", "empty"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    # An empty --out names no file; it does not stand for stdout.
    out = {"missing": tmp_path / "missing" / "x.csv", "directory": tmp_path}
    out = out.get(where, "")
    assert main(_TINY_SWEEP + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured.err)
    assert str(out) in captured.err
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        _TINY_SWEEP,
        _TINY_SWEEP + ["--out", "/dev/full"],
        ["verify", "--N", "3", "--tau-points", "2"],
    ],
    ids=["sweep", "sweep-out", "verify"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_full_disk_exits_2(argv, buffered):
    # Every write fails with ENOSPC: one error line, and a silent exit.  A
    # buffered stdout holds a small output until main() flushes it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "nanospin_qcorr", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)
    assert "No space left on device" in proc.stderr


def test_time_range_matches_tau_range(tmp_path):
    # tau = 1.5 D t, so D = 2 maps t in steps of 0.5 onto tau steps of 1.5.
    via_time = run_to_file(
        tmp_path,
        "time.csv",
        [
            "sweep",
            "--quantity",
            "concurrence",
            "--N",
            "6",
            "--beta-range",
            "8:8:1",
            "--time-range",
            "0:2:0.5",
            "--coupling",
            "2",
        ],
    )
    via_tau = run_to_file(
        tmp_path,
        "tau.csv",
        [
            "sweep",
            "--quantity",
            "concurrence",
            "--N",
            "6",
            "--beta-range",
            "8:8:1",
            "--tau-range",
            "0:6:1.5",
        ],
    )
    assert via_time.read_bytes() == via_tau.read_bytes()


def test_bad_choice_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quantity", "bogus", "--N", "4", "--beta-range", "1:1:1", "--tau", "0"])
    assert exc.value.code == 2


def test_verify_small_grid(capsys):
    rc = main(
        [
            "verify",
            "--N",
            "2",
            "3",
            "--beta",
            "1.0",
            "--tau-points",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "checked" in out
    assert "ok" in out
    assert "FAIL" not in out


def test_verify_has_one_configuration(capsys):
    # Every run compares every quantity: the options set the grid and the
    # corruption test hook, and nothing else.
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    flags = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert flags == {"--help", "--N", "--beta", "--tau-points", "--inject-corruption"}
    params = inspect.signature(run_verification).parameters
    assert list(params) == ["n_values", "betas", "n_tau", "corruption"]


def test_verify_defaults_are_run_verification_defaults(monkeypatch, capsys):
    seen = {}

    def record(**kwargs):
        seen.update(kwargs)
        return VerificationReport({}, {}, 0)

    monkeypatch.setattr(cli, "run_verification", record)
    assert main(["verify"]) == 0
    params = inspect.signature(run_verification).parameters
    for name in ("n_values", "betas", "n_tau"):
        assert seen[name] == params[name].default


def test_verify_detects_corruption(capsys):
    rc = main(
        [
            "verify",
            "--N",
            "3",
            "--beta",
            "1.0",
            "--tau-points",
            "4",
            "--inject-corruption",
            "1e-6",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "verification FAILED" in captured.err
    assert "correlations" in captured.err


@pytest.mark.parametrize(
    "argv, where",
    [
        (["--inject-corruption", "1e-4"], "beta=10"),
        (["--N", "3", "--tau-points", "2", "--inject-corruption", "0.5"], "beta=0.5"),
    ],
    ids=["default-grid-1e-4", "small-grid-0.5"],
)
def test_verify_reports_corruption_that_leaves_no_state(capsys, argv, where):
    # The offset makes some closed-form rows no states at all (an eigenvalue
    # of -5.5e-5 at beta = 10 on the default grid): the report fails, every
    # quantity at inf, rather than the run ending in an error.  The inf is
    # at the first such row; the rows of its chunk that are states are not
    # compared.
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    at = f"= inf at N=3, {where}, tau=0.0000 "
    assert all(at in line and line.endswith("FAIL") for line in lines[1:])
    assert "error:" not in captured.err
    assert captured.err.startswith("verification FAILED for: correlations, ")


def test_verify_rejects_infinite_pore(capsys):
    rc = main(["verify", "--N", "inf"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # 3 x 4 x 1e9 states: over the cap before any tau grid is built.
        ["--N", "3", "--tau-points", "1000000000"],
        ["--N", "3", "4", "--beta", "1", "2", "--tau-points", str(MAX_SWEEP_ROWS)],
    ],
)
def test_verify_oversized_grid_rejected(capsys, argv):
    rc = main(["verify"] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert f"more than {MAX_SWEEP_ROWS}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("beta", ["nan", "-1"])
def test_verify_rejects_bad_beta(capsys, beta):
    rc = main(["verify", "--N", "3", "--beta", "1", beta, "--tau-points", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: beta must be >= 0")
    assert captured.out == ""


def test_module_entry_point():
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "nanospin_qcorr",
            "sweep",
            "--quantity",
            "correlations",
            "--N",
            "3",
            "--beta-range",
            "1:1:1",
            "--tau",
            "0.2",
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("# nanospin-qcorr v0.1.0\n")


def test_verify_pure_states(capsys):
    rc = main(["verify", "--N", "3", "--beta", "inf", "--tau-points", "2"])
    assert rc == 0
    assert "FAIL" not in capsys.readouterr().out


def test_sweep_longer_than_a_chunk_matches_chunk_sized_sweeps(tmp_path):
    # 2 x 2 x 1100 rows of one value column span two writer chunks; each
    # per-N sweep fits in one.
    grid = ["--quantity", "concurrence", "--beta-range", "1:2:1"]
    grid += ["--tau-range", "0:1.099:0.001"]
    assert 2 * 1100 <= cli.CSV_CHUNK_BYTES // CELL_BYTES < 2 * 2 * 1100
    whole = run_to_file(tmp_path, "whole.csv", ["sweep", "--N", "3", "inf", *grid])
    parts = [
        run_to_file(tmp_path, f"part{n}.csv", ["sweep", "--N", n, *grid])
        for n in ("3", "inf")
    ]
    whole_lines = whole.read_text().splitlines(keepends=True)
    body = "".join(whole_lines[2:])
    assert len(whole_lines) == 2 + 2 * 2 * 1100
    assert body == "".join(
        "".join(p.read_text().splitlines(keepends=True)[2:]) for p in parts
    )


def _peak_kib(argv):
    # A child runs main(argv) and reports its peak RSS in KiB: VmHWM, which
    # starts afresh at exec, where ru_maxrss keeps the spawning process's.
    code = "import sys; from nanospin_qcorr.cli import main; "
    code += "assert main(sys.argv[1:]) == 0; "
    code += "print(*(s.split()[1] for s in open('/proc/self/status') "
    code += "if s.startswith('VmHWM:')))"
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return int(run.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_json_sweep_peak_memory_is_bounded():
    # 250,000 rows of five columns.  The whole document built in memory
    # peaked near 200 MiB; chunk by chunk the writer holds one chunk's rows.
    argv = ["sweep", "--quantity", "correlations", "--N", "3", "6", "9", "25"]
    argv += ["--beta-range", "1:10:1", "--tau-range", "0:6.249:0.001"]
    assert _peak_kib([*argv, "--format", "json", "--out", os.devnull]) < 100 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_csv_sweep_peak_memory_is_bounded():
    # 300,000 rows of one tau, each its own (N, beta) block.  The writer
    # holds one chunk's axis text; a table of every block's "N,beta,T_K,"
    # text, built once per sweep, peaked near 91 MiB, and chunk by chunk the
    # sweep peaks near 50-57 MiB.
    argv = ["sweep", "--quantity", "concurrence", "--N", "2", "3", "inf"]
    argv += ["--beta-range", "0.001:100:0.001", "--tau", "special:0"]
    assert _peak_kib([*argv, "--out", os.devnull]) < 75 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_discord_sweep_peak_memory_is_bounded():
    # 250,000 rows.  Evaluated over the whole grid before any row was
    # written, the discord's temporaries peaked near 161 MiB; chunk by chunk
    # the sweep peaks near 47 MiB.
    argv = ["sweep", "--quantity", "discord", "--N", "3", "6", "9", "25"]
    argv += ["--beta-range", "1:10:1", "--tau-range", "0:6.249:0.001"]
    assert _peak_kib([*argv, "--out", os.devnull]) < 75 * 1024


def test_closed_pipe_exits_without_traceback():
    argv = ["sweep", "--quantity", "correlations", "--N", "2", "3"]
    argv += ["--beta-range", "1:30:1", "--tau-range", "0:6:0.01"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "nanospin_qcorr", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # The output (about 3 MB) is far larger than a pipe buffer, so the
    # writer is still running when the reader goes away.
    assert proc.stdout.readline().startswith(b"# nanospin-qcorr")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


def _assert_matches_reference(text, names, values, grid):
    # The writer cell by cell: str for N, format(v, ".17g") for the rest.
    lines = [f"# nanospin-qcorr v{__version__}", ",".join(AXES + names)]
    for n, *cells in _rows(values, grid):
        lines.append(",".join([str(n)] + [format(float(v), ".17g") for v in cells]))
    same = text == "".join(line + "\n" for line in lines)
    # Name the first differing line; a diff of the whole text is slow.
    got = text.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), None)
    assert same, (len(got), len(lines), first, first is not None and got[first])


# Grids the writer treats differently: signed zeros, N = inf, T_K = inf
# (beta 0) and T_K = 0 (beta inf), one tau (every row its own (N, beta)
# block), blocks longer than a chunk (4,400 taus: a chunk is a slice of one
# block), chunks of several whole blocks that reach from one N into the next
# (126 taus), N = 100, whose correlations reach 1e-210, and no tau at all.
WRITER_GRIDS = {
    "edges": ([2, 3, math.inf], [0.0, 1.0, math.inf], [-0.0, 0.5, 1.0]),
    "special-time": ([3, 50, 51, math.inf], [0.0, 2.0], [tau_special(1)]),
    "single-tau": ([2, math.inf], [0.5 * k for k in range(7)], [0.3]),
    "chunk-in-block": ([3, math.inf], [1.5], [0.00025 * k for k in range(4400)]),
    "blocks-after-boundary": (
        [2, 3, 6, math.inf],
        [0.5 + 0.5 * k for k in range(9)],
        [0.05 * k for k in range(126)],
    ),
    "pore-100": ([100], [0.5, 3.0, 10.0], [0.013 + 0.05 * k for k in range(126)]),
    "empty": ([3, math.inf], [1.0], []),
}
QUANTITIES = ["all", "correlations", "concurrence", "discord", "geometric_discord"]


@pytest.mark.parametrize("grid", sorted(WRITER_GRIDS))
@pytest.mark.parametrize("quantity", QUANTITIES)
def test_csv_matches_cell_by_cell_reference(grid, quantity):
    names, chunks = run_sweep(quantity, *WRITER_GRIDS[grid])
    values = sweep_columns(quantity, *WRITER_GRIDS[grid])[1]
    grid = _grid(*WRITER_GRIDS[grid])
    text = io.StringIO()
    _write_csv(names, chunks, grid, text)
    _assert_matches_reference(text.getvalue(), names, values, grid)


def _chunks(quantity, grid):
    # The rows of each CSV write after the header, as (first, end) pairs.
    names, chunks = run_sweep(quantity, *WRITER_GRIDS[grid])
    log = _WriteLog()
    _write_csv(names, chunks, _grid(*WRITER_GRIDS[grid]), log)
    ends = np.cumsum([text.count("\n") for text in log.writes[2:]])
    return list(zip([0, *ends[:-1]], ends))


def test_writer_grids_have_the_cases_they_name():
    # A chunk holds as many whole (N, beta) blocks as CSV_CHUNK_BYTES of value
    # cells allows, or a slice of one block: checked for the 1, 5 and 8 value
    # columns of every quantity.
    for quantity in QUANTITIES:
        # Blocks of 4,400 taus, each cut into several chunks.
        n_values, betas, taus = WRITER_GRIDS["chunk-in-block"]
        chunks = _chunks(quantity, "chunk-in-block")
        assert all(lo // len(taus) == (hi - 1) // len(taus) for lo, hi in chunks)
        assert len(chunks) > len(n_values) * len(betas)
        # Chunks of whole blocks, at least two, one of them from N into the
        # next N.
        n_values, betas, taus = WRITER_GRIDS["blocks-after-boundary"]
        chunks = _chunks(quantity, "blocks-after-boundary")
        assert all(lo % len(taus) == hi % len(taus) == 0 for lo, hi in chunks)
        assert min(hi - lo for lo, hi in chunks[:-1]) >= 2 * len(taus)
        n_rows = len(betas) * len(taus)
        assert any(lo // n_rows != (hi - 1) // n_rows for lo, hi in chunks)
    names, chunks = run_sweep("correlations", *WRITER_GRIDS["special-time"])
    text = io.StringIO()
    _write_csv(names, chunks, _grid(*WRITER_GRIDS["special-time"]), text)
    rows = [line.split(",") for line in text.getvalue().splitlines()[2:]]
    assert "-0" in [row[4 + names.index("u")] for row in rows]
    assert {row[2] for row in rows if row[1] == "0"} == {"inf"}
    names, values = sweep_columns("correlations", *WRITER_GRIDS["pore-100"])
    cells = np.abs(np.concatenate(values))
    assert cells[cells > 0].min() < 1e-200


# Cells Python formats itself (subnormals, |v| > 1e280, inf, nan, a 17-digit
# tie) beside the formatter's own extremes.  The grid puts every one of them
# in every column: as a beta, a T_K, a tau and a cell of both value columns.
_TINY, _HUGE = 5e-324, 1.7976931348623157e308
EXTREMES = [_TINY, -2.2250738585072014e-308, 1e-300, -1e-281, 1e-280, 1e280]
EXTREMES += [-1e281, 1e300, _HUGE, math.inf, -math.inf, math.nan, 0.0, -0.0]
EXTREMES += [1.0 + 2.0**-17, 0.5, 2.5, 1e23, 9.9999999999999999e-5, 1e16, 1e17]
EXTREME_GRID = ([2, 10**400], EXTREMES, EXTREMES[::-1], EXTREMES)
EXTREME_VALUES = [np.resize(col, 2 * len(EXTREMES) ** 2) for col in EXTREME_GRID[1:3]]


def test_csv_of_extreme_values_matches_reference():
    text = io.StringIO()
    _write_csv(["a", "b"], _whole(EXTREME_VALUES, EXTREME_GRID), EXTREME_GRID, text)
    _assert_matches_reference(text.getvalue(), ["a", "b"], EXTREME_VALUES, EXTREME_GRID)


@pytest.mark.parametrize("grid", ["edges", "single-tau"])
def test_engine_comparison_csv_matches_reference(grid):
    # The oracle needs finite N.
    n_values, betas, taus = WRITER_GRIDS[grid]
    n_values = [n for n in n_values if not math.isinf(n)]
    names, chunks = run_sweep("all", n_values, betas, taus, engine="both")
    values = sweep_columns("all", n_values, betas, taus, engine="both")[1]
    grid = _grid(n_values, betas, taus)
    text = io.StringIO()
    _write_csv(names, chunks, grid, text)
    _assert_matches_reference(text.getvalue(), names, values, grid)


def _one_dumps(names, values, grid, engine, omega0):
    # The whole document as one json.dumps call writes it.
    def safe(cells):
        return [v if isinstance(v, int) or math.isfinite(v) else str(v) for v in cells]

    doc = {
        "tool": "nanospin-qcorr",
        "version": __version__,
        "engine": engine,
        "grid": {
            "N": safe(grid[0]),
            "beta": safe(grid[1]),
            "tau": safe(grid[3]),
            "omega0": omega0,
        },
        "columns": AXES + names,
        "rows": [safe(row) for row in _rows(values, grid)],
    }
    return json.dumps(doc) + "\n"


@pytest.mark.parametrize(
    "grid, quantity",
    [(g, q) for g in sorted(WRITER_GRIDS) for q in ("all", "concurrence")]
    + [("extremes", None)],
)
def test_json_matches_one_dumps_of_the_document(grid, quantity):
    # The chunked writer gives the bytes of one json.dumps of the document:
    # on the empty grid, on non-finite axes and cells, and over many chunks.
    if grid == "extremes":
        names, values, grid = ["a", "b"], EXTREME_VALUES, EXTREME_GRID
    else:
        names, values = sweep_columns(quantity, *WRITER_GRIDS[grid])
        grid = _grid(*WRITER_GRIDS[grid])
    text = io.StringIO()
    _write_json(names, _whole(values, grid), grid, "analytic", 2e9, text)
    got, want = text.getvalue(), _one_dumps(names, values, grid, "analytic", 2e9)
    # Show where they part; a diff of the whole text is slow.
    same = got == want
    assert same, os.path.commonprefix([got, want])[-100:]


class _WriteLog:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_writes_hold_at_most_one_chunk():
    # Each write holds one chunk, at most CSV_CHUNK_BYTES of rows of the five
    # value columns.  One tau: every row its own block, rows blocks a chunk.
    # Two blocks of 2 rows + 3 taus: three slices of each.  Blocks of 7
    # taus: rows // 7 whole blocks a chunk.
    rows = cli.CSV_CHUNK_BYTES // (5 * CELL_BYTES)
    many = [0.001 * k for k in range(2 * rows + 5)]
    per = rows // 7
    for betas, taus, lines, writes in [
        (many, [0.3], rows, 3),
        ([0.5, 1.0], [0.001 * k for k in range(2 * rows + 3)], rows, 2 * 3),
        (many, [0.1 * k for k in range(7)], 7 * per, -(-len(many) // per)),
    ]:
        names, chunks = run_sweep("correlations", [2], betas, taus)
        values = sweep_columns("correlations", [2], betas, taus)[1]
        grid = _grid([2], betas, taus)
        log = _WriteLog()
        _write_csv(names, chunks, grid, log)
        assert max(text.count("\n") for text in log.writes) == lines
        assert len(log.writes) == 2 + writes
        _assert_matches_reference("".join(log.writes), names, values, grid)


@pytest.mark.parametrize("grid", sorted(WRITER_GRIDS) + ["extremes"])
def test_csv_bytes_do_not_depend_on_the_chunk_size(monkeypatch, grid):
    # The writers' CSV_CHUNK_BYTES and the grid walk's CHUNK_BYTES each for
    # one row a chunk, a chunk inside a block (a third of its taus), chunks
    # of two whole blocks and the default: the same CSV and JSON bytes, the
    # CSV cell by cell those of format(v, ".17g"), for the closed forms
    # (discord among them) and the engine comparison.  One row a chunk
    # takes near 1 ms a row: on the grids of thousands of rows only the
    # writers of the all and concurrence sweeps take one row a chunk.
    if grid == "extremes":
        cases = [(["a", "b"], EXTREME_VALUES, EXTREME_GRID, None)]
    else:
        axes = WRITER_GRIDS[grid]
        small = ([n for n in axes[0] if n <= 20], *axes[1:])  # the oracle's N
        sweeps = [(q, axes, "analytic") for q in ("all", "concurrence", "discord")]
        sweeps += [("all", small, "both")] if small[0] else []
        cases = [
            (*sweep_columns(q, *ax, engine=e), _grid(*ax), (q, ax, e))
            for q, ax, e in sweeps
        ]
    defaults = cli.CSV_CHUNK_BYTES, verification.CHUNK_BYTES
    for names, values, written, sweep in cases:
        n_tau = len(written[3])
        texts = []
        for rows in (1, max(1, n_tau // 3), 2 * n_tau + 1, None):
            # A piece of rows value cells; a chunk of rows at 1 KiB a row.
            sizes = (rows * len(names) * CELL_BYTES, rows << 10) if rows else defaults
            if rows == 1 and len(values[0]) > 1000:
                if sweep[0] == "discord" or sweep[2] == "both":
                    continue
                sizes = (sizes[0], defaults[1])
            monkeypatch.setattr(cli, "CSV_CHUNK_BYTES", sizes[0])
            monkeypatch.setattr(verification, "CHUNK_BYTES", sizes[1])
            if sweep is None:
                parts = _whole(values, written)
            else:
                q, ax, e = sweep
                parts = list(run_sweep(q, *ax, engine=e)[1])
            csv_text, json_text = io.StringIO(), io.StringIO()
            _write_csv(names, parts, written, csv_text)
            _write_json(names, parts, written, "analytic", 2e9, json_text)
            texts.append((csv_text.getvalue(), json_text.getvalue()))
        assert all(text == texts[-1] for text in texts)
        _assert_matches_reference(texts[-1][0], names, values, written)
        assert texts[-1][1] == _one_dumps(names, values, written, "analytic", 2e9)


def test_discord_sweep_clamps_rounding_below_zero(tmp_path):
    # At N = 2, beta = 5, tau = 0 the state is classical and mutual -
    # classical rounds to -2.8e-17; the column reads 0, not -0.
    argv = ["sweep", "--quantity", "discord", "--N", "2", "--beta-range", "5:5:1"]
    path = run_to_file(tmp_path, "clamp.csv", argv + ["--tau", "0"])
    assert path.read_text().splitlines()[2].split(",")[4] == "0"
    names, values = sweep_columns("discord", [2, 3, 6], [1.0, 3.0, 5.0, 7.0], [0.0])
    assert min(values[names.index("discord")]) == 0.0


@pytest.mark.parametrize(
    "n_values, engine, n_rows",
    [(["2", "3", "16"], "oracle", 36), (["2", "3"], "both", 24)],
    ids=["oracle", "both"],
)
def test_oracle_sweeps_clamp_discord_below_zero(tmp_path, n_values, engine, n_rows):
    # The oracle's discord rounds below 0 on these grids (to -5.6e-16);
    # every discord column is written clamped, the oracle's too, and
    # discord_diff is the difference of the two written cells.
    argv = ["sweep", "--quantity", "all", "--beta-range", "1:3:1", "--tau-range"]
    argv += ["0:1.5:0.5", "--engine", engine, "--N", *n_values]
    path = run_to_file(tmp_path, "oracle.csv", argv)
    header, *rows = path.read_text().splitlines()[1:]
    columns = header.split(",")
    cells = np.array([[float(c) for c in row.split(",")] for row in rows])
    discord = [columns.index(c) for c in ("discord", "discord_oracle") if c in columns]
    assert len(rows) == n_rows and discord
    assert cells[:, discord].min() == 0.0
    if engine == "both":
        diff = cells[:, columns.index("discord_diff")]
        assert np.array_equal(diff, cells[:, discord[0]] - cells[:, discord[1]])


def test_reused_parser_carries_no_state(tmp_path, capsys):
    # One process runs every kind of call in turn on one parser, and a call
    # after an error or --help writes what a first call writes.
    cli._build_parser.cache_clear()
    sweep = SWEEP_BASE + ["--quantity", "all", "--out"]
    verify = ["verify", "--N", "3", "--beta", "1", "--tau-points", "2"]
    assert main(sweep + [str(tmp_path / "first.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quantity", "bogus", "--N", "4", "--tau", "0"])
    assert exc.value.code == 2
    no_coupling = ["sweep", "--N", "4", "--beta-range", "1:1:1"]
    assert main(no_coupling + ["--time-range", "0:1:0.5"]) == 2
    capsys.readouterr()
    assert main(verify) == 0
    verified = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(sweep + [str(tmp_path / "again.csv")]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)

    # A fresh parser's runs of the same commands.
    cli._build_parser.cache_clear()
    assert main(verify) == 0
    assert capsys.readouterr().out == verified
    first = (tmp_path / "first.csv").read_bytes()
    assert (tmp_path / "again.csv").read_bytes() == first
    cli._build_parser.cache_clear()
    assert main(sweep + [str(tmp_path / "fresh.csv")]) == 0
    assert (tmp_path / "fresh.csv").read_bytes() == first


def test_help_reads_the_terminal_width_when_it_prints(monkeypatch, capsys):
    # The parser is built once, but each --help formats for the width the
    # terminal has when it prints.
    widths = {}
    for columns in ("50", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        widths[columns] = (len(lines), max(map(len, lines)))
    # The choice lists cannot break, so only the narrow help's length shows.
    assert widths["50"][0] > widths["160"][0]
    assert widths["50"][1] < widths["160"][1]
