import inspect
import io
import json
import math
import subprocess
import sys

import pytest

from nanospin_qcorr import __version__, cli
from nanospin_qcorr.cli import (
    CSV_CHUNK_ROWS,
    MAX_SWEEP_ROWS,
    _write_csv,
    _write_json,
    main,
    run_sweep,
)
from nanospin_qcorr.nanopore import OMEGA0_DEFAULT, tau_special
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
    columns, table = run_sweep(
        "all", [4], [1.0, 2.0, 3.0], [0.0, 0.5, 1.0], engine="analytic"
    )
    assert lines[1].split(",") == columns
    assert len(lines[2:]) == len(table[0]) == 9
    for text_row, row in zip(lines[2:], zip(*table)):
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
    columns, table = run_sweep(
        "all", [4], [1.0, 2.0, 3.0], [0.0, 0.5, 1.0], engine="analytic"
    )
    assert doc["columns"] == columns
    assert len(doc["rows"]) == len(table[0]) == 9
    for json_row, row in zip(doc["rows"], zip(*table)):
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
    # Each range is within MAX_RANGE_POINTS; their product is not.
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


def test_empty_grid_gives_no_rows():
    columns, table = run_sweep("all", [3, math.inf], [1.0], [])
    assert columns[:4] == ["N", "beta", "T_K", "tau"]
    assert len(table) == len(columns)
    assert all(len(col) == 0 for col in table)
    text = io.StringIO()
    _write_csv(columns, table, 0, text)
    assert text.getvalue().splitlines()[1:] == [",".join(columns)]
    text = io.StringIO()
    axes = {"N": [3, math.inf], "beta": [1.0], "tau": []}
    _write_json(columns, table, "analytic", axes, OMEGA0_DEFAULT, text)
    assert json.loads(text.getvalue())["rows"] == []


def test_small_pore_rejected(capsys):
    rc = main(["sweep", "--N", "1", "--beta-range", "1:1:1", "--tau", "0"])
    assert rc == 2
    assert "n must be >= 2, got 1" in capsys.readouterr().err


def test_time_range_needs_coupling(capsys):
    rc = main(
        ["sweep", "--N", "4", "--beta-range", "1:1:1", "--time-range", "0:1:0.5"]
    )
    assert rc == 2
    assert "--coupling" in capsys.readouterr().err


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
            "--skip-discord",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "checked" in out
    assert "ok" in out
    assert "FAIL" not in out


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
            "--skip-discord",
            "--inject-corruption",
            "1e-6",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out
    assert "verification FAILED" in captured.err
    assert "correlations" in captured.err


def test_verify_rejects_infinite_pore(capsys):
    rc = main(["verify", "--N", "inf", "--skip-discord"])
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
    # 2 x 2 x 1100 rows span two writer chunks; each per-N sweep fits in one.
    grid = ["--beta-range", "1:2:1", "--tau-range", "0:1.099:0.001"]
    assert 2 * 1100 <= CSV_CHUNK_ROWS < 2 * 2 * 1100
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


def _assert_matches_reference(text, columns, table):
    # The writer cell by cell: str for N, format(v, ".17g") for the rest.
    lines = [f"# nanospin-qcorr v{__version__}", ",".join(columns)]
    for n, *values in zip(*table):
        lines.append(",".join([str(n)] + [format(float(v), ".17g") for v in values]))
    same = text == "".join(line + "\n" for line in lines)
    # Name the first differing line; a diff of the whole text is slow.
    got = text.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), None)
    assert same, (len(got), len(lines), first, first is not None and got[first])


# Grids the writer treats differently: signed zeros, N = inf, T_K = inf
# (beta 0) and T_K = 0 (beta inf), one tau, a chunk boundary inside an
# (N, beta) block, and a chunk that starts inside a block and holds whole
# blocks after it (1,134 rows per N, 126 taus).
WRITER_GRIDS = {
    "edges": ([2, 3, math.inf], [0.0, 1.0, math.inf], [-0.0, 0.5, 1.0]),
    "special-time": ([3, 50, 51, math.inf], [0.0, 2.0], [tau_special(1)]),
    "single-tau": ([2, math.inf], [0.5 * k for k in range(7)], [0.3]),
    "chunk-in-block": ([3, math.inf], [1.0, 2.0], [0.001 * k for k in range(1100)]),
    "blocks-after-boundary": (
        [2, 3, 6, math.inf],
        [0.5 + 0.5 * k for k in range(9)],
        [0.05 * k for k in range(126)],
    ),
}


@pytest.mark.parametrize("grid", sorted(WRITER_GRIDS))
@pytest.mark.parametrize(
    "quantity", ["all", "correlations", "concurrence", "discord", "geometric_discord"]
)
def test_csv_matches_cell_by_cell_reference(grid, quantity):
    n_values, betas, taus = WRITER_GRIDS[grid]
    columns, table = run_sweep(quantity, n_values, betas, taus)
    text = io.StringIO()
    _write_csv(columns, table, len(taus), text)
    _assert_matches_reference(text.getvalue(), columns, table)


def test_writer_grids_have_the_cases_they_name():
    _, _, taus = WRITER_GRIDS["chunk-in-block"]
    assert 2 * len(taus) < CSV_CHUNK_ROWS < 4 * len(taus)
    assert CSV_CHUNK_ROWS % len(taus) != 0
    n_values, betas, taus = WRITER_GRIDS["blocks-after-boundary"]
    assert CSV_CHUNK_ROWS % len(taus) != 0
    rows = len(n_values) * len(betas) * len(taus)
    assert CSV_CHUNK_ROWS + 2 * len(taus) < rows < 2 * CSV_CHUNK_ROWS
    columns, table = run_sweep("correlations", *WRITER_GRIDS["special-time"])
    text = io.StringIO()
    _write_csv(columns, table, 1, text)
    rows = [line.split(",") for line in text.getvalue().splitlines()[2:]]
    assert "-0" in [row[columns.index("u")] for row in rows]
    assert {row[2] for row in rows if row[1] == "0"} == {"inf"}


@pytest.mark.parametrize("grid", ["edges", "single-tau"])
def test_engine_comparison_csv_matches_reference(grid):
    # The oracle needs finite N.
    n_values, betas, taus = WRITER_GRIDS[grid]
    n_values = [n for n in n_values if not math.isinf(n)]
    columns, table = run_sweep("all", n_values, betas, taus, engine="both")
    text = io.StringIO()
    _write_csv(columns, table, len(taus), text)
    _assert_matches_reference(text.getvalue(), columns, table)


class _WriteLog:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_writes_hold_at_most_one_chunk():
    # One tau, so every row is its own (N, beta) block.
    betas = [0.001 * k for k in range(2 * CSV_CHUNK_ROWS + 5)]
    columns, table = run_sweep("correlations", [2], betas, [0.3])
    log = _WriteLog()
    _write_csv(columns, table, 1, log)
    assert max(text.count("\n") for text in log.writes) == CSV_CHUNK_ROWS
    assert len(log.writes) == 2 + 3
    _assert_matches_reference("".join(log.writes), columns, table)
