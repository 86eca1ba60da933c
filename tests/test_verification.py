import math
import re

import numpy as np
import pytest

import nanospin_qcorr.cli as cli
import nanospin_qcorr.exact_oracle as exact_oracle
import nanospin_qcorr.verification as verification
from nanospin_qcorr import (
    DEFAULT_TOLERANCES,
    ResourceLimitError,
    VerificationReport,
    format_report,
    run_verification,
)
from nanospin_qcorr.exact_oracle import pair_state


def test_small_grid_passes():
    report = run_verification(n_values=(2, 3), betas=(1.0,), n_tau=4)
    assert report.ok
    assert report.failures == ()
    assert report.states_checked == 8
    assert set(report.max_discrepancies) == set(DEFAULT_TOLERANCES)
    assert report.max_discrepancies["correlations"] < 1e-12
    assert report.max_discrepancies["discord"] < 1e-8


def test_skip_discord_drops_key():
    report = run_verification(
        n_values=(3,), betas=(0.5,), n_tau=2, include_discord=False
    )
    assert "discord" not in report.max_discrepancies
    assert report.ok


def test_corruption_is_detected():
    report = run_verification(
        n_values=(3,), betas=(1.0,), n_tau=4, include_discord=False, corruption=1e-6
    )
    assert not report.ok
    assert "correlations" in report.failures
    assert "reduced_matrix" in report.failures
    assert report.max_discrepancies["correlations"] >= 1e-6


def test_corruption_below_tolerance_passes():
    report = run_verification(
        n_values=(3,), betas=(1.0,), n_tau=2, include_discord=False, corruption=1e-12
    )
    assert report.ok


@pytest.mark.parametrize(
    "grid",
    [
        dict(n_values=(3,), betas=(1.0,), n_tau=0),
        dict(n_values=(), betas=(1.0,), n_tau=2),
        dict(n_values=(3,), betas=(), n_tau=2),
    ],
)
def test_empty_grid_is_rejected(grid):
    with pytest.raises(ValueError, match="at least one"):
        run_verification(include_discord=False, **grid)


def test_format_report_lines():
    report = run_verification(
        n_values=(3,), betas=(1.0,), n_tau=2, include_discord=False
    )
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "checked 2 states"
    assert any(line.startswith("correlations: max |diff| = ") for line in lines)
    for name, (n, beta, tau) in report.worst_at.items():
        assert f"{name}: " in text
        assert f" at N={n}, beta={beta:g}, tau={tau:.4f} (" in text
    assert all(line.endswith(" ok") for line in lines[1:])
    assert "FAIL" not in text


def test_format_report_marks_failure():
    report = VerificationReport(
        max_discrepancies={"concurrence": 1.0},
        tolerances={"concurrence": 1e-10},
        states_checked=1,
    )
    text = format_report(report)
    assert "FAIL" in text
    assert not report.ok


def test_worst_discrepancy_is_located():
    grid = dict(n_tau=3, include_discord=False)
    report = run_verification(n_values=(3, 4), betas=(1.0, 2.0), **grid)
    assert report.worst_at
    taus = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    for name, (n, beta, tau) in report.worst_at.items():
        assert tau in taus
        # The (n, beta) slice holding the worst state reproduces it.
        part = run_verification(n_values=(n,), betas=(beta,), **grid)
        assert part.max_discrepancies[name] == report.max_discrepancies[name]
        assert part.worst_at[name] == (n, beta, tau)


def test_report_without_locations_formats():
    report = VerificationReport(
        max_discrepancies={"concurrence": 0.0},
        tolerances={"concurrence": 1e-10},
        states_checked=1,
    )
    assert format_report(report).splitlines()[1] == (
        "concurrence: max |diff| = 0.000e+00 (tolerance 1e-10) ok"
    )


@pytest.fixture
def counted(monkeypatch):
    """Count phase sums (pair states) and closed-form grids as they are built."""
    counts = {"pair_gram": 0, "correlation_grid": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(verification, "pair_gram")
    counting(verification, "correlation_grid")
    counting(cli, "correlation_grid")
    return counts


def test_over_budget_n_fails_before_any_work(counted, capsys):
    message = "n = 40 needs 40 * 2^40 bytes, more than the budget of 67108864 bytes"
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        run_verification(n_values=(10, 40), betas=(1.0, 2.0, 3.0, 4.0), n_tau=64)
    argv = ["--N", "10", "40", "--beta-range", "1:4:1", "--tau-range", "0:6:0.1"]
    for engine in ("oracle", "both"):
        assert cli.main(["sweep", *argv, "--engine", engine]) == 2
    verify = ["verify", "--N", "10", "40", "--beta", "1", "2", "--tau-points", "64"]
    assert cli.main(verify) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}"] * 3
    assert counted == {"pair_gram": 0, "correlation_grid": 0}


def test_infinite_n_fails_before_any_work(counted, capsys):
    # The oracle's own check: a ValueError naming N, not a resource limit.
    message = "the oracle needs a finite N, got inf"
    with pytest.raises(ValueError, match=message) as info:
        run_verification(n_values=(3, math.inf), betas=(1.0,), n_tau=4)
    assert not isinstance(info.value, ResourceLimitError)
    argv = ["--N", "3", "inf", "--beta-range", "1:2:1", "--tau", "0.5"]
    for engine in ("oracle", "both"):
        assert cli.main(["sweep", *argv, "--engine", engine]) == 2
    assert cli.main(["verify", "--N", "3", "inf", "--tau-points", "4"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"] * 3
    assert counted == {"pair_gram": 0, "correlation_grid": 0}


def test_grid_past_the_dense_size_passes():
    # n = 16 and 20 lie past what the 4^n engine can hold; the pair oracle
    # checks the closed forms there, where cos_power runs in log space.
    report = run_verification(n_values=(16, 20), betas=(1.0, 3.0), n_tau=4)
    assert report.tolerances == DEFAULT_TOLERANCES
    assert report.ok, format_report(report)
    assert report.states_checked == 16


def test_chunked_grid_matches_one_chunk(monkeypatch, counted):
    # Both sides line up across chunk boundaries: five-point chunks give the
    # report of a single chunk, state for state.
    grid = dict(n_values=(3, 4), betas=(1.0, 2.5), n_tau=3)
    whole = run_verification(**grid)
    monkeypatch.setattr(verification, "STATE_CHUNK", 5)
    chunked = run_verification(**grid)
    assert chunked == whole
    assert chunked.states_checked == 12
    # One phase sum per n, over its three taus, serves both betas.
    assert counted["pair_gram"] == 4


@pytest.mark.parametrize("tau_block", [None, 2, "parts"])
def test_pair_states_equal_per_point_pair_states(monkeypatch, tau_block):
    # One pair_gram call per n serves every beta, its taus in blocks of as
    # many as a block's bytes hold (one at n = 20, or two when patched);
    # past a part of G's that the budget holds (patched to four taus), each
    # beta takes its parts.  Either way, and across chunk boundaries, the
    # chunks hold the per-point pair_state results bit for bit.
    monkeypatch.setattr(verification, "STATE_CHUNK", 7)
    if tau_block == 2:
        block = exact_oracle._BLOCK_BYTES
        monkeypatch.setattr(exact_oracle, "_tau_bytes", lambda n: block // tau_block)
    elif tau_block == "parts":
        monkeypatch.setattr(verification, "BYTE_BUDGET", 4 * 256)
    calls = []
    gram = verification.pair_gram
    monkeypatch.setattr(
        verification, "pair_gram", lambda n, t: calls.append(len(t)) or gram(n, t)
    )
    # Two-tau blocks at n = 20 would hold more than the real budget.
    n_values, betas = (3, 9, 16 if tau_block == 2 else 20), (0.0, math.inf)
    taus = (0.0, 0.37, math.pi / 2.0, 2.2, math.pi, 5.9)
    chunks = list(verification.pair_states(n_values, betas, taus))
    points = [p for part, _ in chunks for p in part]
    assert points == [(n, b, t) for n in n_values for b in betas for t in taus]
    assert all(len(part) == len(rhos) <= 7 for part, rhos in chunks)
    rhos = np.concatenate([rhos for _, rhos in chunks])
    for point, rho in zip(points, rhos):
        assert np.array_equal(rho, pair_state(*point))
    per_n = [4, 2] * len(betas) if tau_block == "parts" else [6]
    assert calls == per_n * len(n_values)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_corruption_fails_before_any_work(counted, capsys, value):
    with pytest.raises(ValueError, match=f"corruption must be finite, got {value}"):
        run_verification(n_values=(3,), betas=(1.0,), n_tau=4, corruption=value)
    argv = ["verify", "--N", "3", "--tau-points", "4"]
    assert cli.main([*argv, f"--inject-corruption={value}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --inject-corruption must be finite, got {value}"]
    assert counted == {"pair_gram": 0, "correlation_grid": 0}
