import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

import nanospin_qcorr
import nanospin_qcorr.cli as cli
import nanospin_qcorr.discord as discord
import nanospin_qcorr.exact_oracle as exact_oracle
import nanospin_qcorr.verification as verification
from nanospin_qcorr import (
    DEFAULT_TOLERANCES,
    InvalidStateError,
    ResourceLimitError,
    VerificationReport,
    format_report,
    run_verification,
)
from nanospin_qcorr.discord import discord_numeric_rows
from nanospin_qcorr.entanglement import concurrence_numeric_rows
from nanospin_qcorr.nanopore import correlation_grid


def test_small_grid_passes():
    report = run_verification(n_values=(2, 3), betas=(1.0,), n_tau=4)
    assert report.ok
    assert report.failures == ()
    assert report.states_checked == 8
    assert set(report.max_discrepancies) == set(DEFAULT_TOLERANCES)
    assert report.max_discrepancies["correlations"] < 1e-12
    assert report.max_discrepancies["discord"] < 1e-8


def test_corruption_is_detected():
    report = run_verification(n_values=(3,), betas=(1.0,), n_tau=4, corruption=1e-6)
    assert not report.ok
    assert "correlations" in report.failures
    assert "reduced_matrix" in report.failures
    assert report.max_discrepancies["correlations"] >= 1e-6


def test_corruption_below_tolerance_passes():
    report = run_verification(n_values=(3,), betas=(1.0,), n_tau=2, corruption=1e-12)
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
        run_verification(**grid)


def test_format_report_lines():
    report = run_verification(n_values=(3,), betas=(1.0,), n_tau=2)
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


def test_worst_discrepancy_is_located(monkeypatch):
    # Five-state chunks: the 12 states' worst rows are located across chunks.
    monkeypatch.setattr(exact_oracle, "STATE_CHUNK", 5)
    grid = dict(n_tau=3)
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


def test_diffs_compare_every_tolerance():
    # One chunk: one array over its rows per quantity, and no tolerance
    # without a comparison (it would read 0.0 and ok forever).
    n_values, betas, taus = (3, 8), (0.5, 3.0), [0.3, 1.1, 2.0]
    (rhos,) = exact_oracle.pair_states(n_values, betas, taus)
    diffs = verification._diffs(correlation_grid(n_values, betas, taus), rhos)
    assert diffs.keys() == DEFAULT_TOLERANCES.keys()
    for name, diff in diffs.items():
        assert isinstance(diff, np.ndarray) and diff.shape == (12,), name
        assert (diff <= DEFAULT_TOLERANCES[name]).all(), name


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

    counting(exact_oracle, "pair_gram")
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
    monkeypatch.setattr(exact_oracle, "STATE_CHUNK", 5)
    chunked = run_verification(**grid)
    assert chunked == whole
    assert chunked.states_checked == 12
    # One phase sum per n, over its three taus, serves both betas.
    assert counted["pair_gram"] == 4


@pytest.mark.parametrize("column", ["geometric_discord", "discord"])
def test_analytic_rows_reject_a_row_that_is_not_a_state(column):
    # Each CS measure checks its own rows: one bad row fails the chunk.
    corr = correlation_grid((3,), (1.0,), [0.0, 0.5, 1.0])
    corr = replace(corr, q=corr.q + np.array([0.0, 0.5, 0.0]))
    with pytest.raises(InvalidStateError, match="not a density matrix"):
        verification.analytic_rows(corr, (column,))
    assert len(verification.analytic_rows(corr, ("q", "concurrence"))["q"]) == 3


def test_an_invalid_row_without_corruption_still_raises(monkeypatch):
    # Only an offset's invalid rows count as a failed comparison: with no
    # offset, a closed-form row that is no state is an error.
    def bad_grid(*axes):
        corr = correlation_grid(*axes)
        return replace(corr, q=corr.q + 0.5)

    monkeypatch.setattr(verification, "correlation_grid", bad_grid)
    with pytest.raises(InvalidStateError, match="not a density matrix"):
        run_verification(n_values=(3,), betas=(1.0,), n_tau=2)
    report = run_verification(n_values=(3,), betas=(1.0,), n_tau=2, corruption=1e-9)
    assert report.max_discrepancies == dict.fromkeys(DEFAULT_TOLERANCES, math.inf)
    assert report.failures == tuple(DEFAULT_TOLERANCES)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, -1e308])
def test_non_finite_corruption_fails_before_any_work(counted, capsys, value):
    # An offset near the float maximum would overflow in the closed forms.
    message = f"corruption must lie in [-1, 1], got {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_verification(n_values=(3,), betas=(1.0,), n_tau=4, corruption=value)
    argv = ["verify", "--N", "3", "--tau-points", "4"]
    assert cli.main([*argv, f"--inject-corruption={value}"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert counted == {"pair_gram": 0, "correlation_grid": 0}


def test_dense_grid_discord_agrees_to_rounding():
    # The dense search's first pass is the axes, T's right singular vectors
    # and the great circles through them; on the benchmark's dense grid the
    # two discord sides meet far inside verify's 1e-10.
    report = run_verification(n_values=(8, 9, 10), betas=(0.5, 3.0), n_tau=16)
    assert report.ok, format_report(report)
    assert report.max_discrepancies["discord"] < 1e-12


def _package_calls(fn, *args):
    # (module file, name, first line) of each package function that
    # fn(*args) calls, outside verification.py.
    root = os.path.dirname(nanospin_qcorr.__file__)
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            name = os.path.basename(code.co_filename)
            seen.add((name, code.co_name, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return {call for call in seen if call[0] != "verification.py"}


def test_verify_sides_share_no_function():
    # The closed forms and the oracle meet only in verification.py: no
    # entropy, kernel or check of one side runs on the other.  The grid
    # holds N = 2 and refined CS rows.
    grid = ((2, 3, 8), (0.5, 3.0), [0.0, 0.3, 1.1, 2.0])
    corr = correlation_grid(*grid)
    (rhos,) = exact_oracle.pair_states(*grid)
    needed = DEFAULT_TOLERANCES
    model = _package_calls(verification.analytic_rows, corr, needed)
    ref = _package_calls(verification.oracle_rows, rhos, needed)
    assert ("discord.py", "_eta") in {call[:2] for call in model}
    assert ("states.py", "entropy_bits") in {call[:2] for call in ref}
    assert model & ref == set()


def test_wrong_entropy_units_fail_discord(monkeypatch):
    # The sphere search's entropies in nats: the closed form's own _eta
    # entropies do not follow, so discord alone fails.  (Five taus: four
    # would be 0, pi/2, pi and 3 pi/2, where the discord is about 0.)
    bits = discord.entropy_bits
    monkeypatch.setattr(discord, "entropy_bits", lambda w: bits(w) * math.log(2.0))
    report = run_verification(n_values=(3, 8), betas=(0.5, 3.0), n_tau=5)
    assert report.failures == ("discord",)
    assert report.max_discrepancies["discord"] > 1e-2


def test_wrong_eta_fails_discord(monkeypatch):
    # A 0.1% error in the closed form's _eta, which gives both its entropies
    # and its objective, scales its discord by 1.001.
    eta = discord._eta
    monkeypatch.setattr(discord, "_eta", lambda z: 1.001 * eta(z))
    report = run_verification(n_values=(3, 8), betas=(0.5, 3.0), n_tau=5)
    assert report.failures == ("discord",)
    assert report.max_discrepancies["discord"] > 1e-5


def test_oracle_rows_decompose_each_stack_once(monkeypatch):
    # The density check's eigh gives the discord's entropies and the
    # concurrence's spin flip; no other eigensolver sees a 4x4 stack.
    rhos, *_ = exact_oracle.pair_states((3, 8), (0.5, 3.0), [0.3, 1.1, 2.0])
    needed = ("concurrence", "geometric_discord", "discord")
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)[-1]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    counting("eigh")
    counting("eigvalsh")
    out = verification.oracle_rows(rhos, needed)
    assert [call for call in calls if call[1] == 4] == [("eigh", 4)]
    monkeypatch.undo()
    assert np.array_equal(out["concurrence"], concurrence_numeric_rows(rhos))
    mutual, classical, _ = discord_numeric_rows(rhos)
    assert np.allclose(out["discord"], mutual - classical, rtol=0.0, atol=1e-14)


def test_oracle_rows_reject_a_stack_that_is_not_a_state():
    rhos, *_ = exact_oracle.pair_states((3,), (1.0,), [0.3, 1.1])
    bad = rhos.copy()
    bad[1] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        verification.oracle_rows(bad, ("concurrence", "discord"))
    with pytest.raises(ValueError, match="expected a 4x4 matrix"):
        verification.oracle_rows(rhos[:, :3, :3], ("discord",))
