"""The two-qubit primitives on stacks (..., 4, 4) equal their one-state calls.

Every comparison is bit for bit: a stacked call must be exactly the loop of
one-state calls it replaces, whatever the other states of the stack are.
"""

import math

import numpy as np
import pytest

from helpers import BELL_PHI_PLUS, random_cs, random_density4
from nanospin_qcorr.cs_matrix import cs_dense, cs_from_vector
from nanospin_qcorr.discord import discord_numeric_rows
from nanospin_qcorr.entanglement import concurrence_cs, concurrence_cs_rows
from nanospin_qcorr.exact_oracle import pair_correlations, pair_state
from nanospin_qcorr.geometric_discord import geometric_discord_generic
from nanospin_qcorr.nanopore import correlation_grid, cs_rows
from nanospin_qcorr.states import (
    ID2,
    PAULI_X,
    InvalidStateError,
    bloch_data,
    check_density_matrix,
    expansion_coefficients,
)


def pair_stack():
    grid = [(n, b, t) for n in (3, 8) for b in (0.5, 3.0) for t in (0.0, 0.9, 1.5)]
    return np.array([pair_state(*point) for point in grid])


def mixed_stack():
    """Random states of every rank, a Bell state, I/4 and pair states."""
    rng = np.random.default_rng(41)
    states = [random_density4(rng, rank) for rank in (4, 2, 1) for _ in range(3)]
    states += [BELL_PHI_PLUS, np.eye(4, dtype=complex) / 4.0]
    return np.concatenate([np.array(states), pair_stack()])


def param_rows():
    rng = np.random.default_rng(43)
    rows = [random_cs(rng, rank).params for rank in (4, 2, 1) for _ in range(4)]
    grid = correlation_grid([2, 3, 9, math.inf], [0.5, 3.0], [0.0, 0.7, math.pi])
    return np.concatenate([np.array(rows), cs_rows(grid)])


def assert_rows_equal(stacked, one_row_call, stack):
    for k, item in enumerate(stack):
        alone = one_row_call(item)
        if isinstance(stacked, tuple):
            for whole, part in zip(stacked, alone):
                assert np.array_equal(whole[k], part)
        else:
            assert np.array_equal(stacked[k], alone)


def test_bloch_data_stack():
    rhos = mixed_stack()
    x, y, T = bloch_data(rhos)
    assert x.shape == y.shape == (len(rhos), 3) and T.shape == (len(rhos), 3, 3)
    assert_rows_equal((x, y, T), bloch_data, rhos)
    # Any leading axes: the same numbers in the same places.
    x2, y2, T2 = bloch_data(rhos[:10].reshape(2, 5, 4, 4))
    assert np.array_equal(x2.reshape(10, 3), x[:10])
    assert np.array_equal(T2.reshape(10, 3, 3), T[:10])


def test_expansion_coefficients_stack():
    rhos = mixed_stack()
    assert_rows_equal(expansion_coefficients(rhos), expansion_coefficients, rhos)


def test_pair_correlations_stack():
    rhos = pair_stack()
    corr = pair_correlations(rhos)
    for f in "pqruv":
        assert getattr(corr, f).shape == (len(rhos),)
        for k, rho in enumerate(rhos):
            assert getattr(corr, f)[k] == getattr(pair_correlations(rho), f)


def test_pair_correlations_guard_covers_every_state():
    # One state breaking the pair exchange fails the stack.
    rhos = pair_stack()
    rhos[4] = np.kron(0.5 * (ID2 + 0.6 * PAULI_X), 0.5 * (ID2 - 0.2 * PAULI_X))
    with pytest.raises(ValueError, match="pair-exchange"):
        pair_correlations(rhos)


def test_geometric_discord_generic_stack():
    rhos = mixed_stack()
    values = geometric_discord_generic(rhos)
    assert values.shape == (len(rhos),)
    assert_rows_equal(values, geometric_discord_generic, rhos)
    one = geometric_discord_generic(rhos[0])
    assert np.ndim(one) == 0 and isinstance(one, float)


def test_cs_dense_rows():
    params = param_rows()
    mats = cs_dense(params)
    assert mats.shape == (len(params), 4, 4) and mats.dtype == complex
    assert_rows_equal(mats, lambda p: cs_from_vector(p).to_matrix(), params)


def test_concurrence_cs_rows():
    params = param_rows()
    conc = concurrence_cs_rows(params)
    assert conc.shape == (len(params),)
    one_row = lambda p: concurrence_cs(cs_from_vector(p)).concurrence  # noqa: E731
    assert_rows_equal(conc, one_row, params)


def test_bad_radicand_inside_a_stack_raises():
    params = param_rows()
    # (1/2 + p6 + p7)^2 - 4 (p2 + p4)^2 = 1/4 - 4 < 0, and L2 = -3/4: no
    # density matrix.
    params[len(params) // 2] = [0.25, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0]
    with pytest.raises(InvalidStateError, match="eigenvalue L2 = "):
        concurrence_cs_rows(params)


def test_check_density_matrix_accepts_stacks():
    rhos = mixed_stack()
    assert np.array_equal(check_density_matrix(rhos), rhos)
    two_axes = rhos[:22].reshape(2, 11, 4, 4)
    assert check_density_matrix(two_axes).shape == two_axes.shape
    assert check_density_matrix(np.empty((0, 4, 4))).shape == (0, 4, 4)


def _non_hermitian(rho):
    rho[0, 1] += 1e-6
    return rho


@pytest.mark.parametrize(
    "spoil",
    [
        _non_hermitian,
        lambda rho: 1.01 * rho,
        lambda rho: np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex),
        lambda rho: np.full((4, 4), np.nan),
    ],
    ids=["hermitian", "trace", "negative", "non-finite"],
)
def test_one_invalid_row_fails_the_stack_as_alone(spoil):
    rhos = mixed_stack()
    bad = spoil(rhos[7].copy())
    with pytest.raises(InvalidStateError) as alone:
        check_density_matrix(bad)
    rhos[7] = bad
    checks = (check_density_matrix, discord_numeric_rows, geometric_discord_generic)
    for check in checks:
        with pytest.raises(InvalidStateError) as stacked:
            check(rhos)
        assert str(stacked.value) == str(alone.value)


def test_stack_shape_is_checked():
    with pytest.raises(InvalidStateError, match="shape"):
        check_density_matrix(np.eye(3)[None] / 3.0)
