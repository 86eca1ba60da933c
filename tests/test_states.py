import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    random_density4,
    random_qubit_density,
    reduced_first,
    von_neumann_entropy,
)
from nanospin_qcorr import (
    concurrence_numeric,
    discord_numeric,
    geometric_discord_generic,
)
from nanospin_qcorr.states import (
    ID2,
    InvalidStateError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    binary_entropy,
    bloch_data,
    check_density_matrix,
    expansion_coefficients,
    swap_qubits,
)


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z)
    for s in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(s @ s, ID2)
        assert abs(np.trace(s)) == 0.0


def test_check_density_matrix_accepts_valid(rng):
    rho = random_density4(rng)
    out = check_density_matrix(rho)
    assert out.dtype == complex


def test_check_density_matrix_rejects_bad_shape():
    with pytest.raises(InvalidStateError, match="shape"):
        check_density_matrix(np.eye(3) / 3.0)


def test_check_density_matrix_rejects_non_hermitian(rng):
    rho = random_density4(rng)
    rho[0, 1] += 1e-6
    with pytest.raises(InvalidStateError, match="Hermitian"):
        check_density_matrix(rho)


def test_check_density_matrix_rejects_wrong_trace(rng):
    with pytest.raises(InvalidStateError, match="trace"):
        check_density_matrix(1.01 * random_density4(rng))


def test_check_density_matrix_rejects_negative_eigenvalue():
    rho = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        check_density_matrix(rho)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "check",
    [
        check_density_matrix,
        discord_numeric,
        concurrence_numeric,
        geometric_discord_generic,
    ],
)
def test_non_finite_matrix_rejected(check, value):
    with pytest.raises(InvalidStateError, match="non-finite"):
        check(np.full((4, 4), value))


# reduced_first and von_neumann_entropy are the test suite's discord
# reference; the second qubit's reduced state is reduced_first of the swap.
def test_partial_traces_of_product(rng):
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    rho = np.kron(a, b)
    assert np.allclose(reduced_first(rho), a, atol=1e-15)
    assert np.allclose(reduced_first(swap_qubits(rho)), b, atol=1e-15)


def test_partial_traces_have_unit_trace(rng):
    rho = random_density4(rng)
    assert abs(np.trace(reduced_first(rho)) - 1.0) < 1e-14
    assert abs(np.trace(reduced_first(swap_qubits(rho))) - 1.0) < 1e-14


def test_swap_exchanges_factors(rng):
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    assert np.allclose(swap_qubits(np.kron(a, b)), np.kron(b, a), atol=1e-15)
    rho = random_density4(rng)
    assert np.allclose(swap_qubits(swap_qubits(rho)), rho)


def test_bloch_round_trip(rng):
    # Tight tolerance: the decomposition is a linear bijection.
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    for _ in range(50):
        rho = random_density4(rng)
        x, y, T = bloch_data(rho)
        back = np.eye(4, dtype=complex)
        for i, si in enumerate(paulis):
            back += x[i] * np.kron(si, ID2) + y[i] * np.kron(ID2, si)
            for j, sj in enumerate(paulis):
                back += T[i, j] * np.kron(si, sj)
        assert np.max(np.abs(back / 4.0 - rho)) < 1e-14


def test_bloch_of_maximally_mixed():
    x, y, T = bloch_data(np.eye(4) / 4.0)
    assert np.all(x == 0.0)
    assert np.all(y == 0.0)
    assert np.all(T == 0.0)


def test_bloch_of_product_state(rng):
    a = random_qubit_density(rng)
    b = random_qubit_density(rng)
    x, y, T = bloch_data(np.kron(a, b))
    # For a product state T factorizes into the outer product of locals.
    assert np.max(np.abs(T - np.outer(x, y))) < 1e-14


def test_expansion_coefficients_reconstruct(rng):
    ops = [ID2, PAULI_X / 2.0, PAULI_Y / 2.0, PAULI_Z / 2.0]
    rho = random_density4(rng)
    alpha = expansion_coefficients(rho)
    assert abs(alpha[0, 0] - 0.25) < 1e-15
    back = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            back += alpha[a, b] * np.kron(ops[a], ops[b])
    assert np.max(np.abs(back - rho)) < 1e-14


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_bounds(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0 + 1e-15
    assert abs(h - binary_entropy(1.0 - x)) < 1e-12


def test_binary_entropy_known_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15


def test_von_neumann_entropy_known_values():
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)

