import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    centrosymmetrize,
    cs_from_matrix,
    is_centrosymmetric,
    random_cs,
    random_density4,
)
from nanospin_qcorr import (
    CorrelationSet,
    check_cs_rows,
    concurrence_cs,
    cs_bloch,
    cs_eigenvalues,
    cs_from_correlations,
    cs_from_params,
    cs_from_vector,
    cs_spectrum,
    discord_cs,
    geometric_discord_cs,
)
from nanospin_qcorr.discord import discord_cs_rows
from nanospin_qcorr.entanglement import concurrence_cs_rows
from nanospin_qcorr.geometric_discord import geometric_discord_rows
from nanospin_qcorr.states import InvalidStateError, bloch_data

params_strategy = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=7,
    max_size=7,
)


def test_matrix_layout():
    m = cs_from_params(0.2, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
    rho = m.to_matrix()
    assert rho[0, 0] == 0.2
    assert rho[1, 1] == rho[2, 2] == pytest.approx(0.3)
    assert rho[3, 3] == 0.2
    assert rho[0, 1] == 0.01 + 0.02j
    assert rho[0, 2] == 0.03 + 0.04j
    assert rho[0, 3] == 0.05
    assert rho[1, 2] == 0.06
    assert abs(rho.trace() - 1.0) < 1e-15


@given(params_strategy)
def test_centrosymmetry_exact(p):
    # Holds structurally for any parameter vector, valid state or not.
    rho = cs_from_vector(p).to_matrix()
    assert np.array_equal(rho, rho[::-1, ::-1])
    assert np.array_equal(rho, rho.conj().T)


@given(params_strategy)
def test_eigenvalue_sum_is_trace(p):
    evals = cs_eigenvalues(cs_from_vector(p))
    assert abs(sum(evals) - 1.0) < 1e-14


@given(params_strategy)
def test_eigenvalues_match_dense_solver_any_hermitian(p):
    # The closed form holds for every Hermitian member, PSD or not.
    m = cs_from_vector(p)
    dense = np.linalg.eigvalsh(m.to_matrix())
    assert np.max(np.abs(np.sort(cs_eigenvalues(m)) - dense)) < 1e-12


def test_eigenvalues_match_dense_solver_bulk(rng):
    # 10^4 valid draws against the dense Hermitian eigensolver.
    mats = []
    closed = []
    for _ in range(10_000):
        m = random_cs(rng)
        mats.append(m.to_matrix())
        closed.append(np.sort(cs_eigenvalues(m)))
    dense = np.linalg.eigvalsh(np.array(mats))
    worst = np.max(np.abs(np.array(closed) - dense))
    assert worst < 1e-12


def test_eigenvalues_are_spectrum_rows_bit_for_bit():
    # One state is the one-row case of the array form, to the last bit.
    # Squaring a numpy scalar rounds differently for a few rows in ten
    # thousand, so a length-7 vector must not take the scalar path.
    rows = np.random.default_rng(5).uniform(-0.5, 0.5, size=(20_000, 7))
    spectra = cs_spectrum(rows)
    for k, p in enumerate(rows):
        assert cs_eigenvalues(cs_from_vector(p)) == tuple(spectra[k].tolist())


def test_branch_sums():
    m = cs_from_params(0.21, 0.02, -0.01, 0.03, 0.02, 0.04, 0.05)
    l1, l2, l3, l4 = cs_eigenvalues(m)
    assert l1 + l2 == pytest.approx(0.5 + m.p6 + m.p7, abs=1e-15)
    assert l3 + l4 == pytest.approx(0.5 - m.p6 - m.p7, abs=1e-15)
    assert l1 >= l2
    assert l3 >= l4


def test_eigenvalues_inner_coupling_example():
    # p7 = 2q with all off-diagonals except the inner coupling zero:
    # the spectrum is {1/4 + 2q, 1/4, 1/4, 1/4 - 2q}.
    q = 0.11
    m = cs_from_params(0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0 * q)
    got = np.sort(cs_eigenvalues(m))
    expected = np.sort([0.25 + 2.0 * q, 0.25, 0.25, 0.25 - 2.0 * q])
    assert np.max(np.abs(got - expected)) < 1e-14
    dense = np.linalg.eigvalsh(m.to_matrix())
    assert np.max(np.abs(got - dense)) < 1e-14


def test_maximally_mixed():
    m = cs_from_params(0.25, 0, 0, 0, 0, 0, 0)
    assert np.allclose(m.to_matrix(), np.eye(4) / 4.0)
    assert cs_eigenvalues(m) == (0.25, 0.25, 0.25, 0.25)
    assert check_cs_rows(m.params).tolist() == [[0.25, 0.25, 0.25, 0.25]]


def test_check_cs_rows_reports_violation():
    m = cs_from_params(0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0)
    with pytest.raises(InvalidStateError) as err:
        check_cs_rows(m.params)
    assert str(err.value) == (
        "not a density matrix: eigenvalue L4 = -1.500000e-01 < -1e-10"
    )


# L4 = 1/4 - 0.4 = -0.15: a finite parameter row that is no density matrix.
_NOT_A_STATE = (0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0)

_CS_MEASURES = {
    "concurrence_cs": concurrence_cs,
    "geometric_discord_cs": geometric_discord_cs,
    "discord_cs": discord_cs,
}
_CS_ROW_MEASURES = {
    "concurrence_cs_rows": concurrence_cs_rows,
    "geometric_discord_rows": geometric_discord_rows,
    "discord_cs_rows": discord_cs_rows,
}


@pytest.mark.parametrize("measure", sorted(_CS_MEASURES))
def test_cs_measures_reject_a_non_state(measure):
    with pytest.raises(InvalidStateError, match="eigenvalue L4 = "):
        _CS_MEASURES[measure](cs_from_params(*_NOT_A_STATE))


@pytest.mark.parametrize("measure", sorted(_CS_ROW_MEASURES))
@pytest.mark.parametrize("where", ["alone", "mid-stack"])
def test_cs_row_measures_reject_a_non_state(rng, measure, where):
    params = np.array([_NOT_A_STATE])
    if where == "mid-stack":
        params = np.array([random_cs(rng).params for _ in range(9)])
        params[4] = _NOT_A_STATE
    with pytest.raises(InvalidStateError, match="eigenvalue L4 = "):
        _CS_ROW_MEASURES[measure](params)


# Each entry point builds the CS state with p2 = bad (p = 2 bad for the
# correlator map) and the other parameters of a valid state.
_NON_FINITE_ENTRY_POINTS = {
    "cs_from_params": lambda bad: cs_from_params(0.25, bad, 0, 0, 0, 0.1, 0.1),
    "cs_from_vector": lambda bad: cs_from_vector([0.25, bad, 0, 0, 0, 0.1, 0.1]),
    "cs_from_correlations": lambda bad: cs_from_correlations(
        CorrelationSet(p=2.0 * bad, q=0.1, r=0.0, u=0.0)
    ),
    "discord_cs": lambda bad: discord_cs(
        cs_from_params(0.25, bad, 0, 0, 0, 0.1, 0.1)
    ),
    "concurrence_cs_rows": lambda bad: concurrence_cs_rows(
        np.array([[0.25, bad, 0, 0, 0, 0.1, 0.1]])
    ),
    "geometric_discord_rows": lambda bad: geometric_discord_rows(
        np.array([[0.25, bad, 0, 0, 0, 0.1, 0.1]])
    ),
    "discord_cs_rows": lambda bad: discord_cs_rows(
        np.array([[0.25, bad, 0, 0, 0, 0.1, 0.1]])
    ),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", sorted(_NON_FINITE_ENTRY_POINTS))
def test_non_finite_parameters_rejected(entry, bad):
    with pytest.raises(InvalidStateError, match="non-finite"):
        _NON_FINITE_ENTRY_POINTS[entry](bad)


def test_bloch_decompose_matches_generic(rng):
    for _ in range(30):
        m = random_cs(rng)
        closed = cs_bloch(m.params)
        for got, dense in zip(closed, bloch_data(m.to_matrix())):
            assert np.max(np.abs(got - dense)) < 1e-14


def test_bloch_decompose_structure(rng):
    x, y, T = cs_bloch(random_cs(rng).params)
    # Local vectors lie along x; T couples only the yz sector off-diagonally.
    assert x[1] == x[2] == 0.0
    assert y[1] == y[2] == 0.0
    assert T[0, 1] == T[0, 2] == T[1, 0] == T[2, 0] == 0.0


def test_from_vector_rejects_bad_shape():
    with pytest.raises(ValueError, match="7"):
        cs_from_vector([0.25, 0.0])


def test_from_matrix_round_trip(rng):
    m = random_cs(rng)
    assert cs_from_matrix(m.to_matrix()) == m


# cs_from_matrix and is_centrosymmetric are the test suite's references
# (random_cs is built on them); their rejections are checked here.
def test_from_matrix_rejects_non_centrosymmetric(rng):
    while True:
        rho = random_density4(rng)
        if not is_centrosymmetric(rho, tol=1e-3):
            break
    with pytest.raises(AssertionError, match="residual"):
        cs_from_matrix(rho)


def test_from_matrix_rejects_non_hermitian(rng):
    rho = centrosymmetrize(random_density4(rng)).astype(complex)
    rho[0, 1] += 0.01j
    rho[3, 2] += 0.01j  # keep centrosymmetry, break Hermiticity
    with pytest.raises(AssertionError, match="residual"):
        cs_from_matrix(rho)


def test_is_centrosymmetric(rng):
    assert is_centrosymmetric(random_cs(rng).to_matrix())
    assert not is_centrosymmetric(np.diag([0.5, 0.3, 0.1, 0.1]))
