import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import centrosymmetrize, random_cs, random_density4
from nanospin_qcorr import (
    CorrelationSet,
    bloch_decompose,
    cs_eigenvalues,
    cs_eigenvalues_sorted,
    cs_from_correlations,
    cs_from_json,
    cs_from_matrix,
    cs_from_params,
    cs_from_vector,
    cs_to_json,
    discord_cs,
    is_centrosymmetric,
    validate_density,
)
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
    assert np.max(np.abs(cs_eigenvalues_sorted(m) - dense)) < 1e-12


def test_eigenvalues_match_dense_solver_bulk(rng):
    # 10^4 valid draws against the dense Hermitian eigensolver.
    mats = []
    closed = []
    for _ in range(10_000):
        m = random_cs(rng)
        mats.append(m.to_matrix())
        closed.append(cs_eigenvalues_sorted(m))
    dense = np.linalg.eigvalsh(np.array(mats))
    worst = np.max(np.abs(np.array(closed) - dense))
    assert worst < 1e-12


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
    got = cs_eigenvalues_sorted(m)
    expected = np.sort([0.25 + 2.0 * q, 0.25, 0.25, 0.25 - 2.0 * q])
    assert np.max(np.abs(got - expected)) < 1e-14
    dense = np.linalg.eigvalsh(m.to_matrix())
    assert np.max(np.abs(got - dense)) < 1e-14


def test_maximally_mixed():
    m = cs_from_params(0.25, 0, 0, 0, 0, 0, 0)
    assert np.allclose(m.to_matrix(), np.eye(4) / 4.0)
    assert cs_eigenvalues(m) == (0.25, 0.25, 0.25, 0.25)
    assert validate_density(m).ok


def test_validate_density_reports_violation():
    m = cs_from_params(0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0)
    report = validate_density(m)
    assert not report.ok
    assert not bool(report)
    assert any("L4" in v for v in report.violations)


# Each entry point builds the CS state with p2 = bad (p = 2 bad for the
# correlator map) and the other parameters of a valid state.
_NON_FINITE_ENTRY_POINTS = {
    "cs_from_params": lambda bad: cs_from_params(0.25, bad, 0, 0, 0, 0.1, 0.1),
    "cs_from_vector": lambda bad: cs_from_vector([0.25, bad, 0, 0, 0, 0.1, 0.1]),
    "cs_from_json": lambda bad: cs_from_json({"p": [0.25, bad, 0, 0, 0, 0.1, 0.1]}),
    "cs_from_correlations": lambda bad: cs_from_correlations(
        CorrelationSet(p=2.0 * bad, q=0.1, r=0.0, u=0.0)
    ),
    "discord_cs": lambda bad: discord_cs(
        cs_from_params(0.25, bad, 0, 0, 0, 0.1, 0.1)
    ),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", sorted(_NON_FINITE_ENTRY_POINTS))
def test_non_finite_parameters_rejected(entry, bad):
    with pytest.raises(InvalidStateError, match="non-finite"):
        _NON_FINITE_ENTRY_POINTS[entry](bad)


def test_validate_density_tolerance_override():
    m = cs_from_params(0.25, 0.0, 0.0, 0.0, 0.0, 0.25 + 5e-9, 0.0)
    assert not validate_density(m).ok
    assert validate_density(m, eps_psd=1e-7).ok


def test_bloch_decompose_matches_generic(rng):
    for _ in range(30):
        m = random_cs(rng)
        dec = bloch_decompose(m)
        x, y, T = bloch_data(m.to_matrix())
        assert np.max(np.abs(dec.x - x)) < 1e-14
        assert np.max(np.abs(dec.y - y)) < 1e-14
        assert np.max(np.abs(dec.T - T)) < 1e-14


def test_bloch_decompose_structure(rng):
    dec = bloch_decompose(random_cs(rng))
    # Local vectors lie along x; T couples only the yz sector off-diagonally.
    assert dec.x[1] == dec.x[2] == 0.0
    assert dec.y[1] == dec.y[2] == 0.0
    assert dec.T[0, 1] == dec.T[0, 2] == dec.T[1, 0] == dec.T[2, 0] == 0.0


def test_json_round_trip(rng):
    m = random_cs(rng)
    doc = cs_to_json(m)
    assert set(doc) == {"p"}
    assert len(doc["p"]) == 7
    assert cs_from_json(doc) == m


def test_from_vector_rejects_bad_shape():
    with pytest.raises(ValueError, match="7"):
        cs_from_vector([0.25, 0.0])


def test_from_matrix_round_trip(rng):
    m = random_cs(rng)
    assert cs_from_matrix(m.to_matrix()) == m


def test_from_matrix_rejects_non_centrosymmetric(rng):
    while True:
        rho = random_density4(rng)
        if not is_centrosymmetric(rho, tol=1e-3):
            break
    with pytest.raises(InvalidStateError, match="centrosymmetric"):
        cs_from_matrix(rho)


def test_from_matrix_rejects_non_hermitian(rng):
    rho = centrosymmetrize(random_density4(rng)).astype(complex)
    rho[0, 1] += 0.01j
    rho[3, 2] += 0.01j  # keep centrosymmetry, break Hermiticity
    with pytest.raises(InvalidStateError, match="Hermitian"):
        cs_from_matrix(rho)


def test_is_centrosymmetric(rng):
    assert is_centrosymmetric(random_cs(rng).to_matrix())
    assert not is_centrosymmetric(np.diag([0.5, 0.3, 0.1, 0.1]))
