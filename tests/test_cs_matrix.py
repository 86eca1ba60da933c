import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    centrosymmetrize,
    cs_bloch,
    cs_from_matrix,
    is_centrosymmetric,
    random_cs,
    random_density4,
)
from nanospin_qcorr import (
    CorrelationSet,
    CSDensityMatrix,
    check_cs_rows,
    concurrence_cs,
    cs_from_correlations,
    cs_spectrum,
    geometric_discord_cs,
)
from nanospin_qcorr.cs_matrix import _cs_entries, cs_dense
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
    m = CSDensityMatrix(0.2, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
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
    rho = cs_dense(p)
    assert np.array_equal(rho, rho[::-1, ::-1])
    assert np.array_equal(rho, rho.conj().T)


@given(params_strategy)
def test_eigenvalue_sum_is_trace(p):
    evals = cs_spectrum(p)
    assert abs(sum(evals) - 1.0) < 1e-14


@given(params_strategy)
def test_eigenvalues_match_dense_solver_any_hermitian(p):
    # The closed form holds for every Hermitian member, PSD or not.
    dense = np.linalg.eigvalsh(cs_dense(p))
    assert np.max(np.abs(np.sort(cs_spectrum(p)) - dense)) < 1e-12


def test_eigenvalues_match_dense_solver_bulk(rng):
    # 10^4 valid draws against the dense Hermitian eigensolver.
    mats = []
    closed = []
    for _ in range(10_000):
        m = random_cs(rng)
        mats.append(m.to_matrix())
        closed.append(np.sort(cs_spectrum(m.params)))
    dense = np.linalg.eigvalsh(np.array(mats))
    worst = np.max(np.abs(np.array(closed) - dense))
    assert worst < 1e-12


def test_eigenvalues_are_spectrum_rows_bit_for_bit():
    # One state is the one-row case of the array form, to the last bit.
    # Squaring a numpy scalar rounds differently for a few rows in ten
    # thousand, so a length-7 vector must not take the scalar path.
    rows = np.random.default_rng(5).uniform(-0.5, 0.5, size=(20_000, 7))
    spectra = cs_spectrum(rows)
    assert spectra.shape == (20_000, 4)
    for k, p in enumerate(rows):
        one = cs_spectrum(p)
        assert one.shape == (4,) and one.tolist() == spectra[k].tolist()
    grid = cs_spectrum(rows.reshape(100, 200, 7))
    assert np.array_equal(grid, spectra.reshape(100, 200, 4))


def test_branch_sums():
    m = CSDensityMatrix(0.21, 0.02, -0.01, 0.03, 0.02, 0.04, 0.05)
    l1, l2, l3, l4 = cs_spectrum(m.params)
    assert l1 + l2 == pytest.approx(0.5 + m.p6 + m.p7, abs=1e-15)
    assert l3 + l4 == pytest.approx(0.5 - m.p6 - m.p7, abs=1e-15)
    assert l1 >= l2
    assert l3 >= l4


def test_eigenvalues_inner_coupling_example():
    # p7 = 2q with all off-diagonals except the inner coupling zero:
    # the spectrum is {1/4 + 2q, 1/4, 1/4, 1/4 - 2q}.
    q = 0.11
    m = CSDensityMatrix(0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0 * q)
    got = np.sort(cs_spectrum(m.params))
    expected = np.sort([0.25 + 2.0 * q, 0.25, 0.25, 0.25 - 2.0 * q])
    assert np.max(np.abs(got - expected)) < 1e-14
    dense = np.linalg.eigvalsh(m.to_matrix())
    assert np.max(np.abs(got - dense)) < 1e-14


def test_maximally_mixed():
    m = CSDensityMatrix(0.25, 0, 0, 0, 0, 0, 0)
    assert np.allclose(m.to_matrix(), np.eye(4) / 4.0)
    assert cs_spectrum(m.params).tolist() == [0.25, 0.25, 0.25, 0.25]
    assert check_cs_rows(m.params).tolist() == [[0.25, 0.25, 0.25, 0.25]]


def test_check_cs_rows_reports_violation():
    m = CSDensityMatrix(0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0)
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
}
_CS_ROW_MEASURES = {
    "concurrence_cs_rows": concurrence_cs_rows,
    "geometric_discord_rows": geometric_discord_rows,
    "discord_cs_rows": discord_cs_rows,
}


@pytest.mark.parametrize("measure", sorted(_CS_MEASURES))
def test_cs_measures_reject_a_non_state(measure):
    with pytest.raises(InvalidStateError, match="eigenvalue L4 = "):
        _CS_MEASURES[measure](CSDensityMatrix(*_NOT_A_STATE))


@pytest.mark.parametrize("measure", sorted(_CS_ROW_MEASURES))
@pytest.mark.parametrize("where", ["alone", "mid-stack"])
def test_cs_row_measures_reject_a_non_state(rng, measure, where):
    params = np.array([_NOT_A_STATE])
    if where == "mid-stack":
        params = np.array([random_cs(rng).params for _ in range(9)])
        params[4] = _NOT_A_STATE
    with pytest.raises(InvalidStateError, match="eigenvalue L4 = "):
        _CS_ROW_MEASURES[measure](params)


@pytest.mark.parametrize("measure", sorted(_CS_ROW_MEASURES))
@pytest.mark.parametrize("shape", [(7,), (1, 7), (0, 7), (2, 1, 7)], ids=str)
def test_cs_row_measures_take_any_stack_of_rows(rng, measure, shape):
    # Rows (..., 7) are flattened to (R, 7): one value per row, shape (R,).
    r = int(np.prod(shape[:-1]))
    rows = np.array([random_cs(rng).params for _ in range(r)]).reshape(r, 7)
    got, want = (_CS_ROW_MEASURES[measure](p) for p in (rows.reshape(shape), rows))
    got, want = (out if isinstance(out, tuple) else (out,) for out in (got, want))
    assert got[0].shape == (r,)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tolist() == w.tolist()


# Each entry point builds the CS state with p2 = bad (p = 2 bad for the
# correlator map) and the other parameters of a valid state.
_NON_FINITE_ENTRY_POINTS = {
    "CSDensityMatrix": lambda bad: CSDensityMatrix(0.25, bad, 0, 0, 0, 0.1, 0.1),
    "cs_from_correlations": lambda bad: cs_from_correlations(
        CorrelationSet(p=2.0 * bad, q=0.1, r=0.0, u=0.0)
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


def test_entries_are_cs_bloch_bit_for_bit(rng):
    # The seven shared entries against cs_bloch's placed entries and the
    # entries written out in p1..p7, for one vector and (R, 7), (2, 3, 7)
    # stacks; every other Bloch entry is +0.0.
    rows = np.array([random_cs(rng).params for _ in range(60)])
    for params in (rows[0], rows, rows[:6].reshape(2, 3, 7)):
        p1, p2, p3, p4, p5, p6, p7 = np.moveaxis(params, -1, 0)
        written = [
            4.0 * p4, 4.0 * p2, 2.0 * (p6 + p7),
            2.0 * (p7 - p6), -4.0 * p5, -4.0 * p3, 4.0 * p1 - 1.0,
        ]
        x, y, T = cs_bloch(params)
        placed = [x[..., 0], y[..., 0], T[..., 0, 0]]
        placed += [T[..., 1, 1], T[..., 1, 2], T[..., 2, 1], T[..., 2, 2]]
        for got, bloch, want in zip(_cs_entries(params), placed, written):
            assert got.tobytes() == np.asarray(bloch).tobytes() == want.tobytes()
        rest = np.concatenate(
            [x[..., 1:], y[..., 1:], T[..., 0, 1:], T[..., 1:, 0]], axis=-1
        )
        assert rest.tobytes() == np.zeros_like(rest).tobytes()


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
