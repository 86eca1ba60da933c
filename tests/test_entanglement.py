import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    BELL_PHI_PLUS,
    BLOCK_ROTATION,
    cs_block_diagonalize,
    is_centrosymmetric,
    numeric_batch,
    random_cs,
    spin_flip,
)
from nanospin_qcorr import (
    CSDensityMatrix,
    NanoporeParams,
    concurrence_cs,
    concurrence_numeric,
    cs_spectrum,
    entanglement_of_formation,
    reduced_density,
)
from nanospin_qcorr.entanglement import concurrence_numeric_rows
from nanospin_qcorr.exact_oracle import evolve, partial_trace_pair, thermal_initial
from nanospin_qcorr.states import InvalidStateError


def thermal_qubit(beta):
    th = math.tanh(beta / 2.0)
    return np.array([[0.5, 0.5 * th], [0.5 * th, 0.5]], dtype=complex)


def test_spin_flip_fixes_bell_state():
    assert np.max(np.abs(spin_flip(BELL_PHI_PLUS) - BELL_PHI_PLUS)) < 1e-15


def test_spin_flip_is_involutive(rng):
    m = random_cs(rng).to_matrix()
    assert np.max(np.abs(spin_flip(spin_flip(m)) - m)) == 0.0


def test_spin_flip_preserves_centrosymmetry(rng):
    # Claimed without proof in the source material; verified, not assumed.
    for _ in range(50):
        m = random_cs(rng).to_matrix()
        assert is_centrosymmetric(spin_flip(m), tol=1e-15)
        assert is_centrosymmetric(m @ spin_flip(m), tol=1e-13)


def test_bell_state_concurrence():
    res = concurrence_numeric(BELL_PHI_PLUS)
    assert res.concurrence == pytest.approx(1.0, abs=1e-12)
    assert res.eof == pytest.approx(1.0, abs=1e-12)


def test_separable_thermal_product_is_exactly_zero():
    for ba, bb in [(0.0, 0.0), (1.0, 2.0), (5.0, 0.3)]:
        rho = np.kron(thermal_qubit(ba), thermal_qubit(bb))
        assert concurrence_numeric(rho).concurrence == 0.0


def test_werner_family_both_routes():
    # w |Bell><Bell| + (1 - w) I/4 has concurrence max(0, (3w - 1)/2).
    for w in np.linspace(0.0, 1.0, 21):
        rho = w * BELL_PHI_PLUS + (1.0 - w) * np.eye(4) / 4.0
        expected = max(0.0, (3.0 * w - 1.0) / 2.0)
        c_num = concurrence_numeric(rho).concurrence
        assert c_num == pytest.approx(expected, abs=1e-10)
        m = CSDensityMatrix(rho[0, 0].real, 0, 0, 0, 0, rho[0, 3].real, rho[1, 2].real)
        assert concurrence_cs(m).concurrence == pytest.approx(expected, abs=1e-12)


def test_closed_form_matches_numeric(rng):
    worst = 0.0
    for _ in range(2000):
        m = random_cs(rng)
        diff = abs(
            concurrence_cs(m).concurrence
            - concurrence_numeric(m.to_matrix(), validate=False).concurrence
        )
        worst = max(worst, diff)
    assert worst < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_numeric_matches_closed_form_on_pure_pair_states(n):
    # At beta = inf the n-spin state is pure and its pair states are often
    # rank deficient; the numeric route must keep full precision there.
    for tau in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        rho = partial_trace_pair(evolve(thermal_initial(n, math.inf), tau))
        m = reduced_density(NanoporeParams(n=n, beta=math.inf, tau=tau))
        diff = concurrence_numeric(rho).concurrence - concurrence_cs(m).concurrence
        assert abs(diff) < 1e-12


def test_numeric_rows_equal_one_row_calls_bit_for_bit():
    # One batched eigensolver and SVD give each row what it gets alone: states
    # of ranks 4, 2 and 1, a Bell state, I/4 and pair states at n = 3, 8, 9.
    rhos = numeric_batch()
    one = [concurrence_numeric(rho, validate=False).concurrence for rho in rhos]
    assert np.array_equal(concurrence_numeric_rows(rhos), np.array(one))
    assert concurrence_numeric_rows(np.empty((0, 4, 4))).shape == (0,)


def test_lambdas_descending(rng):
    for _ in range(200):
        lam = concurrence_cs(random_cs(rng)).lambdas
        assert all(lam[i] >= lam[i + 1] for i in range(3))
        assert all(v >= 0.0 for v in lam)


def test_result_consistency(rng):
    res = concurrence_cs(random_cs(rng))
    assert res.eof == entanglement_of_formation(res.concurrence)


def test_invalid_parameters_raise():
    # Large symmetric off-diagonals drive a difference-of-squares radicand
    # far negative and L2 = 1/4 - 0.6 below zero: an invalid state, not
    # rounding noise.
    m = CSDensityMatrix(0.25, 0.3, 0.0, 0.3, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidStateError, match="eigenvalue L2 = -3.500000e-01"):
        concurrence_cs(m)


def test_radicand_noise_is_clamped():
    # A pure Bell state sits exactly on the radicand boundary.
    m = CSDensityMatrix(0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
    res = concurrence_cs(m)
    assert res.concurrence == pytest.approx(1.0, abs=1e-12)


def test_eof_endpoints_and_monotonicity():
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(1.0) == pytest.approx(1.0, abs=1e-15)
    grid = np.linspace(0.0, 1.0, 1000)
    values = [entanglement_of_formation(c) for c in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


@given(st.floats(min_value=0.0, max_value=1.0))
def test_eof_bounds(c):
    e = entanglement_of_formation(c)
    assert 0.0 <= e <= 1.0 + 1e-15


def test_block_rotation_is_orthogonal_involution():
    s = BLOCK_ROTATION
    assert np.max(np.abs(s - s.T)) == 0.0
    assert np.max(np.abs(s @ s - np.eye(4))) < 1e-15


def test_block_diagonalize_maximally_mixed():
    m = CSDensityMatrix(0.25, 0, 0, 0, 0, 0, 0)
    b1, b2 = cs_block_diagonalize(m)
    assert np.allclose(b1, np.eye(2) / 4.0)
    assert np.allclose(b2, np.eye(2) / 4.0)


def test_block_spectra_match_closed_form(rng):
    for _ in range(100):
        m = random_cs(rng)
        b1, b2 = cs_block_diagonalize(m)
        l1, l2, l3, l4 = cs_spectrum(m.params)
        ev1 = np.linalg.eigvalsh(b1)
        ev2 = np.linalg.eigvalsh(b2)
        assert np.max(np.abs(ev1 - np.sort([l1, l2]))) < 1e-12
        assert np.max(np.abs(ev2 - np.sort([l3, l4]))) < 1e-12


def test_blocks_of_real_matrix_are_real(rng):
    for _ in range(50):
        m = random_cs(rng)
        real_m = CSDensityMatrix(m.p1, m.p2, 0.0, m.p4, 0.0, m.p6, m.p7)
        b1, b2 = cs_block_diagonalize(real_m)
        assert np.max(np.abs(b1.imag)) == 0.0
        assert np.max(np.abs(b2.imag)) == 0.0


def test_closed_form_sum_identities(rng):
    # The two sum-of-squares identities behind the closed-form lambdas,
    # evaluated independently on both sides.
    for _ in range(500):
        p = random_cs(rng)
        lhs1 = 2.0 * ((p.p1 + p.p6) ** 2 + (0.5 - p.p1 + p.p7) ** 2)
        rhs1 = (2.0 * p.p1 + p.p6 - 0.5 - p.p7) ** 2 + (0.5 + p.p6 + p.p7) ** 2
        lhs2 = 2.0 * ((p.p1 - p.p6) ** 2 + (0.5 - p.p1 - p.p7) ** 2)
        rhs2 = (2.0 * p.p1 - p.p6 - 0.5 + p.p7) ** 2 + (0.5 - p.p6 - p.p7) ** 2
        assert abs(lhs1 - rhs1) < 1e-13
        assert abs(lhs2 - rhs2) < 1e-13
