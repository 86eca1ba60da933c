import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import BELL_PHI_PLUS, random_cs, random_qubit_density
from nanospin_qcorr import (
    NanoporeParams,
    check_cs_rows,
    cs_bloch,
    cs_from_params,
    discord_high_t_asymptotic,
    geometric_discord_cs,
    geometric_discord_generic,
    geometric_discord_high_t_asymptotic,
    reduced_density,
)
from nanospin_qcorr.geometric_discord import geometric_discord_rows, k_spectrum_rows
from nanospin_qcorr.nanopore import correlation_grid, cs_rows
from nanospin_qcorr.states import InvalidStateError, swap_qubits


def test_maximally_mixed_is_zero():
    m = cs_from_params(0.25, 0, 0, 0, 0, 0, 0)
    assert geometric_discord_cs(m) == 0.0
    assert geometric_discord_generic(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-15)


def test_product_states_have_zero_geometric_discord(rng):
    for _ in range(20):
        rho = np.kron(random_qubit_density(rng), random_qubit_density(rng))
        assert abs(geometric_discord_generic(rho)) < 1e-12


def test_bell_state_value():
    # ||T||^2 = 3, x = 0, k_max = 1, so (3 - 1)/2 = 1 in this normalization.
    assert geometric_discord_generic(BELL_PHI_PLUS) == pytest.approx(1.0, abs=1e-12)


def test_k_spectrum_matches_dense_eigensolver(rng):
    for _ in range(300):
        m = random_cs(rng)
        ks = k_spectrum_rows(m.params[None])[0]
        x, _, T = cs_bloch(m.params)
        dense = np.linalg.eigvalsh(np.outer(x, x) + T @ T.T)
        assert np.max(np.abs(np.sort(ks) - dense)) < 1e-12
        assert min(ks) >= -1e-12
        norm2 = float(x @ x) + float(np.sum(T * T))
        assert abs(ks.sum() - norm2) < 1e-12


def test_closed_form_matches_generic_bulk(rng):
    worst = 0.0
    for _ in range(10_000):
        m = random_cs(rng)
        diff = abs(
            geometric_discord_cs(m)
            - geometric_discord_generic(m.to_matrix(), validate=False)
        )
        worst = max(worst, diff)
    assert worst < 1e-11


def test_cancellation_fallback_branch(rng):
    # Equal yz-block diagonal entries force the compensated-summation path.
    m = cs_from_params(0.25, 0.0, 0.05, 0.0, 0.05, 0.01, 0.01)
    ks = k_spectrum_rows(m.params[None])[0]
    x, _, T = cs_bloch(m.params)
    dense = np.linalg.eigvalsh(np.outer(x, x) + T @ T.T)
    assert np.max(np.abs(np.sort(ks) - dense)) < 1e-13


def test_nanopore_identity_large_pore():
    for beta in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
        m = reduced_density(NanoporeParams(n=math.inf, beta=beta, tau=0.4))
        expected = math.tanh(beta / 2.0) ** 4 / 8.0
        assert abs(geometric_discord_cs(m) - expected) < 1e-12


def test_nanopore_finite_n_closed_vs_generic():
    for n, beta, tau in [(2, 1.0, 0.3), (5, 3.0, 1.2), (9, 10.0, 2.5)]:
        m = reduced_density(NanoporeParams(n=n, beta=beta, tau=tau))
        got = geometric_discord_cs(m)
        ref = geometric_discord_generic(m.to_matrix())
        assert abs(got - ref) < 1e-12


def test_zero_temperature_saturation():
    m = reduced_density(NanoporeParams(n=math.inf, beta=math.inf, tau=0.0))
    assert geometric_discord_cs(m) == pytest.approx(0.125, abs=1e-15)


def test_high_t_asymptotic():
    assert geometric_discord_high_t_asymptotic(0.0) == 0.0
    exact = math.tanh(0.05) ** 4 / 8.0
    rel = abs(geometric_discord_high_t_asymptotic(0.1) - exact) / exact
    assert rel < 0.005
    # At beta = 1 the asymptote overshoots the exact value noticeably;
    # that marks the boundary of its regime.
    exact1 = math.tanh(0.5) ** 4 / 8.0
    assert geometric_discord_high_t_asymptotic(1.0) > exact1 * 1.2


def test_asymptotes_differ_by_log_two():
    for beta in (0.01, 0.05, 0.1, 0.5):
        ratio = geometric_discord_high_t_asymptotic(beta) / discord_high_t_asymptotic(
            beta
        )
        assert ratio == pytest.approx(math.log(2.0), rel=1e-14)


def test_side_selection():
    # Symmetric state: both sides agree.
    m = reduced_density(NanoporeParams(n=6, beta=2.0, tau=0.8))
    # The second qubit is measured as the first of the swapped state.
    rho = m.to_matrix()
    assert geometric_discord_generic(rho) == pytest.approx(
        geometric_discord_generic(swap_qubits(rho)), abs=1e-14
    )
    # When the axial correlation dominates, the local vector cancels out
    # of the spectrum and both sides agree even for p2 != p4; to see the
    # sides differ the transverse block must carry the top eigenvalue.
    asym = cs_from_params(0.1, 0.08, 0.1, -0.03, 0.05, 0.0, 0.0)
    r = asym.to_matrix()
    q_first = geometric_discord_generic(r)
    q_second = geometric_discord_generic(swap_qubits(r))
    assert abs(q_first - q_second) > 0.01
    # Local-vector norms explain the whole gap in this regime.
    assert q_first - q_second == pytest.approx(
        8.0 * ((-0.03) ** 2 - 0.08**2), abs=1e-12
    )


def test_non_psd_input_rejected():
    bad = np.diag([0.7, 0.4, 0.0, -0.1]).astype(complex)
    with pytest.raises(InvalidStateError):
        geometric_discord_generic(bad)


def test_one_state_equals_its_batched_row(rng):
    # The last state has equal yz-block diagonal entries, so its row takes
    # the compensated-summation path inside the batch.
    states = [random_cs(rng) for _ in range(200)]
    states.append(cs_from_params(0.25, 0.0, 0.05, 0.0, 0.05, 0.01, 0.01))
    params = np.array([m.params for m in states])
    batched = geometric_discord_rows(params)
    spectra = k_spectrum_rows(params)
    for k, m in enumerate(states):
        assert geometric_discord_cs(m).hex() == float(batched[k]).hex()
        one = k_spectrum_rows(m.params[None])[0]
        assert one.tolist() == spectra[k].tolist()


def exact_when_k1_largest(params):
    """Exact geometric discord (a + b) / 2 of a CS row whose k1 is largest.

    Rational arithmetic on the row's float parameters; None when k1 is not
    K's largest eigenvalue, k1 >= k2 = (a + b) / 2 + sqrt(((a - b) / 2)^2 + c^2).
    """
    p1, _, p3, p4, p5, p6, p7 = (Fraction(float(v)) for v in params)
    k1 = 16 * p4 * p4 + 4 * (p6 + p7) ** 2
    a = 4 * (p7 - p6) ** 2 + 16 * p5 * p5
    b = 16 * p3 * p3 + (4 * p1 - 1) ** 2
    c = -8 * p3 * (p7 - p6) - 4 * p5 * (4 * p1 - 1)
    gap = k1 - (a + b) / 2
    if gap < 0 or gap * gap < ((a - b) / 2) ** 2 + c * c:
        return None
    return (a + b) / 2


def assert_within_ulps(got, exact, ulps=4):
    assert abs(Fraction(float(got)) - exact) <= ulps * Fraction(math.ulp(exact))


def test_k1_largest_rows_need_no_subtraction():
    # A sweep row where k1 dominates: subtracting k_max from the trace cost
    # it 1.3e-15 relative; the exact value is 0.06185346681370843(5).
    params = cs_rows(correlation_grid([6], [5.26767863801948], [0.24113945956779359]))
    exact = exact_when_k1_largest(params[0])
    assert exact is not None
    assert_within_ulps(geometric_discord_rows(params)[0], exact)

    rng = np.random.default_rng(41)
    rows = np.array([random_cs(rng).params for _ in range(400)])
    exact = [exact_when_k1_largest(p) for p in rows]
    picked = [k for k, e in enumerate(exact) if e is not None]
    assert len(picked) >= 50
    got = geometric_discord_rows(rows[picked])
    for k, value in zip(picked, got):
        assert_within_ulps(value, exact[k])


def test_singular_yz_block_has_exact_zero_k3():
    # p3 = 0 and p6 = p7 make the yz block of K singular: its smaller
    # eigenvalue is exactly zero, never a rounding residue below it.
    rng = np.random.default_rng(3)
    params = np.zeros((50, 7))
    params[:, 0] = rng.uniform(0.0, 0.5, 50)
    params[:, 3:5] = rng.uniform(-0.1, 0.1, (50, 2))
    params[:, 5] = params[:, 6] = rng.uniform(-0.05, 0.05, 50)
    assert np.all(k_spectrum_rows(params)[:, 2] == 0.0)
    states = np.array([_is_state(row) for row in params])
    assert states.sum() == 46
    assert np.all(geometric_discord_rows(params[states]) >= 0.0)
    for row in params[~states]:
        with pytest.raises(InvalidStateError, match="not a density matrix"):
            geometric_discord_rows(row[None])


def _is_state(row) -> bool:
    try:
        check_cs_rows(row)
    except InvalidStateError:
        return False
    return True
