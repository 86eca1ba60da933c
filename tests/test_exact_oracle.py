import math
import tracemalloc

import numpy as np
import pytest

from helpers import build_operators, dipolar_hamiltonian, site_operator
from nanospin_qcorr import (
    NanoporeParams,
    ResourceLimitError,
    concurrence_numeric,
    correlations,
    evolve,
    measure_correlations,
    partial_trace_pair,
    thermal_initial,
)
import nanospin_qcorr.exact_oracle as exact_oracle
from nanospin_qcorr.exact_oracle import (
    BYTE_BUDGET,
    DenseState,
    magnetizations,
    pair_gram,
    pair_state,
)
from nanospin_qcorr.states import ID2, PAULI_X, PAULI_Y, PAULI_Z


def comm(a, b):
    return a @ b - b @ a


def test_collective_spin_algebra():
    ops = build_operators(4)
    assert np.max(np.abs(comm(ops.ix, ops.iy) - 1j * ops.iz)) < 1e-13
    assert np.max(np.abs(comm(ops.iy, ops.iz) - 1j * ops.ix)) < 1e-13
    assert np.max(np.abs(comm(ops.iz, ops.i2))) < 1e-12
    assert np.max(np.abs(comm(ops.ix, ops.i2))) < 1e-13
    assert abs(np.trace(ops.ix)) < 1e-14
    assert abs(np.trace(ops.iy)) < 1e-14


def test_two_spin_magnetization_spectrum():
    ops = build_operators(2)
    eig = np.sort(np.linalg.eigvalsh(ops.iz))
    assert np.allclose(eig, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)
    assert np.array_equal(magnetizations(2), np.array([1.0, 0.0, 0.0, -1.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_magnetizations_match_popcount_loop(n):
    # The doubled popcount table equals n/2 - popcount(s), bit for bit.
    loop = np.array([n / 2.0 - bin(s).count("1") for s in range(2**n)])
    got = magnetizations(n)
    assert got.dtype == np.float64 and np.array_equal(got, loop)


def test_total_spin_spectrum():
    # Collective spin squared only takes j(j+1) values.
    ops = build_operators(5)
    eig = np.linalg.eigvalsh(ops.i2)
    allowed = np.array([j * (j + 1) for j in (0.5, 1.5, 2.5)])
    dist = np.min(np.abs(eig[:, None] - allowed[None, :]), axis=1)
    assert np.max(dist) < 1e-10


def test_site_operator_embedding():
    op = site_operator(PAULI_Z, 1, 3)
    expected = np.kron(ID2, np.kron(PAULI_Z, ID2))
    assert np.array_equal(op, expected)
    with pytest.raises(ValueError):
        site_operator(PAULI_Z, 3, 3)
    with pytest.raises(ValueError):
        site_operator(PAULI_Z, -1, 3)


def test_thermal_infinite_temperature():
    state = thermal_initial(4, 0.0)
    assert np.max(np.abs(state.matrix - np.eye(16) / 16.0)) == 0.0


def test_thermal_single_site_form():
    state = thermal_initial(1, 3.0)
    th = math.tanh(1.5)
    expected = 0.5 * (ID2 + th * PAULI_X)
    assert np.max(np.abs(state.matrix - expected)) < 1e-16


def test_thermal_matches_matrix_exponential():
    n, beta = 4, 2.5
    ops = build_operators(n)
    w, v = np.linalg.eigh(ops.ix)
    dense = (v * np.exp(beta * w)) @ v.conj().T
    dense /= np.trace(dense).real
    state = thermal_initial(n, beta)
    assert abs(np.trace(state.matrix).real - 1.0) < 1e-14
    assert np.max(np.abs(state.matrix - dense)) < 1e-12


def test_thermal_partition_function():
    # Product form fixes the normalization at (2 cosh(beta/2))**n.
    n, beta = 5, 1.7
    ops = build_operators(n)
    w = np.linalg.eigvalsh(ops.ix)
    z = float(np.sum(np.exp(beta * w)))
    assert z == pytest.approx((2.0 * math.cosh(beta / 2.0)) ** n, rel=1e-12)


def test_dense_state_validation():
    state = thermal_initial(3, 1.0)
    state.validate()
    broken = DenseState(3, state.matrix - 0.1 * np.eye(8))
    with pytest.raises(ValueError):
        broken.validate()


def test_evolution_is_unitary():
    state = thermal_initial(4, 2.0)
    out = evolve(state, 0.0)
    assert np.max(np.abs(out.matrix - state.matrix)) == 0.0
    fwd = evolve(state, 0.9)
    back = evolve(fwd, -0.9)
    assert np.max(np.abs(back.matrix - state.matrix)) < 1e-13
    assert abs(np.trace(fwd.matrix).real - 1.0) < 1e-13
    spec_in = np.sort(np.linalg.eigvalsh(state.matrix))
    spec_out = np.sort(np.linalg.eigvalsh(fwd.matrix))
    assert np.max(np.abs(spec_in - spec_out)) < 1e-12


def test_evolution_matches_full_hamiltonian():
    # Phase evolution must agree with exponentiating the dipolar generator;
    # the isotropic part commutes with the initial state and drops out.
    n, beta, tau = 4, 2.0, 0.9
    ops = build_operators(n)
    state = thermal_initial(n, beta)
    h = dipolar_hamiltonian(ops, coupling=1.0)
    w, v = np.linalg.eigh(h)
    t = tau / 1.5
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    dense = u @ state.matrix @ u.conj().T
    fast = evolve(state, tau)
    assert np.max(np.abs(fast.matrix - dense)) < 1e-12


def test_ladder_phase_identity():
    # Conjugating the raising operator yields a pure diagonal phase profile.
    n, tau = 4, 0.7
    ops = build_operators(n)
    plus = ops.ix + 1j * ops.iy
    m = magnetizations(n)
    phases = np.exp(-1j * tau * m * m)
    u = np.diag(phases)
    lhs = u @ plus @ u.conj().T
    rhs = np.diag(np.exp(-1j * tau * (2.0 * m - 1.0))) @ plus
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_partial_trace_of_product():
    a = np.diag([0.4, 0.6]).astype(complex)
    b = np.diag([0.1, 0.9]).astype(complex)
    c = np.diag([0.25, 0.75]).astype(complex)
    full = np.kron(a, np.kron(b, c))
    pair = partial_trace_pair(DenseState(3, full))
    assert np.max(np.abs(pair - np.kron(a, b))) < 1e-15


def test_partial_trace_requires_two_sites():
    with pytest.raises(ValueError):
        partial_trace_pair(thermal_initial(1, 1.0))


def test_thermal_pair_is_separable():
    pair = partial_trace_pair(thermal_initial(5, 4.0))
    assert concurrence_numeric(pair).concurrence == 0.0


def test_oracle_matches_analytic_correlators():
    n, beta, tau = 6, 3.0, 1.1
    corr = measure_correlations(evolve(thermal_initial(n, beta), tau))
    ref = correlations(NanoporeParams(n=n, beta=beta, tau=tau))
    for field in ("p", "q", "r", "u", "v"):
        assert getattr(corr, field) == pytest.approx(getattr(ref, field), abs=1e-12)


def test_time_zero_correlators():
    corr = measure_correlations(thermal_initial(5, 2.0))
    assert corr.u == pytest.approx(0.0, abs=1e-15)
    assert corr.r == pytest.approx(0.0, abs=1e-15)


def test_pair_exchange_guard():
    a = 0.5 * (ID2 + 0.6 * PAULI_X)
    b = 0.5 * (ID2 - 0.2 * PAULI_X)
    lopsided = DenseState(2, np.kron(a, b).astype(complex))
    with pytest.raises(ValueError, match="pair-exchange"):
        measure_correlations(lopsided)


def test_resource_limits():
    # Rejected from n alone, before the 4^n matrix (or the 2^n loop) exists.
    with pytest.raises(ResourceLimitError, match=r"n = 12 needs 20 \* 2\^24 bytes"):
        thermal_initial(12, 1.0)
    with pytest.raises(ResourceLimitError, match="n = 11 needs"):
        thermal_initial(11, 1.0)
    with pytest.raises(ResourceLimitError, match=f"n = 40 .* of {BYTE_BUDGET} bytes"):
        magnetizations(40)
    with pytest.raises(ResourceLimitError, match="n = 1000000000 needs"):
        magnetizations(10**9)
    with pytest.raises(ValueError):
        thermal_initial(0, 1.0)
    with pytest.raises(ValueError):
        thermal_initial(math.inf, 1.0)
    assert thermal_initial(10, 1.0).matrix.shape == (1024, 1024)


@pytest.mark.parametrize(
    "call, charged",
    [
        (lambda: thermal_initial(10, 1.0), 20 * 4**10),
        (lambda: pair_state(16, 1.0, 0.3), 40 * 2**16),
        # Two taus at n = 20 run as two one-tau blocks.
        (lambda: pair_gram(20, [0.5, 1.0]), 40 * 2**20),
    ],
    ids=["thermal_initial", "pair_state", "pair_gram"],
)
def test_budget_charges_the_measured_peak(call, charged):
    # The bytes the size check charges are what the call holds at its
    # peak, to within a few percent of fixed overhead.
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.95 * charged <= peak <= 1.05 * charged


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_state_matches_dense_engine(n):
    # The O(2^n) phase sum equals tracing the evolved 2^n x 2^n state,
    # including the odd half-periods where the model's parity split sits.
    taus = (0.0, 0.37, math.pi / 2.0, 2.2, math.pi, 3.0 * math.pi / 2.0, 5.9)
    g, c = pair_gram(n, taus)
    for beta in (0.0, 1.7, math.inf):
        rho0 = thermal_initial(n, beta)
        for k, tau in enumerate(taus):
            dense = partial_trace_pair(evolve(rho0, tau))
            assert np.max(np.abs(pair_state(n, beta, tau) - dense)) < 1e-13
            # One phase sum over every tau gives each point's state.
            from_block = thermal_initial(2, beta).matrix * g[k] / c
            assert np.array_equal(from_block, pair_state(n, beta, tau))


@pytest.mark.parametrize("n", [3, 9])
def test_pair_state_thermal_factor_matches_kronecker_form(n):
    # The two-spin factor is built without np.kron, from the same products.
    m = magnetizations(n)
    for beta in (0.0, 0.5, 3.0, math.inf):
        rho0 = thermal_initial(2, beta).matrix
        for tau in (0.0, 0.37, math.pi / 2.0, 2.2):
            ph = np.exp(-1j * tau * m * m).reshape(4, -1)
            want = rho0 * (ph @ ph.conj().T) / ph.shape[1]
            assert np.array_equal(pair_state(n, beta, tau), want)


def test_pair_state_resource_limits():
    with pytest.raises(ResourceLimitError, match=r"n = 21 needs 40 \* 2\^21 bytes"):
        pair_state(21, 1.0, 0.5)
    # An infinite N is out of the model's domain, not past a resource limit.
    with pytest.raises(ValueError, match="needs a finite N, got inf") as info:
        pair_state(math.inf, 1.0, 0.5)
    assert not isinstance(info.value, ResourceLimitError)
    with pytest.raises(ValueError, match="two spins"):
        pair_state(1, 1.0, 0.5)
    assert pair_state(20, 1.0, 0.5).shape == (4, 4)


@pytest.mark.parametrize("n", range(2, 13))
def test_pair_gram_over_taus_equals_one_tau_calls(n):
    # The batched phase sum, its exp once per magnetization level, is the
    # one-tau sum bit for bit, whatever the shape of the tau array.
    taus = np.array([0.0, 0.37, math.pi / 2.0, 2.2, math.pi, 5.9])
    g, c = pair_gram(n, taus)
    assert g.shape == (6, 4, 4) and c == 2 ** (n - 2)
    for k, tau in enumerate(taus):
        one, c_one = pair_gram(n, float(tau))
        assert one.shape == (4, 4) and c_one == c
        assert np.array_equal(g[k], one)
    assert np.array_equal(pair_gram(n, taus.reshape(2, 3))[0], g.reshape(2, 3, 4, 4))
    assert pair_gram(n, taus[:0])[0].shape == (0, 4, 4)


def test_pair_gram_blocks_change_no_bit(monkeypatch):
    # Blocks of two taus (a per-tau charge of half a block) give the phase
    # sums of one block over every tau, bit for bit.
    taus = np.linspace(0.0, 6.0, 7)
    whole = pair_gram(9, taus)
    block = exact_oracle._BLOCK_BYTES
    monkeypatch.setattr(exact_oracle, "_tau_bytes", lambda n: block // 2)
    blocked = pair_gram(9, taus)
    assert blocked[1] == whole[1] and np.array_equal(blocked[0], whole[0])
