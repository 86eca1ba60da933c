import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nanospin_qcorr import (
    CorrelationSet,
    NanoporeParams,
    beta_from_temperature,
    check_cs_rows,
    concurrence_cs,
    concurrence_nanopore,
    correlations,
    cs_from_correlations,
    reduced_density,
    special_time_correlations,
    tau_special,
    temperature_from_beta,
)
from nanospin_qcorr.nanopore import (
    HBAR,
    K_BOLTZMANN,
    OMEGA0_DEFAULT,
    check_axes,
    concurrence_rows,
    correlation_grid,
    cos_power,
    cs_rows,
)
from nanospin_qcorr.states import swap_qubits

finite_params = st.tuples(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=-7.0, max_value=7.0),
)


def test_params_validation():
    NanoporeParams(n=2, beta=0.0, tau=0.0)
    NanoporeParams(n=math.inf, beta=math.inf, tau=1.0)
    with pytest.raises(ValueError, match="n must be"):
        NanoporeParams(n=1, beta=1.0, tau=0.0)
    with pytest.raises(ValueError, match="n must be"):
        NanoporeParams(n=2.5, beta=1.0, tau=0.0)
    # Only +inf is the large-reservoir limit.
    with pytest.raises(ValueError, match="n must be an integer or inf, got -inf"):
        NanoporeParams(n=-math.inf, beta=1.0, tau=0.0)
    with pytest.raises(ValueError, match="n must be an integer or inf, got nan"):
        NanoporeParams(n=math.nan, beta=1.0, tau=0.0)
    with pytest.raises(ValueError, match="beta"):
        NanoporeParams(n=4, beta=-0.1, tau=0.0)
    with pytest.raises(ValueError, match="beta"):
        NanoporeParams(n=4, beta=math.nan, tau=0.0)
    with pytest.raises(ValueError, match="omega0"):
        NanoporeParams(n=4, beta=1.0, tau=0.0, omega0=0.0)


def test_temperature_conversion_round_trip():
    for beta in (0.01, 1.0, 25.0):
        t = temperature_from_beta(beta)
        assert beta_from_temperature(t) == pytest.approx(beta, rel=1e-14)
    assert temperature_from_beta(1.0) == pytest.approx(
        HBAR * OMEGA0_DEFAULT / K_BOLTZMANN, rel=1e-15
    )
    # Default frequency puts beta = 1 at about 24 mK.
    assert temperature_from_beta(1.0) == pytest.approx(0.023996215366831105, rel=1e-15)


def test_temperature_conversion_edges():
    assert temperature_from_beta(0.0) == math.inf
    assert temperature_from_beta(math.inf) == 0.0
    assert beta_from_temperature(math.inf) == 0.0
    assert beta_from_temperature(0.0) == math.inf
    with pytest.raises(ValueError):
        temperature_from_beta(-1.0)
    with pytest.raises(ValueError):
        beta_from_temperature(-1.0)


def test_params_from_temperature():
    p = NanoporeParams(6, beta_from_temperature(0.01), 0.5)
    assert p.beta == pytest.approx(beta_from_temperature(0.01), rel=1e-15)
    assert p.temperature == pytest.approx(0.01, rel=1e-12)


def test_cos_power_conventions():
    assert cos_power(0.7, 0) == 1.0
    assert cos_power(0.0, 0) == 1.0
    assert cos_power(0.0, 5) == 0.0
    assert cos_power(-0.5, 3) == pytest.approx(-0.125, rel=1e-15)
    assert cos_power(-0.5, 4) == pytest.approx(0.0625, rel=1e-15)
    # Deep underflow flushes to exact zero instead of denormals.
    assert cos_power(0.5, 5000) == 0.0


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=0, max_value=40),
)
def test_cos_power_matches_direct(c, k):
    direct = c**k
    assert cos_power(c, k) == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_correlations_at_time_zero():
    for beta in (0.0, 0.5, 3.0, math.inf):
        for n in (2, 3, 6, 41):
            corr = correlations(NanoporeParams(n=n, beta=beta, tau=0.0))
            th = math.tanh(beta / 2.0)
            assert corr.p == pytest.approx(0.5 * th, abs=1e-15)
            assert corr.q == pytest.approx(0.25 * th * th, abs=1e-15)
            assert corr.r == 0.0
            assert corr.u == 0.0
            assert corr.v == 0.0


def test_correlations_infinite_temperature():
    corr = correlations(NanoporeParams(n=5, beta=0.0, tau=1.3))
    assert (corr.p, corr.q, corr.r, corr.u, corr.v) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_correlations_large_pore_limit():
    beta = 2.0
    corr = correlations(NanoporeParams(n=math.inf, beta=beta, tau=123.4))
    th2 = math.tanh(beta / 2.0) ** 2
    assert corr.p == 0.0
    assert corr.u == 0.0
    assert corr.q == corr.r == pytest.approx(th2 / 8.0, rel=1e-15)


@given(finite_params)
def test_correlator_bounds_and_state_validity(args):
    n, beta, tau = args
    corr = correlations(NanoporeParams(n=n, beta=beta, tau=tau))
    assert abs(corr.p) <= 0.5 + 1e-15
    assert abs(corr.q) <= 0.25 + 1e-15
    assert abs(corr.r) <= 0.25 + 1e-15
    assert corr.v == 0.0
    m = cs_from_correlations(corr)
    check_cs_rows(m.params)


@given(finite_params)
def test_correlations_periodic_in_tau(args):
    n, beta, tau = args
    a = correlations(NanoporeParams(n=n, beta=beta, tau=tau))
    b = correlations(NanoporeParams(n=n, beta=beta, tau=tau + 2.0 * math.pi))
    for field in ("p", "q", "r", "u", "v"):
        assert getattr(a, field) == pytest.approx(getattr(b, field), abs=5e-13)


def test_special_time_parity():
    beta = 2.0
    th2 = math.tanh(1.0) ** 2
    for n in (4, 6, 8):
        corr = special_time_correlations(n, beta)
        assert corr.q == pytest.approx(0.25 * th2, rel=1e-15)
        assert corr.r == 0.0
        assert corr.p == 0.0 and corr.u == 0.0
    for n in (3, 5, 9):
        corr = special_time_correlations(n, beta)
        assert corr.q == 0.0
        assert corr.r == pytest.approx(0.25 * th2, rel=1e-15)
    # Exactly one of q, r survives either way.
    for n in range(3, 10):
        corr = special_time_correlations(n, beta)
        assert corr.q * corr.r == 0.0


def test_special_time_pair_only_keeps_u():
    # l = 10**400 + 1 has no float, but only its parity enters sin(tau_l).
    for l in (0, 1, 2, 10**400 + 1):
        corr = special_time_correlations(2, 3.0, l)
        sign = 1.0 if l % 2 == 0 else -1.0
        assert corr.u == pytest.approx(sign * 0.25 * math.tanh(1.5), rel=1e-15)
    assert special_time_correlations(3, 3.0, 0).u == 0.0


def test_special_time_matches_float_evaluation():
    for n in range(2, 10):
        for l in (0, 1, 2):
            exact = special_time_correlations(n, 3.0, l)
            floated = correlations(NanoporeParams(n=n, beta=3.0, tau=tau_special(l)))
            for field in ("p", "q", "r", "u", "v"):
                assert getattr(exact, field) == pytest.approx(
                    getattr(floated, field), abs=1e-12
                )


def test_special_time_rejects_bad_input():
    with pytest.raises(ValueError):
        special_time_correlations(math.inf, 1.0)
    with pytest.raises(ValueError):
        special_time_correlations(1, 1.0)
    with pytest.raises(ValueError):
        special_time_correlations(4, 1.0, l=-1)
    with pytest.raises(ValueError, match="n must be an integer"):
        special_time_correlations(3.5, 1.0)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        special_time_correlations(3, math.nan)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        special_time_correlations(3, -1.0)
    with pytest.raises(ValueError):
        tau_special(-2)
    with pytest.raises(ValueError, match="too large"):
        tau_special(10**400)


def test_reduced_density_layout():
    params = NanoporeParams(n=5, beta=2.0, tau=0.7)
    corr = correlations(params)
    rho = reduced_density(params).to_matrix()
    assert rho[0, 0] == 0.25
    assert rho[0, 1] == pytest.approx(corr.p / 2.0 - 1j * corr.u, abs=1e-16)
    assert rho[0, 2] == pytest.approx(corr.p / 2.0 - 1j * corr.u, abs=1e-16)
    assert rho[0, 3] == pytest.approx(corr.q - corr.r, abs=1e-16)
    assert rho[1, 2] == pytest.approx(corr.q + corr.r, abs=1e-16)


def test_reduced_density_infinite_temperature_is_maximally_mixed():
    rho = reduced_density(NanoporeParams(n=6, beta=0.0, tau=2.0)).to_matrix()
    assert np.array_equal(rho, np.eye(4) / 4.0)


def test_reduced_density_swap_symmetric():
    rho = reduced_density(NanoporeParams(n=7, beta=4.0, tau=1.1)).to_matrix()
    assert np.max(np.abs(swap_qubits(rho) - rho)) == 0.0


def test_concurrence_zero_at_time_zero():
    for n in (2, 3, 6, 25, math.inf):
        for beta in (0.5, 2.0, 10.0, math.inf):
            assert concurrence_nanopore(NanoporeParams(n=n, beta=beta, tau=0.0)) == 0.0


def test_concurrence_matches_closed_form_route():
    taus = np.linspace(0.0, 2.0 * math.pi, 40)
    for n in (2, 4, 7):
        for beta in (1.0, 6.0):
            for tau in taus:
                params = NanoporeParams(n=n, beta=beta, tau=float(tau))
                direct = concurrence_nanopore(params)
                full = concurrence_cs(reduced_density(params)).concurrence
                assert direct == pytest.approx(full, abs=1e-12)


def test_top_lambda_is_first_branch():
    # The plus root of the first branch dominates the spin-flip spectrum
    # for every model state; evaluated independently of the package code.
    taus = np.linspace(0.0, 2.0 * math.pi, 25)
    for n in (3, 6, 9):
        for beta in (0.5, 3.0, 10.0):
            for tau in taus:
                params = NanoporeParams(n=n, beta=beta, tau=float(tau))
                c = correlations(params)
                a = math.sqrt((2.0 * c.r) ** 2 + 4.0 * (2.0 * c.u) ** 2)
                b = math.sqrt((0.5 + 2.0 * c.q) ** 2 - 4.0 * c.p**2)
                lam1 = 0.5 * (a + b)
                res = concurrence_cs(reduced_density(params))
                assert res.lambdas[0] == pytest.approx(lam1, abs=1e-12)


def test_max_concurrence_frozen_value():
    taus = np.linspace(0.0, math.pi, 2001)
    best = max(
        concurrence_nanopore(NanoporeParams(n=6, beta=3.0, tau=float(t)))
        for t in taus
    )
    assert best == pytest.approx(0.0518700123656366, abs=1e-13)


def test_concurrence_periodic_in_pi():
    # Entanglement repeats with period pi in tau.
    for tau in (0.3, 1.0, 2.2):
        a = concurrence_nanopore(NanoporeParams(n=6, beta=8.0, tau=tau))
        b = concurrence_nanopore(NanoporeParams(n=6, beta=8.0, tau=tau + math.pi))
        assert a == pytest.approx(b, abs=1e-12)


def test_full_route_helper():
    # The full spin-flip spectrum of the CS state against the pair formula.
    params = NanoporeParams(n=4, beta=5.0, tau=1.4)
    res = concurrence_cs(reduced_density(params))
    assert res.concurrence == pytest.approx(concurrence_nanopore(params), abs=1e-12)


def test_correlation_set_as_dict():
    corr = CorrelationSet(p=0.1, q=0.02, r=0.01, u=0.005)
    assert corr.as_dict() == {"p": 0.1, "q": 0.02, "r": 0.01, "u": 0.005, "v": 0.0}


grid_n = st.sampled_from([2, 3, 4, 7, 60, 10**6, math.inf])
grid_beta = st.one_of(
    st.just(0.0), st.just(math.inf), st.floats(min_value=0.0, max_value=50.0)
)
# Random times and the odd half-periods tau_l, where cos(tau) is nearly 0.
grid_tau = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(min_value=-20, max_value=20).map(lambda l: (1 + 2 * l) * math.pi / 2),
)


def _bits(value) -> str:
    return float(value).hex()


def _scalar_reference(n, beta, tau):
    """The correlators for one state, operation by operation on floats."""
    th = math.tanh(beta / 2.0)
    if math.isinf(n):
        qr = th * th / 8.0
        return (0.0, qr, qr, 0.0, 0.0)
    c = math.cos(tau)
    q_plus_r = 0.25 * th * th
    q_minus_r = 0.25 * th * th * cos_power(math.cos(2.0 * tau), n - 2)
    return (
        0.5 * th * cos_power(c, n - 1),
        0.5 * (q_plus_r + q_minus_r),
        0.5 * (q_plus_r - q_minus_r),
        0.25 * th * cos_power(c, n - 2) * math.sin(tau),
        0.0,
    )


@given(
    st.lists(grid_n, min_size=1, max_size=4),
    st.lists(grid_beta, min_size=1, max_size=3),
    st.lists(grid_tau, min_size=1, max_size=5),
)
def test_grid_matches_one_point_calls_bit_for_bit(ns, betas, taus):
    grid = correlation_grid(ns, betas, taus)
    rows = cs_rows(grid)
    concurrence = concurrence_rows(grid)
    assert rows.shape == (len(ns) * len(betas) * len(taus), 7)
    k = 0
    for n in ns:
        for beta in betas:
            for tau in taus:
                params = NanoporeParams(n=n, beta=beta, tau=tau)
                point = correlations(params)
                got = [getattr(grid, f)[k] for f in ("p", "q", "r", "u", "v")]
                expected = list(point.as_dict().values())
                assert list(map(_bits, got)) == list(map(_bits, expected))
                assert list(map(_bits, expected)) == list(
                    map(_bits, _scalar_reference(n, beta, tau))
                )
                cs = cs_from_correlations(point).params
                assert list(map(_bits, rows[k])) == list(map(_bits, cs))
                one = concurrence_nanopore(params)
                assert _bits(concurrence[k]) == _bits(one)
                k += 1


def test_check_axes_uses_params_rules():
    assert check_axes([2, 3.0, math.inf], [0.0, math.inf], [1.0]) == [2, 3, math.inf]
    with pytest.raises(ValueError, match="n must be >= 2"):
        check_axes([3, 1], [1.0], [0.0])
    with pytest.raises(ValueError, match="beta must be >= 0"):
        check_axes([3], [1.0, math.nan], [0.0])
    with pytest.raises(ValueError, match="tau must be finite"):
        check_axes([3], [1.0], [0.0, math.inf])
    with pytest.raises(ValueError, match="tau must be finite"):
        check_axes([3], [1.0], [0.0, -1e308])
    check_axes([3], [1.0], [0.5 * sys.float_info.max])
    with pytest.raises(ValueError, match="omega0"):
        check_axes([3], [1.0], [0.0], omega0=-1.0)


def test_empty_grid_has_no_rows():
    grid = correlation_grid([3, math.inf], [1.0], [])
    assert all(len(a) == 0 for a in grid.as_dict().values())
    assert cs_rows(grid).shape == (0, 7)
    assert concurrence_rows(grid).shape == (0,)
