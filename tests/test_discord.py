import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    BELL_PHI_PLUS,
    numeric_batch,
    random_cs,
    random_density4,
    random_qubit_density,
    random_su2,
    reduced_first,
    verify_dense_states,
    von_neumann_entropy,
)
from nanospin_qcorr import (
    MeasurementBasis,
    NanoporeParams,
    cs_from_params,
    discord_bell_diagonal,
    discord_cs,
    discord_cs_rows,
    discord_high_t_asymptotic,
    discord_low_t_asymptotic,
    discord_numeric,
    measurement_conditional_entropy,
    reduced_density,
)
import nanospin_qcorr.discord as discord_module
from nanospin_qcorr._kernels import conditional_entropy_dirs, conditional_entropy_grid
from nanospin_qcorr.cs_matrix import _top_singular, cs_bloch
from nanospin_qcorr.discord import _CS_CHUNK, DEFAULT_GRID, discord_numeric_rows
from nanospin_qcorr.states import (
    InvalidStateError,
    binary_entropy,
    bloch_data,
    swap_qubits,
)

SATURATION = 0.75 * math.log2(4.0 / 3.0)
TEMPERATURE_BETAS = (0.01, 0.05, 0.2, 0.5, 1.0, 3.0, 5.0, 10.0, 30.0)


def large_pore_state(beta):
    return reduced_density(NanoporeParams(n=math.inf, beta=beta, tau=0.0)).to_matrix()


def large_pore_q(beta):
    return math.tanh(beta / 2.0) ** 2 / 8.0


def test_bell_diagonal_known_values():
    assert discord_bell_diagonal(0.0) == 0.0
    assert discord_bell_diagonal(0.125) == pytest.approx(SATURATION, abs=1e-15)
    assert discord_bell_diagonal(-0.125) == pytest.approx(SATURATION, abs=1e-15)


@given(st.floats(min_value=-0.125, max_value=0.125))
def test_bell_diagonal_even_and_bounded(q):
    val = discord_bell_diagonal(q)
    assert val == pytest.approx(discord_bell_diagonal(-q), abs=1e-14)
    assert -1e-15 <= val <= SATURATION + 1e-12


def test_bell_diagonal_domain_error():
    with pytest.raises(ValueError, match="domain"):
        discord_bell_diagonal(0.2)


def test_low_t_asymptotic_values():
    assert discord_low_t_asymptotic(1e9) == pytest.approx(SATURATION, abs=1e-15)
    # At beta = 0 the formula degenerates to the saturation constant;
    # the asymptotic regime does not apply there.
    assert discord_low_t_asymptotic(0.0) == SATURATION
    diffs = [
        abs(discord_low_t_asymptotic(b) - discord_bell_diagonal(large_pore_q(b)))
        for b in (10.0, 20.0, 30.0)
    ]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-8


def test_high_t_asymptotic_values():
    assert discord_high_t_asymptotic(0.0) == 0.0
    exact = discord_bell_diagonal(large_pore_q(0.1))
    assert abs(discord_high_t_asymptotic(0.1) - exact) / exact < 0.01
    exact = discord_bell_diagonal(large_pore_q(0.01))
    assert abs(discord_high_t_asymptotic(0.01) - exact) / exact < 1e-4


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_measurement_basis_projectors(theta, phi):
    basis = MeasurementBasis(theta=theta, phi=phi)
    pp, pm = basis.projectors()
    assert np.max(np.abs(pp + pm - np.eye(2))) < 1e-15
    assert np.max(np.abs(pp @ pp - pp)) < 1e-14
    assert np.max(np.abs(pm @ pm - pm)) < 1e-14
    assert np.max(np.abs(pp @ pm)) < 1e-14
    assert np.linalg.norm(basis.axis) == pytest.approx(1.0, abs=1e-14)


def test_product_state_has_no_discord(rng):
    rho = np.kron(random_qubit_density(rng), random_qubit_density(rng))
    res = discord_numeric(rho)
    assert abs(res.discord) < 1e-8
    assert abs(res.mutual_information - res.classical_correlation) < 1e-8


def test_matches_closed_form_across_temperatures():
    worst = 0.0
    for beta in TEMPERATURE_BETAS:
        got = discord_numeric(large_pore_state(beta)).discord
        want = discord_bell_diagonal(large_pore_q(beta))
        worst = max(worst, abs(got - want))
    assert worst < 1e-7


def test_measured_side_is_immaterial_for_symmetric_states():
    # Measuring the first qubit is measuring the second of the swapped state.
    rho = reduced_density(NanoporeParams(n=7, beta=3.0, tau=0.9)).to_matrix()
    q_second = discord_numeric(rho).discord
    q_first = discord_numeric(swap_qubits(rho)).discord
    assert abs(q_first - q_second) < 1e-9


def test_result_invariants(rng):
    for _ in range(20):
        rho = random_density4(rng)
        res = discord_numeric(rho)
        assert res.discord >= -1e-9
        assert res.discord <= res.mutual_information + 1e-9
        assert res.classical_correlation >= -1e-12
        assert 0.0 <= res.basis.theta <= math.pi
        assert 0.0 <= res.basis.phi < 2.0 * math.pi


def test_local_unitary_invariance(rng):
    for _ in range(10):
        rho = random_density4(rng)
        u = np.kron(random_su2(rng), random_su2(rng))
        rotated = u @ rho @ u.conj().T
        q1 = discord_numeric(rho).discord
        q2 = discord_numeric(rotated).discord
        assert abs(q1 - q2) < 1e-6


def test_optimum_near_a_pole_is_found():
    # Rotating the measured qubit moves the optimum of some CS states close
    # to a pole of the (theta, phi) grid; discord must not change.
    c, s = math.cos(0.4), math.sin(0.4)
    u = np.kron(np.eye(2), np.array([[c, -s], [s, c]]))
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho = random_cs(rng).to_matrix()
        q1 = discord_numeric(rho).discord
        q2 = discord_numeric(u @ rho @ u.conj().T).discord
        assert abs(q1 - q2) < 1e-9


def test_reported_basis_reproduces_objective(rng):
    # C_cl must equal S_A minus the objective at the reported basis.
    rho = random_density4(rng)
    res = discord_numeric(rho)
    x, _, _ = bloch_data(rho)
    s_a = binary_entropy(0.5 * (1.0 + np.linalg.norm(x)))
    val = measurement_conditional_entropy(rho, res.basis.theta, res.basis.phi)
    assert res.classical_correlation == pytest.approx(s_a - val, abs=1e-12)


def test_azimuthal_flatness_at_optimum():
    # The large-pore states have axially structured Bloch data, so the
    # objective at the optimal polar angle must not depend on phi.
    for beta in (0.5, 3.0, 20.0):
        rho = large_pore_state(beta)
        res = discord_numeric(rho)
        values = [
            measurement_conditional_entropy(rho, res.basis.theta, phi)
            for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        ]
        assert max(values) - min(values) < 1e-9


def test_non_psd_input_rejected():
    bad = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(InvalidStateError):
        discord_numeric(bad)


def test_bell_state_discord_is_one():
    res = discord_numeric(BELL_PHI_PLUS)
    assert res.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert res.classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert res.discord == pytest.approx(1.0, abs=1e-9)


def test_result_as_dict():
    res = discord_numeric(BELL_PHI_PLUS)
    d = res.as_dict()
    assert set(d) == {
        "mutual_information",
        "classical_correlation",
        "discord",
        "theta",
        "phi",
    }


def nanopore_grid():
    for n in (3, 6, 9, 25):
        for beta in range(1, 11):
            for tau in np.linspace(0.0, 2.8, 15):
                yield reduced_density(NanoporeParams(n=n, beta=beta, tau=tau))


@pytest.mark.parametrize("rank", [4, 2, 1])
def test_cs_reduction_matches_sphere_search(rank):
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_cs(rng, rank)
        got = discord_cs(m)
        want = discord_numeric(m.to_matrix())
        assert abs(got.discord - want.discord) < 1e-9
        assert got.mutual_information == pytest.approx(
            want.mutual_information, abs=1e-12
        )


def test_cs_reduction_on_nanopore_grid():
    # The reduction is exact, so it may sit below the sphere search by that
    # search's own error but never above it beyond rounding.
    for m in nanopore_grid():
        gap = discord_cs(m).discord - discord_numeric(m.to_matrix()).discord
        assert -1e-6 < gap < 1e-12


def test_cs_reduction_matches_closed_form_at_large_pore():
    for beta in TEMPERATURE_BETAS:
        m = reduced_density(NanoporeParams(n=math.inf, beta=beta, tau=0.0))
        assert abs(
            discord_cs(m).discord - discord_bell_diagonal(large_pore_q(beta))
        ) < 1e-12


# A CS state whose optimal n_x lies strictly inside (0, 1): the conditional
# entropy there is 1.6e-6 below its value along x.
INTERIOR_OPTIMUM = (
    0.231472, -0.06464, 0.007498, 0.132626, -0.00637, -0.079911, -0.036353
)


def unmeasured_entropy(rho):
    x, _, _ = bloch_data(rho)
    return binary_entropy(0.5 * (1.0 + np.linalg.norm(x)))


def test_cs_reduction_basis_reproduces_objective():
    rng = np.random.default_rng(11)
    states = [random_cs(rng) for _ in range(20)]
    states += [cs_from_params(*INTERIOR_OPTIMUM)]
    states += list(nanopore_grid())[::7]
    for m in states:
        res = discord_cs(m)
        rho = m.to_matrix()
        val = measurement_conditional_entropy(rho, res.basis.theta, res.basis.phi)
        assert res.classical_correlation == pytest.approx(
            unmeasured_entropy(rho) - val, abs=1e-12
        )


def test_cs_reduction_finds_interior_optimum():
    m = cs_from_params(*INTERIOR_OPTIMUM)
    res = discord_cs(m)
    rho = m.to_matrix()
    assert 0.1 < abs(res.basis.axis[0]) < 0.9
    # Without the zoom the grid point alone sits 4e-10 above the sphere search.
    gap = res.discord - discord_numeric(rho).discord
    assert -1e-9 < gap < 1e-12
    best = unmeasured_entropy(rho) - res.classical_correlation
    along_x = measurement_conditional_entropy(rho, 0.5 * math.pi, 0.0)
    assert along_x - best > 1e-6


def test_cs_reduction_rejects_non_psd_state():
    with pytest.raises(InvalidStateError, match="L4"):
        discord_cs(cs_from_params(0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0))


def cs_batch():
    rng = np.random.default_rng(7)
    states = [random_cs(rng, rank) for rank in (4, 2, 1) for _ in range(30)]
    return states + list(nanopore_grid())


def params_of(states):
    return np.array([m.params for m in states])


def test_cs_rows_equal_per_state_results():
    states = cs_batch()
    mutual, classical, axis = discord_cs_rows(params_of(states))
    for k, m in enumerate(states):
        res = discord_cs(m)
        assert mutual[k] == res.mutual_information
        assert classical[k] == res.classical_correlation
        assert mutual[k] - classical[k] == res.discord
        assert np.allclose(axis[k], res.basis.axis, rtol=0.0, atol=1e-15)


def test_cs_rows_span_chunks():
    params = params_of(cs_batch())
    reps = _CS_CHUNK // len(params) + 2
    assert len(params) * reps > _CS_CHUNK
    small = discord_cs_rows(params)
    big = discord_cs_rows(np.tile(params, (reps, 1)))
    for a, b in zip(small, big):
        assert np.array_equal(np.tile(a, (reps,) + (1,) * (a.ndim - 1)), b)


def test_cs_rows_reject_one_non_psd_state():
    states = cs_batch()[:20]
    states.insert(11, cs_from_params(0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0))
    with pytest.raises(InvalidStateError, match="eigenvalue L4 = "):
        discord_cs_rows(params_of(states))


def test_cs_rows_zoom_interior_optimum_in_a_batch():
    states = cs_batch()[:40]
    inner = cs_from_params(*INTERIOR_OPTIMUM)
    states.insert(17, inner)
    mutual, classical, axis = discord_cs_rows(params_of(states))
    res = discord_cs(inner)
    assert classical[17] == res.classical_correlation
    assert 0.1 < abs(axis[17, 0]) < 0.9
    gap = mutual[17] - classical[17] - discord_numeric(inner.to_matrix()).discord
    assert -1e-9 < gap < 1e-12


def test_cs_rows_on_the_bell_states():
    # Each outcome leaves the other qubit pure, so D - N is 0 up to rounding
    # and must enter the objective as eta(0) = 0, without a RuntimeWarning.
    bell = [(0.5, 0, 0, 0, 0, s, 0) for s in (0.5, -0.5)]
    bell += [(0.0, 0, 0, 0, 0, 0, s) for s in (0.5, -0.5)]
    mutual, classical, _ = discord_cs_rows(np.array(bell, dtype=float))
    assert np.allclose(mutual, 2.0, rtol=0.0, atol=1e-14)
    assert np.allclose(classical, 1.0, rtol=0.0, atol=1e-14)


def test_cs_rows_empty_batch():
    mutual, classical, axis = discord_cs_rows(np.empty((0, 7)))
    assert mutual.shape == classical.shape == (0,)
    assert axis.shape == (0, 3)


def explicit_conditional_entropy(rho, basis):
    """sum_s p_s S(rho_A | s) from the projectors, not the Bloch kernel."""
    total = 0.0
    for proj in basis.projectors():
        op = np.kron(np.eye(2), proj)
        post = op @ rho @ op
        p = post.trace().real
        if p > 1e-15:
            total += p * von_neumann_entropy(reduced_first(post) / p)
    return total


@pytest.mark.parametrize("rank", [4, 2, 1])
def test_numeric_optimum_on_generic_states(rank):
    # A finer grid than DEFAULT_GRID never beats the refined optimum, and the
    # reported basis reproduces it through explicit projectors.
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density4(rng, rank)
        res = discord_numeric(rho)
        x, y, T = bloch_data(rho)
        best = unmeasured_entropy(rho) - res.classical_correlation
        assert best <= np.min(conditional_entropy_grid(x, y, T, thetas, phis)) + 1e-12
        s_a = von_neumann_entropy(reduced_first(rho))
        explicit = s_a - explicit_conditional_entropy(rho, res.basis)
        assert res.classical_correlation == pytest.approx(explicit, abs=1e-12)


@pytest.mark.parametrize("rank", [4, 2, 1])
def test_hemisphere_grid_minimum_matches_the_whole_sphere(rank):
    # The first grid covers phi in [0, pi) only; at the same spacing, its
    # minimum is never above that of the whole sphere's grid, twice as wide.
    n_th, n_ph = DEFAULT_GRID
    thetas = np.linspace(0.0, math.pi, n_th)
    half = np.linspace(0.0, math.pi, n_ph, endpoint=False)
    whole = np.linspace(0.0, 2.0 * math.pi, 2 * n_ph, endpoint=False)
    assert half[1] == whole[1]
    rng = np.random.default_rng(29)
    states = [random_density4(rng, rank) for _ in range(24)] + [np.eye(4) / 4.0]
    x, y, T = bloch_data(np.array(states))
    low_half = conditional_entropy_grid(x, y, T, thetas, half).min(axis=(1, 2))
    low_whole = conditional_entropy_grid(x, y, T, thetas, whole).min(axis=(1, 2))
    assert np.all(low_half <= low_whole + 1e-15)


@pytest.mark.parametrize("measured", ["second", "first"])
def test_numeric_rows_equal_one_row_calls_bit_for_bit(measured, monkeypatch):
    # Small first-pass chunks, 8 rows of 230 directions, so the batch
    # crosses their boundaries.
    monkeypatch.setattr(discord_module, "_DIRECTIONS", 8 * 230)
    rhos = numeric_batch()
    assert len(rhos) > 2 * 8
    if measured == "first":
        rhos = swap_qubits(rhos)
    mutual, classical, axis = discord_numeric_rows(rhos)
    assert mutual.shape == classical.shape == (len(rhos),)
    assert axis.shape == (len(rhos), 3)
    for k, rho in enumerate(rhos):
        one = discord_numeric_rows(rho[None])
        for whole, alone in zip((mutual, classical, axis), one):
            assert np.array_equal(whole[k], alone[0])
        res = discord_numeric(rho)
        assert res.mutual_information == mutual[k]
        assert res.classical_correlation == classical[k]
    # Whatever rows share a batch, and wherever a row sits in it.
    order = np.random.default_rng(5).permutation(len(rhos))
    mixed = np.concatenate([rhos[order], rhos[:3]])
    for whole, part in zip((mutual, classical, axis), discord_numeric_rows(mixed)):
        assert np.array_equal(whole[order], part[: len(rhos)])
        assert np.array_equal(whole[:3], part[len(rhos) :])


def count_kernel_shapes(monkeypatch):
    """The direction shapes of every objective call the discord module makes."""
    shapes = []
    kernel = discord_module.conditional_entropy_dirs

    def counting(x, y, T, n):
        shapes.append(n.shape)
        return kernel(x, y, T, n)

    monkeypatch.setattr(discord_module, "conditional_entropy_dirs", counting)
    return shapes


def test_numeric_rows_zoom_in_lockstep(monkeypatch):
    # The first pass takes every row on 230 directions, +z, the 14x16 grid
    # without its poles, then five seeds, in kernel calls of as many rows as
    # the direction budget holds (17 of 22); every zoom step that follows is
    # one kernel call over the rows still zooming, the first taking all of
    # them with a 9x9 box each.  The quadratic finish keeps the zoom within
    # 350 directions per row (9x9 boxes down to 1e-9 took about 1,150).
    shapes = count_kernel_shapes(monkeypatch)
    rhos = numeric_batch()
    discord_numeric_rows(rhos)
    n_th, n_ph = DEFAULT_GRID
    per_call = discord_module._DIRECTIONS // 230
    assert (n_th - 2) * n_ph + 6 == 230 and per_call == 17 < len(rhos)
    assert shapes[:2] == [(per_call, 230, 3), (len(rhos) - per_call, 230, 3)]
    zoom = shapes[2:]
    assert zoom[0] == (len(rhos), 81, 3)
    assert all(s[0] <= len(rhos) and s[1:] in {(81, 3), (9, 3), (1, 3)} for s in zoom)
    assert sum(s[0] * s[1] for s in zoom) <= 350 * len(rhos)


def test_numeric_zoom_follows_a_valley(monkeypatch):
    # The interior optimum lies along a flat valley; the zoom's box grows
    # while it moves along it, and so does the finish's trust radius, so it
    # arrives well within its budget (9x9 boxes alone took 3,645 directions).
    m = cs_from_params(*INTERIOR_OPTIMUM)
    want = discord_cs(m).discord
    shapes = count_kernel_shapes(monkeypatch)
    got = discord_numeric(m.to_matrix()).discord
    assert shapes[0][1] == 230
    assert sum(s[1] for s in shapes[1:]) < 1000
    assert abs(got - want) < 1e-12


def chart_neighbours(axis, eps):
    """The 8 neighbours of unit vectors axis (R, 3) on a 3x3 grid of spacing
    eps in a tangent chart built here, apart from the solver's: (R, 8, 3)."""
    e1 = np.cross(axis, np.eye(3)[np.argmin(np.abs(axis), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axis, e1)
    a, b = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]).T
    m = axis[:, None] + eps * (a[:, None] * e1[:, None] + b[:, None] * e2[:, None])
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


@pytest.mark.parametrize("batch", ["numeric", "verify-dense", "random"])
def test_numeric_optimum_is_locally_optimal(batch):
    # Independent of the optimizer: no direction of a 3x3 grid about the
    # returned axis, in a chart of the test's own, lies lower than the axis.
    if batch == "numeric":
        rhos = numeric_batch()
    elif batch == "verify-dense":
        rhos = verify_dense_states()
    else:
        rng = np.random.default_rng(31)
        rhos = np.array(
            [random_density4(rng, rank) for rank in (4, 2, 1) for _ in range(300)]
        )
    _, _, axis = discord_numeric_rows(rhos)
    x, y, T = bloch_data(rhos)
    at_axis = conditional_entropy_dirs(x, y, T, axis[:, None])
    for eps in (1e-6, 1e-4):
        around = conditional_entropy_dirs(x, y, T, chart_neighbours(axis, eps))
        assert np.min(around - at_axis) >= -1e-15


def test_sphere_search_matches_cs_reduction_on_rotated_states():
    # A local rotation keeps discord; the sphere search on the rotated state
    # must reach the exact reduction's optimum of the unrotated one.  Row
    # 4112 is a state that a 64x64 grid without seeds or box growth missed
    # by 2.6e-10.
    rng = np.random.default_rng(99)
    states = [random_cs(rng, rank) for rank in (4, 3, 2, 1) for _ in range(2500)]
    us = [np.kron(random_su2(rng), random_su2(rng)) for _ in states]
    rhos = np.array([u @ m.to_matrix() @ u.conj().T for u, m in zip(us, states)])
    mutual, classical, _ = discord_numeric_rows(rhos)
    cs_mutual, cs_classical, _ = discord_cs_rows(params_of(states))
    gap = np.abs((mutual - classical) - (cs_mutual - cs_classical))
    assert gap[4112] < 1e-12
    assert np.max(gap) < 1e-12


def test_numeric_rows_empty_batch():
    for validate in (True, False):
        mutual, classical, axis = discord_numeric_rows(
            np.empty((0, 4, 4)), validate=validate
        )
        assert mutual.shape == classical.shape == (0,)
        assert axis.shape == (0, 3)


@pytest.mark.parametrize("bad", ["nan", "non_psd"])
def test_numeric_rows_reject_one_invalid_row(bad):
    rhos = numeric_batch()
    if bad == "nan":
        rhos[5, 1, 2] = np.nan
        match = "non-finite"
    else:
        rhos[5] = np.diag([0.6, 0.5, 0.0, -0.1])
        match = "negative eigenvalue"
    with pytest.raises(InvalidStateError, match=match):
        discord_numeric_rows(rhos)


def test_cs_rows_refine_interior_optimum_in_lockstep(monkeypatch):
    # The interior-optimum state is refined inside a batch: one grid call
    # over every row, then 9-point steps over the interior rows only, and
    # the refinement lifts its classical correlation above the value at its
    # best grid point.
    states = cs_batch()[:40]
    states.insert(17, cs_from_params(*INTERIOR_OPTIMUM))
    params = params_of(states)
    shapes = []
    objective = discord_module._cs_objective

    def counting(*args):
        values = objective(*args)
        shapes.append(values.shape)
        return values

    monkeypatch.setattr(discord_module, "_cs_objective", counting)
    _, refined, _ = discord_cs_rows(params)
    assert shapes[0] == (len(states), discord_module._CS_POINTS)
    assert len(shapes) > 1
    assert all(s[0] < len(states) and s[1] == 9 for s in shapes[1:])

    monkeypatch.setattr(discord_module, "_refine_rows", lambda d, p, f, h: (p, f))
    _, grid_only, _ = discord_cs_rows(params)
    assert refined[17] > grid_only[17]


def cs_objective_data(params):
    """_cs_objective's arguments for CS rows, with s_max from np.linalg.svd."""
    x, y, T = cs_bloch(params)
    s = np.linalg.svd(T[:, 1:, 1:], compute_uv=False)
    return np.stack([x[:, 0], y[:, 0], T[:, 0, 0], s[:, 0]], axis=1), s


def test_cs_objective_matches_sphere_kernel_on_rotated_states():
    # The one-variable objective against the Bloch kernel on the rotated
    # X-state (x, y, diag(T_xx, s_max, s_min)) at a random n_x per row.
    rng = np.random.default_rng(41)
    states = [random_cs(rng, rank) for rank in (4, 2, 1) for _ in range(1000)]
    params = np.concatenate([params_of(states), params_of(nanopore_grid())])
    data, s = cs_objective_data(params)
    x, y, T = cs_bloch(params)
    diag = np.zeros_like(T)
    diag[:, 0, 0], diag[:, 1, 1], diag[:, 2, 2] = T[:, 0, 0], s[:, 0], s[:, 1]
    phi = np.arccos(rng.uniform(0.0, 1.0, size=len(params)))
    n = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    got = discord_module._cs_objective(data, phi[:, None])[:, 0]
    want = conditional_entropy_dirs(x, y, diag, n[:, None])[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_top_singular_matches_svd():
    rng = np.random.default_rng(43)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    blocks = np.concatenate(
        [
            rng.normal(size=(500, 2, 2)),
            np.zeros((1, 2, 2)),  # a zero block
            # s_max = s_min: a scaled rotation, a scaled reflection, a multiple of 1
            [0.3 * rot, 0.3 * rot @ np.diag([1.0, -1.0]), 0.7 * np.eye(2)],
            rng.normal(size=(50, 2, 1)) * rng.normal(size=(50, 1, 2)),  # rank 1
        ]
    )
    s_max, s_min, v = _top_singular(blocks)
    _, s, vt = np.linalg.svd(blocks)
    assert np.allclose(s_max, s[:, 0], rtol=1e-14, atol=1e-15)
    assert np.allclose(s_min, s[:, 1], rtol=1e-14, atol=1e-15)
    assert np.allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=0.0, atol=1e-15)
    # B v reaches s_max, and where s_max is simple v is svd's up to a sign.
    gain = np.linalg.norm((blocks @ v[..., None])[..., 0], axis=-1)
    assert np.allclose(gain, s[:, 0], rtol=1e-14, atol=1e-15)
    simple = s[:, 0] - s[:, 1] > 1e-6
    assert np.allclose(np.abs(np.sum(v * vt[:, 0], axis=-1))[simple], 1.0, atol=1e-12)


# A CS state whose valley lies within about two grid spacings of the n_x = 0
# end: the conditional entropy there is 7.4e-9 below the endpoint, and the
# best grid point 2.3e-9 above the optimum.
NARROW_VALLEY = (0.164734, 0.157624, 0.0, 0.157846, 0.0, 0.091632, 0.231398)


def test_cs_rows_interior_optima_meet_sphere_search():
    # Row 425 of these rank-2 states has its optimum at |n_x| = 0.848, about
    # 2.2e-5 below the better endpoint.
    rng = np.random.default_rng(5)
    row_425 = [random_cs(rng, 2) for _ in range(3000)][425]
    params = params_of([row_425, cs_from_params(*NARROW_VALLEY)])
    rhos = np.array([cs_from_params(*p).to_matrix() for p in params])
    mutual, classical, axis = discord_cs_rows(params)
    best = [unmeasured_entropy(rho) for rho in rhos] - classical
    data, _ = cs_objective_data(params)
    ends = discord_module._cs_objective(data, np.array([0.0, 0.5 * math.pi]))
    assert np.all(np.min(ends, axis=1) - best > [2e-5, 7e-9])
    assert 0.84 < axis[0, 0] < 0.86 and 0.07 < axis[1, 0] < 0.09
    n_mutual, n_classical, _ = discord_numeric_rows(rhos)
    gap = (mutual - classical) - (n_mutual - n_classical)
    assert np.max(np.abs(gap)) < 1e-12
