import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    BELL_PHI_PLUS,
    cs_bloch,
    measurement_conditional_entropy,
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
    CSDensityMatrix,
    NanoporeParams,
    discord_bell_diagonal,
    discord_cs_rows,
    discord_high_t_asymptotic,
    discord_low_t_asymptotic,
    discord_numeric,
    reduced_density,
)
import nanospin_qcorr._kernels as kernels_module
import nanospin_qcorr.discord as discord_module
from nanospin_qcorr._kernels import conditional_entropy_dirs, conditional_entropy_grid
from nanospin_qcorr.cs_matrix import (
    _cs_entries,
    _top_singular,
    _top_vector,
    cs_dense,
)
from nanospin_qcorr.discord import _CS_CHUNK, discord_numeric_rows
from nanospin_qcorr.nanopore import correlation_grid, cs_rows
from nanospin_qcorr.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
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
        assert isinstance(res.axis, tuple) and len(res.axis) == 3
        assert np.linalg.norm(res.axis) == pytest.approx(1.0, abs=1e-14)


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
    val = measurement_conditional_entropy(rho, res.axis)
    assert res.classical_correlation == pytest.approx(s_a - val, abs=1e-12)


def test_azimuthal_flatness_at_optimum():
    # The large-pore states have axially structured Bloch data, so the
    # objective at the optimal polar angle must not depend on phi.
    for beta in (0.5, 3.0, 20.0):
        rho = large_pore_state(beta)
        nx, ny, nz = discord_numeric(rho).axis
        sin_theta = math.hypot(nx, ny)
        phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        values = [
            measurement_conditional_entropy(rho, (sin_theta * cos, sin_theta * sin, nz))
            for cos, sin in zip(np.cos(phis), np.sin(phis))
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


def nanopore_grid():
    for n in (3, 6, 9, 25):
        for beta in range(1, 11):
            for tau in np.linspace(0.0, 2.8, 15):
                yield reduced_density(NanoporeParams(n=n, beta=beta, tau=tau))


@pytest.mark.parametrize("rank", [4, 2, 1])
def test_cs_reduction_matches_sphere_search(rank):
    rng = np.random.default_rng(7)
    states = [random_cs(rng, rank) for _ in range(100)]
    mutual, classical, _ = discord_cs_rows(params_of(states))
    for k, m in enumerate(states):
        want = discord_numeric(m.to_matrix())
        assert abs(mutual[k] - classical[k] - want.discord) < 1e-9
        assert mutual[k] == pytest.approx(want.mutual_information, abs=1e-12)


def test_cs_reduction_on_nanopore_grid():
    # The reduction is exact, so it may sit below the sphere search by that
    # search's own error but never above it beyond rounding.
    states = list(nanopore_grid())
    mutual, classical, _ = discord_cs_rows(params_of(states))
    for m, got in zip(states, mutual - classical):
        gap = got - discord_numeric(m.to_matrix()).discord
        assert -1e-6 < gap < 1e-12


def test_cs_reduction_matches_closed_form_at_large_pore():
    for beta in TEMPERATURE_BETAS:
        m = reduced_density(NanoporeParams(n=math.inf, beta=beta, tau=0.0))
        mutual, classical, _ = discord_cs_rows(m.params)
        got = mutual[0] - classical[0]
        assert abs(got - discord_bell_diagonal(large_pore_q(beta))) < 1e-12


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
    states += [CSDensityMatrix(*INTERIOR_OPTIMUM)]
    states += list(nanopore_grid())[::7]
    _, classical, axis = discord_cs_rows(params_of(states))
    for k, m in enumerate(states):
        rho = m.to_matrix()
        val = measurement_conditional_entropy(rho, axis[k])
        assert classical[k] == pytest.approx(unmeasured_entropy(rho) - val, abs=1e-12)


def test_cs_reduction_finds_interior_optimum():
    m = CSDensityMatrix(*INTERIOR_OPTIMUM)
    mutual, classical, axis = discord_cs_rows(m.params)
    rho = m.to_matrix()
    assert 0.1 < abs(axis[0, 0]) < 0.9
    # Without the zoom the grid point alone sits 4e-10 above the sphere search.
    gap = mutual[0] - classical[0] - discord_numeric(rho).discord
    assert -1e-9 < gap < 1e-12
    best = unmeasured_entropy(rho) - classical[0]
    along_x = measurement_conditional_entropy(rho, (1.0, 0.0, 0.0))
    assert along_x - best > 1e-6


def test_cs_reduction_rejects_non_psd_state():
    with pytest.raises(InvalidStateError, match="L4"):
        discord_cs_rows(np.array([0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0]))


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
        one = discord_cs_rows(m.params)
        assert mutual[k] == one[0][0]
        assert classical[k] == one[1][0]
        assert axis[k].tolist() == one[2][0].tolist()


def test_cs_rows_span_chunks():
    # Enough copies that the rows the certificate leaves to the grid span
    # more than one grid chunk.
    params = params_of(cs_batch())
    left = int(np.isnan(discord_module._certified_phi(cs_rows_data(params))).sum())
    reps = _CS_CHUNK // left + 2
    assert left * reps > _CS_CHUNK
    small = discord_cs_rows(params)
    big = discord_cs_rows(np.tile(params, (reps, 1)))
    for a, b in zip(small, big):
        assert np.array_equal(np.tile(a, (reps,) + (1,) * (a.ndim - 1)), b)


def test_cs_rows_reject_one_non_psd_state():
    states = cs_batch()[:20]
    states.insert(11, CSDensityMatrix(0.25, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0))
    with pytest.raises(InvalidStateError, match="eigenvalue L4 = "):
        discord_cs_rows(params_of(states))


def test_cs_rows_zoom_interior_optimum_in_a_batch():
    states = cs_batch()[:40]
    inner = CSDensityMatrix(*INTERIOR_OPTIMUM)
    states.insert(17, inner)
    mutual, classical, axis = discord_cs_rows(params_of(states))
    assert classical[17] == discord_cs_rows(inner.params)[1][0]
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


def explicit_conditional_entropy(rho, axis):
    """sum_s p_s S(rho_A | s) from the projectors (1 +- n.sigma)/2, not the
    Bloch kernel."""
    ns = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    total = 0.0
    for proj in (0.5 * (np.eye(2) + ns), 0.5 * (np.eye(2) - ns)):
        op = np.kron(np.eye(2), proj)
        post = op @ rho @ op
        p = post.trace().real
        if p > 1e-15:
            total += p * von_neumann_entropy(reduced_first(post) / p)
    return total


@pytest.mark.parametrize("rank", [4, 3, 2, 1])
def test_numeric_optimum_on_generic_states(rank):
    # A 181 x 360 grid over the whole sphere never beats the refined optimum,
    # and the reported basis reproduces it through explicit projectors.
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
        explicit = s_a - explicit_conditional_entropy(rho, res.axis)
        assert res.classical_correlation == pytest.approx(explicit, abs=1e-12)


@pytest.mark.parametrize("rank", [4, 2, 1])
def test_even_objective_hemisphere_matches_the_whole_sphere(rank):
    # The objective is even in n, which lets the first pass's great circles
    # stop at half a turn: an 8 x 8 grid over phi in [0, pi) has a minimum
    # never above that of the whole sphere's grid at the same spacing.
    n_th, n_ph = 8, 8
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


# The bytes of one row's first-pass directions, 99 of 3 doubles.
FIRST_ROW_BYTES = 99 * 3 * 8


@pytest.mark.parametrize("measured", ["second", "first"])
def test_numeric_rows_equal_one_row_calls_bit_for_bit(measured, monkeypatch):
    # Small first-pass blocks, 8 rows of 99 directions, and kernel passes of
    # 3 rows, so the batch crosses the boundaries of both.
    monkeypatch.setattr(discord_module, "_FIRST_BYTES", 8 * FIRST_ROW_BYTES)
    monkeypatch.setattr(kernels_module, "_DIRECTIONS", 3 * 99)
    rhos = numeric_batch()
    assert len(rhos) > 2 * 8 and len(rhos) % 8 and len(rhos) % 3
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
    # The first pass takes every row on 99 directions, +z, x and y, T's
    # three right singular vectors and three half great circles of 31
    # points, in one kernel call per block of at most _FIRST_BYTES of
    # directions (441 rows, so one call for these 20); every zoom step that
    # follows is a 3x3 stencil call and a Newton trial call over the rows
    # still zooming, the first taking all of them.  The zoom stays within
    # 350 directions per row (it takes about 31 here).
    shapes = count_kernel_shapes(monkeypatch)
    rhos = numeric_batch()
    discord_numeric_rows(rhos)
    per_block = discord_module._FIRST_BYTES // FIRST_ROW_BYTES
    assert 1 + 2 + 3 + 3 * 31 == 99
    assert len(rhos) <= per_block == 441
    assert shapes[0] == (len(rhos), 99, 3)
    zoom = shapes[1:]
    assert zoom[0] == (len(rhos), 9, 3)
    assert all(s[0] <= len(rhos) and s[1:] in {(9, 3), (1, 3)} for s in zoom)
    assert sum(s[0] * s[1] for s in zoom) <= 350 * len(rhos)


def capture_kernel_directions(monkeypatch):
    """Copies of the directions of every objective call the discord module makes."""
    calls = []
    kernel = discord_module.conditional_entropy_dirs

    def capturing(x, y, T, n):
        calls.append(np.array(n))
        return kernel(x, y, T, n)

    monkeypatch.setattr(discord_module, "conditional_entropy_dirs", capturing)
    return calls


def first_pass_directions(rhos):
    """The first pass's 99 directions of each state, (R, 99, 3), built here
    state by state: +z, x and y, the rows v1, v2, v3 of svd(T)[2], then the
    half circles cos(k pi/32) vi + sin(k pi/32) vj through each pair."""
    cos, sin = discord_module._ARC_COS[:, None], discord_module._ARC_SIN[:, None]
    rows = []
    for v in np.linalg.svd(bloch_data(rhos)[2])[2]:
        arcs = [cos * v[i] + sin * v[j] for i, j in ((0, 1), (0, 2), (1, 2))]
        rows.append(np.concatenate([np.eye(3)[[2, 0, 1]], v, *arcs]))
    return np.array(rows)


@pytest.mark.parametrize("batch", ["numeric", "verify-dense"])
def test_first_pass_directions_bit_for_bit(batch, monkeypatch):
    # The first kernel call holds every row's directions, in the order that
    # settles ties; verify's 96-state chunks take one first-pass call.
    rhos = numeric_batch() if batch == "numeric" else verify_dense_states()
    calls = capture_kernel_directions(monkeypatch)
    discord_numeric_rows(rhos)
    assert calls[0].tobytes() == first_pass_directions(rhos).tobytes()
    assert [len(n) for n in calls if n.shape[1] == 99] == [len(rhos)]


def test_first_pass_blocks_are_bounded(monkeypatch):
    # A stack past the block bound takes first-pass calls of at most
    # _FIRST_BYTES of directions, 441 rows.
    per_block = discord_module._FIRST_BYTES // FIRST_ROW_BYTES
    rng = np.random.default_rng(41)
    rhos = np.array([random_density4(rng, 1 + k % 4) for k in range(2 * per_block + 5)])
    shapes = count_kernel_shapes(monkeypatch)
    discord_numeric_rows(rhos)
    assert [s[0] for s in shapes if s[1] == 99] == [per_block, per_block, 5]


def test_numeric_zoom_follows_a_valley(monkeypatch):
    # The interior optimum lies along a flat valley, which a great circle of
    # the first pass crosses; the finish's trust radius grows while it moves
    # along it, so it arrives in about 100 directions.
    m = CSDensityMatrix(*INTERIOR_OPTIMUM)
    mutual, classical, _ = discord_cs_rows(m.params)
    want = mutual[0] - classical[0]
    shapes = count_kernel_shapes(monkeypatch)
    got = discord_numeric(m.to_matrix()).discord
    assert shapes[0][1] == 99
    assert sum(s[1] for s in shapes[1:]) < 200
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


# CS rows whose optimum lies inside (0, 1) in n_x, at |n_x| = 0.874, 0.924,
# 0.989 and 0.997.  A first pass without great circles through T's right
# singular vectors stopped these at the x endpoint, 5.0e-5, 1.1e-5, 5.3e-7
# and 8.2e-9 above the optimum.
INTERIOR_ROWS = (
    (0.331726, -0.097675, 0.032078, -0.151324, 0.015065, 0.274577, 0.04465),
    (0.232377, 0.089095, 0.161606, 0.11269, 0.139407, 0.160407, 0.219854),
    (0.275712, -0.20108, -0.001504, -0.163068, 0.044205, 0.137067, 0.187759),
    (0.158362, -0.10404, 0.030295, 0.110828, -0.055323, -0.081384, -0.200543),
)


def test_sphere_search_meets_interior_cs_optima():
    params = np.array(INTERIOR_ROWS)
    mutual, classical, axis = discord_cs_rows(params)
    assert np.all((0.8 < abs(axis[:, 0])) & (abs(axis[:, 0]) < 0.999))
    rhos = cs_dense(params)
    rng = np.random.default_rng(43)
    us = [np.kron(random_su2(rng), random_su2(rng)) for _ in rhos]
    rotated = np.array([u @ rho @ u.conj().T for u, rho in zip(us, rhos)])
    for states in (rhos, rotated):
        got_mutual, got_classical, _ = discord_numeric_rows(states)
        gap = (got_mutual - got_classical) - (mutual - classical)
        assert np.max(np.abs(gap)) < 1e-12


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
    # The interior-optimum state is refined inside a batch: one point per
    # certified row, one grid call over the rows the certificate leaves,
    # then 9-point steps over the rows to refine only, and the refinement
    # lifts its classical correlation above the value at its best grid point.
    states = cs_batch()[:40]
    states.insert(17, CSDensityMatrix(*INTERIOR_OPTIMUM))
    params = params_of(states)
    left = np.isnan(discord_module._certified_phi(cs_rows_data(params)))
    assert left[17] and 0 < left.sum() < len(states)
    shapes = []
    objective = discord_module._cs_objective

    def counting(*args):
        values = objective(*args)
        shapes.append(values.shape)
        return values

    monkeypatch.setattr(discord_module, "_cs_objective", counting)
    _, refined, _ = discord_cs_rows(params)
    assert shapes[0] == (len(states) - left.sum(), 1)
    assert shapes[1] == (left.sum(), discord_module._CS_POINTS)
    assert len(shapes) > 2
    assert all(s[0] <= left.sum() and s[1] == 9 for s in shapes[2:])

    monkeypatch.setattr(discord_module, "_refine_rows", lambda d, p, f, h: (p, f))
    _, grid_only, _ = discord_cs_rows(params)
    assert refined[17] > grid_only[17]


def cs_rows_data(params):
    """_cs_objective's arguments for CS rows as discord_cs_rows builds them."""
    x1, y1, txx, *block = _cs_entries(params)
    return np.stack([x1, y1, txx, _top_singular(*block)[0]], axis=1)


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
    entries = blocks.reshape(-1, 4).T  # a, b, c, d of [[a, b], [c, d]]
    (s_max, s_min), v = _top_singular(*entries), _top_vector(*entries)
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
    params = params_of([row_425, CSDensityMatrix(*NARROW_VALLEY)])
    rhos = cs_dense(params)
    mutual, classical, axis = discord_cs_rows(params)
    best = [unmeasured_entropy(rho) for rho in rhos] - classical
    data, _ = cs_objective_data(params)
    ends = discord_module._cs_objective(data, np.array([0.0, 0.5 * math.pi]))
    assert np.all(np.min(ends, axis=1) - best > [2e-5, 7e-9])
    assert 0.84 < axis[0, 0] < 0.86 and 0.07 < axis[1, 0] < 0.09
    n_mutual, n_classical, _ = discord_numeric_rows(rhos)
    gap = (mutual - classical) - (n_mutual - n_classical)
    assert np.max(np.abs(gap)) < 1e-12


# A CS state whose valley lies inside the grid's first spacing from the
# n_x = 1 end: the optimum is at n_x = 0.99967, 5.6e-10 below that end,
# which is the best of the 33 grid points.
ENDPOINT_VALLEY = (0.195309, 0.159205, 0.0, 0.180164, 0.0, 0.09426, 0.221153)


@pytest.mark.xfail(
    strict=True, reason="the dense finish stops at the x end, 5.56e-10 above"
)
def test_sphere_search_meets_the_endpoint_valley():
    # The valley lies within the great circles' spacing of the x endpoint,
    # where the first pass's best direction and the Newton finish both stop.
    params = np.array([ENDPOINT_VALLEY])
    mutual, classical, _ = discord_cs_rows(params)
    n_mutual, n_classical, _ = discord_numeric_rows(cs_dense(params))
    gap = (n_mutual - n_classical) - (mutual - classical)
    assert np.max(np.abs(gap)) < 1e-12


def entropy_h(data, tau):
    """H(tau) = eta(D) - eta((D + N) / 2) - eta((D - N) / 2) in nats, per row.

    D = 1 + y1 tau and N = |(x1 + T_xx tau, s sqrt(1 - tau^2))| for data
    rows (x1, y1, T_xx, s); tau broadcasts against (R, 1).
    """
    x1, y1, txx, s = (a[:, None] for a in data.T)
    d = 1.0 + y1 * tau
    n = np.sqrt((x1 + txx * tau) ** 2 + s * s * (1.0 - tau * tau))
    h = d * np.log(d)
    for w in (0.5 * (d + n), 0.5 * (d - n)):
        h -= w * np.log(np.where(w > 0.0, w, 1.0))
    return h


def objective_bits(data, t):
    """The CS objective at n_x = t from entropy_h: (H(t) + H(-t)) / (2 ln 2)."""
    return (entropy_h(data, t) + entropy_h(data, -t)) / (2.0 * math.log(2.0))


def test_entropy_h_is_the_cs_objective():
    rng = np.random.default_rng(3)
    states = [random_cs(rng, rank) for rank in (4, 3) for _ in range(50)]
    data = cs_rows_data(params_of(states))
    phi = np.linspace(0.0, 0.5 * math.pi, 17)
    got = objective_bits(data, np.cos(phi))
    assert np.allclose(got, discord_module._cs_objective(data, phi), rtol=0, atol=1e-15)


def test_slopes_match_central_differences():
    # H' and H'' of _slopes against differences of entropy_h, at random tau
    # where N and D - N stay clear of 0.
    rng = np.random.default_rng(17)
    states = [random_cs(rng, rank) for rank in (4, 3, 2) for _ in range(300)]
    data = cs_rows_data(params_of(states))
    tau = rng.uniform(-0.95, 0.95, size=len(data))[:, None]
    x1, y1, txx, s = (a[:, None] for a in data.T)
    n = np.sqrt((x1 + txx * tau) ** 2 + s * s * (1.0 - tau * tau))
    clear = ((n > 0.05) & (1.0 + y1 * tau - n > 0.05))[:, 0]
    assert clear.sum() > 500
    data, tau = data[clear], tau[clear]
    h1, h2 = discord_module._slopes(data, tau[:, 0])
    dh = 1e-4
    f = [entropy_h(data, tau + k * dh)[:, 0] for k in (-1, 0, 1)]
    assert np.allclose(h1, (f[2] - f[0]) / (2 * dh), rtol=1e-6, atol=1e-7)
    assert np.allclose(h2, (f[2] - 2 * f[1] + f[0]) / dh**2, rtol=1e-5, atol=1e-5)


def test_cs_certificate_is_sound():
    # No certified endpoint lies above any point of a 4,097-point phi grid
    # by more than rounding, on random CS states of ranks 4, 3 and 2.
    rng = np.random.default_rng(5)
    states = [random_cs(rng, rank) for rank in (4, 3, 2) for _ in range(5000)]
    data = cs_rows_data(params_of(states))
    phi = discord_module._certified_phi(data)
    assert set(np.unique(phi[~np.isnan(phi)])) == {0.0, 0.5 * math.pi}
    c = np.flatnonzero(~np.isnan(phi))
    assert len(c) > 0.95 * len(data)
    t = np.cos(np.linspace(0.0, 0.5 * math.pi, 4097))
    worst = -np.inf
    for lo in range(0, len(c), 32):
        k = c[lo : lo + 32]
        end = objective_bits(data[k], np.cos(phi[k])[:, None])[:, 0]
        worst = max(worst, np.max(end - objective_bits(data[k], t).min(axis=1)))
    assert worst <= 1e-15


# A CS state at the edge of the t = 0 certificate: its minimum is at n_x = 1,
# 2.8e-5 below n_x = 0, and a kappa 5% too large would certify n_x = 0.
KAPPA_EDGE = (0.260733, 0.024999, 0.021061, 0.045346, 0.019239, -0.003638, -0.057643)


def test_cs_certificate_leaves_valleys_to_the_grid():
    rng = np.random.default_rng(5)
    row_425 = [random_cs(rng, 2) for _ in range(3000)][425]
    rows = [INTERIOR_OPTIMUM, NARROW_VALLEY, row_425.params, ENDPOINT_VALLEY]
    rows = np.array(rows + [KAPPA_EDGE], dtype=float)
    data = cs_rows_data(rows)
    assert np.all(np.isnan(discord_module._certified_phi(data)))
    ends = objective_bits(data[-1:], np.array([1.0, 0.0]))[0]
    assert ends[1] - ends[0] > 2.8e-5


def test_cs_certificate_takes_n_x_one():
    # Delta = T_xx^2 - x1^2 - s^2 >= 0, s = 0 (a zero yz block), and the
    # large-pore states, where T_xx = s and x1 = 0: H'' <= 0 on [-1, 1].
    rng = np.random.default_rng(29)
    states = [random_cs(rng, rank) for rank in (4, 3, 2) for _ in range(300)]
    params = params_of(states)
    data = cs_rows_data(params)
    delta = data[:, 2] ** 2 - data[:, 0] ** 2 - data[:, 3] ** 2
    assert (delta > 0).sum() > 30
    small = rng.uniform(-0.05, 0.05, size=(50, 3))
    zero_block = [(0.25, p2, 0.0, p4, 0.0, p6, p6) for p2, p4, p6 in small]
    betas = [0.1, 1.0, 3.0, 10.0, 40.0]
    large_pore = cs_rows(correlation_grid([math.inf], betas, [0.0, 1.0]))
    rows = np.concatenate([params[delta > 0], zero_block, large_pore])
    data = cs_rows_data(rows)
    assert np.all(data[len(params[delta > 0]) : -len(large_pore), 3] == 0.0)
    assert np.all(discord_module._certified_phi(data) == 0.0)


def paper_grid_params():
    """The paper's sweep grid: N 3 6 9 25 inf, beta 1..10, tau 0..6.28 step 0.01."""
    taus = [0.01 * k for k in range(629)]
    return cs_rows(correlation_grid((3, 6, 9, 25, math.inf), range(1, 11), taus))


def test_cs_certificate_on_the_paper_grid():
    # At least 97% of the 31,450 rows certify, and each certified endpoint
    # is the 33-point grid's minimum to within rounding.
    data = cs_rows_data(paper_grid_params())
    phi = discord_module._certified_phi(data)
    c = ~np.isnan(phi)
    assert c.sum() >= 0.97 * len(data)
    end = discord_module._cs_objective(data[c], phi[c, None])[:, 0]
    grid = np.linspace(0.0, 0.5 * math.pi, discord_module._CS_POINTS)
    chunks = np.array_split(data[c], 64)
    low = np.concatenate([discord_module._cs_objective(d, grid).min(1) for d in chunks])
    assert np.max(np.abs(end - low)) <= 2e-15


def test_cs_rows_refine_a_valley_at_an_endpoint():
    # The endpoint n_x = 1 is the best grid point, but f'(1) > 0: the row is
    # refined from that end and meets the minimum of the objective on a
    # fine half circle in the (x, v_max) plane, 5.6e-10 below the end.
    params = np.array([ENDPOINT_VALLEY])
    data = cs_rows_data(params)
    h1, h2 = discord_module._slopes(data, np.array([[1.0], [-1.0], [0.0]]))
    assert h1[0, 0] - h1[1, 0] > 4e-6 and h2[2, 0] < 0.0
    mutual, classical, axis = discord_cs_rows(params)
    assert 0.9996 < axis[0, 0] < 0.9997
    rho = cs_dense(ENDPOINT_VALLEY)
    x, y, T = bloch_data(rho)
    v_max = _top_vector(*T[1:, 1:].reshape(4, 1))[0]
    angle = np.linspace(0.0, math.pi, 2**16 + 1)[:, None]
    n = np.concatenate([np.cos(angle), np.sin(angle) * v_max], axis=1)
    circle = conditional_entropy_dirs(x, y, T, n)
    best = unmeasured_entropy(rho) - classical[0]
    assert abs(best - circle.min()) < 1e-13
    assert circle[0] - best > 5e-10
