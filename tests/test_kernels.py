import math

import numpy as np
import pytest

import nanospin_qcorr._kernels as kernels
from nanospin_qcorr import bloch_data
from nanospin_qcorr._kernels import (
    _H_FLOOR,
    _P_FLOOR,
    conditional_entropy_dirs,
    conditional_entropy_grid,
    conditional_entropy_point,
    kernel_backend,
)
from helpers import BELL_PHI_PLUS, numeric_batch, random_density4, verify_dense_states


def bloch_of(rho):
    x, y, T = bloch_data(rho)
    return np.asarray(x), np.asarray(y), np.asarray(T)


def test_backend_report():
    assert kernel_backend() == "numpy"


def test_grid_agrees_with_point(rng):
    thetas = np.linspace(0.0, np.pi, 9)
    phis = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    for _ in range(5):
        x, y, T = bloch_of(random_density4(rng))
        grid = conditional_entropy_grid(x, y, T, thetas, phis)
        assert grid.shape == (9, 10)
        for i in (0, 4, 8):
            for j in (0, 3, 7):
                pt = conditional_entropy_point(
                    x, y, T, float(thetas[i]), float(phis[j])
                )
                assert grid[i, j] == pytest.approx(pt, abs=1e-15)


def test_batch_axes_match_single_states(rng):
    thetas = np.linspace(0.0, np.pi, 9)
    phis = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    data = [bloch_of(random_density4(rng)) for _ in range(6)]
    x, y, T = (np.array(a).reshape((2, 3) + a[0].shape) for a in zip(*data))
    grid = conditional_entropy_grid(x, y, T, thetas, phis)
    assert grid.shape == (2, 3, 9, 10)
    for k, (xk, yk, Tk) in enumerate(data):
        single = conditional_entropy_grid(xk, yk, Tk, thetas, phis)
        assert np.array_equal(grid.reshape(6, 9, 10)[k], single)


def test_objective_bounds(rng):
    # Conditional entropy of a qubit lands in [0, 1].
    thetas = np.linspace(0.0, np.pi, 16)
    phis = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for _ in range(20):
        x, y, T = bloch_of(random_density4(rng))
        grid = conditional_entropy_grid(x, y, T, thetas, phis)
        assert np.all(grid >= -1e-12)
        assert np.all(grid <= 1.0 + 1e-12)


def test_degenerate_outcome_guard():
    # Measuring a pure product state along its own axis drives one
    # outcome probability to zero; the kernel must not emit NaN.
    up = np.diag([1.0, 0.0]).astype(complex)
    rho = np.kron(up, up)
    x, y, T = bloch_of(rho)
    val = conditional_entropy_point(x, y, T, 0.0, 0.0)
    assert val == pytest.approx(0.0, abs=1e-12)
    grid = conditional_entropy_grid(
        x, y, T, np.array([0.0, np.pi]), np.array([0.0])
    )
    assert np.all(np.isfinite(grid))


def test_bell_state_objective():
    # Any measurement of one Bell half leaves a pure conditional state.
    x, y, T = bloch_of(BELL_PHI_PLUS)
    thetas = np.linspace(0.0, np.pi, 21)
    phis = np.linspace(0.0, 2.0 * np.pi, 21, endpoint=False)
    grid = conditional_entropy_grid(x, y, T, thetas, phis)
    assert np.max(np.abs(grid)) < 1e-12


def test_determinism(rng):
    x, y, T = bloch_of(random_density4(rng))
    thetas = np.linspace(0.0, np.pi, 12)
    phis = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    a = conditional_entropy_grid(x, y, T, thetas, phis)
    b = conditional_entropy_grid(x, y, T, thetas, phis)
    assert np.array_equal(a, b)


def test_directions_per_state_match_the_grid(rng):
    # Each state of a batch takes its own directions; its row equals the
    # shared-grid objective at those directions, bit for bit.
    data = [bloch_of(random_density4(rng)) for _ in range(4)]
    x, y, T = (np.array(a) for a in zip(*data))
    grids = [
        (np.linspace(0.1, 3.0, 3 + k), rng.uniform(0.0, 6.2, 5)) for k in range(4)
    ]
    n = []
    for thetas, phis in grids:
        st = np.sin(thetas)[:, None]
        cells = np.stack(
            np.broadcast_arrays(
                st * np.cos(phis), st * np.sin(phis), np.cos(thetas)[:, None]
            ),
            axis=-1,
        )
        n.append(cells.reshape(-1, 3)[:15])
    got = conditional_entropy_dirs(x, y, T, np.array(n))
    assert got.shape == (4, 15)
    for k, (thetas, phis) in enumerate(grids):
        want = conditional_entropy_grid(x[k], y[k], T[k], thetas, phis)
        assert np.array_equal(got[k], want.ravel()[:15])


def test_objective_is_even_in_the_direction(rng):
    # Measuring along -n swaps the two outcomes, p_+(-n) = p_-(n) and
    # a_+(-n) = a_-(n), so the objective is unchanged; the discord search
    # relies on this to grid a hemisphere only.
    states = [random_density4(rng, rank) for rank in (4, 2, 1) for _ in range(3)]
    states += [np.eye(4) / 4.0]
    x, y, T = bloch_data(np.array(states))
    n = rng.normal(size=(len(states), 300, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    plus = conditional_entropy_dirs(x, y, T, n)
    minus = conditional_entropy_dirs(x, y, T, -n)
    assert np.max(np.abs(plus - minus)) <= 1e-15


def nested_where_objective(x, y, T, n):
    """The objective as one expression, each floor an outer np.where: the
    reference the in-place, blocked kernel must equal bit for bit."""
    x = np.asarray(x, dtype=float)[..., :, None]
    y = np.asarray(y, dtype=float)[..., None, :]
    n = np.swapaxes(np.asarray(n, dtype=float), -1, -2)
    tn = np.asarray(T, dtype=float) @ n
    yn = (y @ n)[..., 0, :]
    res = np.zeros(yn.shape)
    for p, b in ((0.5 * (1.0 + yn), x + tn), (0.5 * (1.0 - yn), x - tn)):
        b0, b1, b2 = np.moveaxis(b, -2, 0)
        r = np.sqrt(b0 * b0 + b1 * b1 + b2 * b2) / np.maximum(2.0 * p, 1e-300)
        np.minimum(r, 1.0, out=r)
        h = np.zeros_like(p)
        for w in (0.5 * (1.0 - r), 0.5 * (1.0 + r)):
            live = w > _H_FLOOR
            h -= np.where(live, w * np.log(np.where(live, w, 1.0)), 0.0)
        res += np.where(p < _P_FLOOR, 0.0, p * (h / math.log(2.0)))
    return res


def floor_states():
    """States whose rows reach both floors: pure products measured along z
    (one outcome has p = 0) and pure states (r = 1, so one weight is 0 <=
    _H_FLOOR), besides generic ones."""
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    products = [np.kron(a, b).astype(complex) for a in (up, down) for b in (up, down)]
    rng = np.random.default_rng(7)
    pure = [random_density4(rng, 1) for _ in range(4)]
    return np.array(products + pure + [BELL_PHI_PLUS, np.eye(4) / 4.0])


def unit_directions(rng, rows, m):
    n = rng.normal(size=(rows, m, 3))
    n[:, :3] = np.eye(3)[::-1][: min(m, 3)]  # z first: the axes reach the floors
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


@pytest.mark.parametrize("m", [1, 9, 81, 230, 300])
def test_floors_give_the_nested_where_values_bit_for_bit(m):
    rng = np.random.default_rng(m)
    x, y, T = bloch_data(np.concatenate([floor_states(), numeric_batch()]))
    # Bloch data (not states) with y_z = a just below 1: along z, p_- is
    # below _P_FLOOR but not 0, and x - T z = 0 gives it a whole bit.
    for a in (np.nextafter(1.0, 0.0), 1.0 - 1e-15):
        x, y = (np.concatenate([v, [[0.0, 0.0, a]]]) for v in (x, y))
        T = np.concatenate([T, np.diag([0.0, 0.0, a])[None]])
    n = unit_directions(rng, len(x), m)
    want = nested_where_objective(x, y, T, n)
    # The p floor is reached with p_- above 0 (pure states reach the weight
    # floor), so dropping either floor changes some value.
    p_minus = 0.5 * (1.0 - np.einsum("ri,rmi->rm", y, n))
    assert np.any((p_minus > 0.0) & (p_minus < _P_FLOOR))
    got = conditional_entropy_dirs(x, y, T, n)
    assert got.tobytes() == want.tobytes()
    # A direction grid shared by every state takes the same values.
    shared = nested_where_objective(x, y, T, n[0])
    assert conditional_entropy_dirs(x, y, T, n[0]).tobytes() == shared.tobytes()


@pytest.mark.parametrize("batch", ["numeric", "verify-dense"])
def test_blocks_never_change_bits(monkeypatch, batch):
    # Passes of about 100 directions (one row of 230, a row of 81, eleven
    # rows of 9) give the values of one pass over every row.
    rhos = numeric_batch() if batch == "numeric" else verify_dense_states()
    x, y, T = bloch_data(rhos)
    rng = np.random.default_rng(3)
    for m in (1, 9, 81, 230):
        n = unit_directions(rng, len(rhos), m)
        monkeypatch.setattr(kernels, "_DIRECTIONS", 10**9)
        whole = conditional_entropy_dirs(x, y, T, n)
        monkeypatch.setattr(kernels, "_DIRECTIONS", 100)
        blocked = conditional_entropy_dirs(x, y, T, n)
        assert blocked.tobytes() == whole.tobytes()


def test_empty_inputs():
    # No rows, (0, M, 3), and rows without directions, (R, 0, 3).
    none = np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3, 3))
    assert conditional_entropy_dirs(*none, np.zeros((0, 5, 3))).shape == (0, 5)
    x, y, T = (np.repeat(a[None], 4, axis=0) for a in bloch_of(BELL_PHI_PLUS))
    assert conditional_entropy_dirs(x, y, T, np.zeros((4, 0, 3))).shape == (4, 0)
