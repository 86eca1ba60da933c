import numpy as np
import pytest

from nanospin_qcorr import bloch_data
from nanospin_qcorr._kernels import (
    conditional_entropy_dirs,
    conditional_entropy_grid,
    conditional_entropy_point,
    kernel_backend,
)
from helpers import BELL_PHI_PLUS, random_density4


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
