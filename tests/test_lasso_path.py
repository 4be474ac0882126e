"""The ALS lasso step solves its whole BIC grid in one batch: one
coordinate descent over the (levels, n, K) stack, each level from the
step's warm start and under its own stop rule.  Every level equals the
one-level solve, and the step chooses the level that the sequential
chain (levels solved in descending order, each warm-started from the
level above) chooses, on seeded problems and at every step of the
sparse-cp-als fits of the benchmark's table-s2 instances 0-39.
Properties are derandomized, so every run draws the same examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca import sparse
from hopca.decompose import SolverConfig
from hopca.evaluate import _bic, _bic_argmin
from hopca.simulate import SimScenarioSpec, fit_method, simulate
from hopca.sparse import (ModePenalty, _lasso_path, _lasso_step,
                          _mode_update, lasso_coordinate_descent)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
LEVEL_RTOL = 1e-8


@st.composite
def problems(draw):
    """A Gram form (gram, corr) of K in 1..3 regressors, maybe with a dead
    one (a zero Gram row and column), a strictly increasing grid from 0
    past the zeroing level, and a warm start or None."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = rng.standard_normal((3 * k + 2, k))
    if k > 1 and draw(st.booleans()):
        design[:, draw(st.integers(0, k - 1))] = 0.0  # a dead regressor
    corr = rng.standard_normal((n, k)) * draw(st.sampled_from([1e-3, 1.0,
                                                               50.0]))
    top = 1.2 * np.abs(corr).max()
    grid = np.unique(np.concatenate([[0.0], rng.uniform(
        0.0, top, draw(st.integers(1, 12)))]))
    warm = (None if draw(st.booleans())
            else rng.standard_normal((n, k)) * np.abs(corr).max())
    return design.T @ design, corr, grid, warm


@PROPERTY
@given(problems())
def test_each_level_of_the_batch_is_the_one_level_solve(problem):
    gram, corr, grid, warm = problem
    batch = _lasso_path(gram, corr, grid, warm)
    assert batch.shape == (grid.size, *corr.shape)
    for level, coef in zip(grid, batch):
        one = lasso_coordinate_descent(gram, corr, level, warm)
        scale = max(np.abs(one).max(), np.finfo(float).tiny)
        assert np.abs(coef - one).max() <= LEVEL_RTOL * scale
    # a dead regressor's column stays zero
    dead = np.diag(gram) == 0.0
    assert not np.any(batch[:, :, dead])


def test_the_warm_start_and_the_grid_are_not_changed():
    gram, corr = np.eye(2), np.array([[3.0, -1.0], [0.5, 2.0]])
    grid, warm = np.array([0.0, 1.0, 4.0]), np.ones((2, 2))
    before = grid.copy(), warm.copy()
    _lasso_path(gram, corr, grid, warm)
    assert np.array_equal(grid, before[0]) and np.array_equal(warm, before[1])


def test_a_negative_level_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        _lasso_path(np.eye(1), np.ones((2, 1)), [0.5, -1.0])


def sequential_choice(grid, norm_sq, size, gram, corr, warm):
    """The level the step chose before the batch: levels solved in
    descending order, each warm-started from the one above."""
    grid = np.sort(grid)
    values, coef = np.empty(grid.size), warm
    for i in reversed(range(grid.size)):
        coef = lasso_coordinate_descent(gram, corr, float(grid[i]), coef)
        values[i] = _bic(norm_sq - 2.0 * float(np.sum(coef * corr))
                         + float(np.sum((coef @ gram) * coef)),
                         np.count_nonzero(coef), size)
    return float(grid[_bic_argmin(values)])


@pytest.mark.parametrize("seed", range(8))
def test_the_step_chooses_the_sequential_chains_level(seed):
    # a sparse two-column lasso on a noisy Khatri-Rao design, at the
    # scenario-2 sizes and with the default grid
    rng = np.random.default_rng(seed)
    n, k = 1000, 2
    truth = np.where(rng.random((n, k)) < 0.5, 0.0,
                     rng.standard_normal((n, k)) * 5.0)
    design = rng.standard_normal((400, k))
    y = truth @ design.T + rng.standard_normal((n, 400))
    gram, corr = design.T @ design, y @ design
    warm = truth + 0.1 * rng.standard_normal((n, k))
    mode_pen = ModePenalty("lasso", None)
    norm_sq, size = float(np.sum(y * y)), y.size
    coef, level = _lasso_step(_mode_update(mode_pen), gram, corr, warm,
                              norm_sq, size)
    assert level == sequential_choice(mode_pen.grid_for(corr), norm_sq, size,
                                      gram, corr, warm)
    assert np.array_equal(coef, _lasso_path(gram, corr, [level], warm)[0])


def table_s2_seed(index):
    """The seed of the benchmark's table-s2 instance ``index`` (seed 2024)."""
    if index == 0:
        return 2024
    return int(np.random.SeedSequence([2024, index]).generate_state(1)[0])


@pytest.mark.parametrize("index", range(40))
def test_every_step_of_a_table_s2_fit_chooses_as_the_chain(monkeypatch,
                                                           index):
    spec = SimScenarioSpec(2, k=2, seed=table_s2_seed(index))
    x = simulate(spec).x
    made, checked = _lasso_step, []

    def checking(upd, gram, corr, warm, norm_sq, size):
        coef, level = made(upd, gram, corr, warm, norm_sq, size)
        checked.append(level == sequential_choice(
            upd.grid(corr), norm_sq, size, gram, corr, warm))
        return coef, level

    monkeypatch.setattr(sparse, "_lasso_step", checking)
    fit_method("sparse-cp-als", x, spec, SolverConfig(max_iter=100))
    assert checked and all(checked)
