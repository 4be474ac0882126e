"""The closed-form BIC path against the level-by-level loop it replaced.

The oracle thresholds the contraction and takes a norm at every grid
level.  The closed form must give the same nnz and the same choice on
every path, with BIC values within 1e-12."""

import numpy as np
import pytest

from hopca.evaluate import _bic, _bic_argmin, bic_path, default_lambda_grid
from hopca.sparse import positive_threshold, soft_threshold

TRIALS = 2400


def loop_bic_path(norm_sq, size, contraction, grid, threshold):
    """The level-by-level path: threshold, count, normalize, contract."""
    values = np.zeros(len(grid))
    nnz = np.zeros(len(grid), dtype=int)
    for i, lam in enumerate(grid):
        f = threshold(contraction, lam)
        nn = int(np.count_nonzero(f))
        nnz[i] = nn
        if nn == 0:
            resid_sq = norm_sq
        else:
            f = f / np.linalg.norm(f)
            resid_sq = norm_sq - float(f @ contraction) ** 2
        values[i] = _bic(resid_sq, nn, size)
    return values, nnz


def random_path(rng, case):
    """One contraction, grid, threshold and tensor norm of the given case."""
    n = int(rng.integers(1, 400))
    c = rng.standard_normal(n) * rng.exponential(3.0)
    threshold = soft_threshold if rng.random() < 0.5 else positive_threshold
    if case == "ties":
        # equal magnitudes below a unique largest entry
        src = rng.integers(0, n, n // 2)
        dst = rng.integers(0, n, n // 2)
        c[dst] = c[src] * rng.choice([-1.0, 1.0], n // 2)
        top = np.argmax(np.abs(c))
        c[top] *= 1.5
    elif case == "zero":
        c[:] = 0.0
    elif case == "negative":
        c = -np.abs(c)
        threshold = positive_threshold
    elif case == "sparse":
        c[rng.random(n) < 0.7] = 0.0
    a = np.abs(threshold(c, 0.0))
    top = float(a.max())
    grid = default_lambda_grid(top)
    if case == "on-entries":
        # levels equal to entries of |c|, including the largest
        grid = np.unique(np.concatenate([grid, rng.choice(a, 5), [top]]))
    elif case == "past-max":
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 50)
                               * (top or 1.0)])
    norm_sq = float(c @ c) * (1.0 + rng.uniform(0.2, 20.0)) + rng.random()
    size = n * int(rng.integers(10, 2000))
    return norm_sq, size, c, grid, threshold


CASES = ("plain", "ties", "on-entries", "zero", "negative", "sparse",
         "past-max")


@pytest.mark.parametrize("case", CASES)
def test_closed_form_path_matches_the_loop(case):
    rng = np.random.default_rng(CASES.index(case))
    worst = 0.0
    for _ in range(TRIALS // len(CASES) + 1):
        args = random_path(rng, case)
        values, nnz = bic_path(*args)
        ref_values, ref_nnz = loop_bic_path(*args)
        assert np.array_equal(nnz, ref_nnz)
        assert _bic_argmin(values) == _bic_argmin(ref_values)
        worst = max(worst, float(np.max(np.abs(values - ref_values))))
        # one entry above the level: the same factor at every such level,
        # an exact tie that goes to the larger level, as in the loop
        single = values[nnz == 1]
        assert np.all(single == single[0]) if single.size else True
        assert np.all(values[nnz == 0] == _bic(args[0], 0, args[1]))
    assert worst <= 1e-12


def test_tied_largest_entries_tie_exactly_and_go_to_the_larger_level():
    # with the largest magnitudes tied, every level between them and the
    # next entry keeps the same factor direction: the closed form ties
    # exactly and picks the sparser level; the loop agrees to rounding
    c = np.array([3.0, -3.0, 3.0, 0.5, -0.2, 0.1])
    grid = np.array([0.0, 0.6, 1.0, 1.5, 2.0, 2.5, 2.9])
    values, nnz = bic_path(40.0, 200, c, grid, soft_threshold)
    ref_values, _ = loop_bic_path(40.0, 200, c, grid, soft_threshold)
    assert list(nnz) == [6, 3, 3, 3, 3, 3, 3]
    assert np.all(values[1:] == values[1])
    assert _bic_argmin(values) == grid.size - 1
    assert np.max(np.abs(values - ref_values)) <= 1e-12


def test_entries_just_above_a_level_lose_no_digits():
    # a naive S2 - 2 lam S1 + nnz lam^2 for ||f||^2 cancels to noise here
    lam = 1.0
    c = np.array([lam + 1e-9, lam + 2e-9, lam + 3e-9, 0.3, -0.2])
    grid = np.array([0.0, lam])
    values, nnz = bic_path(10.0, 50, c, grid, soft_threshold)
    ref_values, ref_nnz = loop_bic_path(10.0, 50, c, grid, soft_threshold)
    assert np.array_equal(nnz, ref_nnz)
    assert np.max(np.abs(values - ref_values)) <= 1e-12
