"""Edge paths of the rank-one engine and the deflation loop: a restart
from a start with zero contraction, exhausted restarts, and truncation on
a zero target."""

import numpy as np

from hopca.decompose import contract_u, init_rank_one, tpa, tpa_rank_one
from hopca.generalized import general_cp_tpa_rank_one, l1_penalty
from hopca.sparse import sparse_cp_tpa_rank_one


def dead_start_tensor():
    """A tensor whose SVD start (v, w) has a zero u-contraction."""
    x = np.zeros((3, 2, 3))
    x[0, 0, 1] = x[1, 0, 2] = 3.0
    x[2, 1, 0] = 4.0
    return x


def test_dead_start_has_zero_contraction():
    x = dead_start_tensor()
    v, w = init_rank_one(x, "hosvd", None)
    assert not np.any(contract_u(x, v, w))


def test_zero_contraction_restarts_the_plain_fit_from_a_random_start():
    fit = tpa_rank_one(dead_start_tensor())
    assert np.isclose(fit.d, 4.0)
    assert fit.converged


def test_zero_contraction_at_a_positive_level_gives_the_zero_fit():
    fit = sparse_cp_tpa_rank_one(dead_start_tensor(), (0.5, 0.0, 0.0))
    assert fit.d == 0.0 and fit.converged and fit.iterations == 1
    assert not (fit.u.any() or fit.v.any() or fit.w.any())
    assert fit.u.shape == (3,) and fit.v.shape == (2,) and fit.w.shape == (3,)


def test_exhausted_restarts_give_the_zero_fit():
    x = np.zeros((3, 4, 2))
    fit = general_cp_tpa_rank_one(x, [(l1_penalty(), 0.0)] * 3)
    assert fit.d == 0.0 and fit.converged
    assert not (fit.u.any() or fit.v.any() or fit.w.any())


def test_a_vanished_residual_truncates_the_deflation():
    e = np.eye(3)[0]
    model = tpa(2.0 * np.multiply.outer(np.outer(e, e), e), 3)
    assert np.array_equal(model.d, [2.0, 0.0, 0.0])
    assert model.diagnostics["truncated_at"] == 1


def test_a_zero_tensor_truncates_before_any_loop():
    model = tpa(np.zeros((3, 4, 2)), 2)
    assert model.diagnostics["truncated_at"] == 0
    assert model.diagnostics["iterations"] == []
    assert not np.any(model.d)
