"""The sparse CP-ALS, HOSVD and HOOI baselines at zero penalty are the
classic ones, checked bit for bit over random small shapes, seeds and
iteration caps: an unpenalized mode takes the exact least-squares or
singular-vector step, penalized or not.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca.decompose import SolverConfig, cp_als, hooi, hosvd
from hopca.sparse import PenaltySpec, sparse_cp_als, sparse_hooi, sparse_hosvd

PROPERTY = settings(max_examples=25, deadline=None)

dims = st.tuples(*(st.integers(2, 7) for _ in range(3)))
seeds = st.integers(0, 2**32 - 1)
iters = st.integers(1, 30)
inits = st.sampled_from(("hosvd", "random"))


def tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def ranks_for(shape, seed):
    rng = np.random.default_rng(seed + 1)
    return tuple(int(rng.integers(1, dim + 1)) for dim in shape)


def assert_same_tucker(a, b):
    for fa, fb in ((a.U, b.U), (a.V, b.V), (a.W, b.W), (a.core, b.core)):
        npt.assert_array_equal(fa, fb)


@PROPERTY
@given(dims, seeds, st.integers(1, 2), iters, inits)
def test_sparse_cp_als_at_zero_penalty_is_cp_als(shape, seed, K, max_iter,
                                                 init):
    x = tensor(shape, seed)
    cfg = SolverConfig(max_iter=max_iter, seed=seed, init=init)
    plain = cp_als(x, K, cfg)
    sparse = sparse_cp_als(x, K, PenaltySpec.none(), cfg)
    for fa, fb in ((plain.U, sparse.U), (plain.V, sparse.V),
                   (plain.W, sparse.W), (plain.d, sparse.d)):
        npt.assert_array_equal(fa, fb)


@PROPERTY
@given(dims, seeds)
def test_sparse_hosvd_at_zero_penalty_is_hosvd(shape, seed):
    x, ranks = tensor(shape, seed), ranks_for(shape, seed)
    assert_same_tucker(sparse_hosvd(x, ranks, PenaltySpec.none()),
                       hosvd(x, ranks))


@PROPERTY
@given(dims, seeds, iters)
def test_sparse_hooi_at_zero_penalty_is_hooi(shape, seed, max_iter):
    x, ranks = tensor(shape, seed), ranks_for(shape, seed)
    cfg = SolverConfig(max_iter=max_iter)
    assert_same_tucker(sparse_hooi(x, ranks, PenaltySpec.none(), cfg),
                       hooi(x, ranks, cfg))


@PROPERTY
@given(dims, seeds, st.sampled_from((0.3, "bic")))
def test_sparse_hosvd_unpenalized_modes_are_hosvd(shape, seed, lam):
    x, ranks = tensor(shape, seed), ranks_for(shape, seed)
    plain = hosvd(x, ranks)
    sparse = sparse_hosvd(x, ranks, PenaltySpec.lasso(u=lam))
    npt.assert_array_equal(sparse.V, plain.V)
    npt.assert_array_equal(sparse.W, plain.W)


@PROPERTY
@given(dims, seeds, st.sampled_from((None, 0.3, "bic")))
def test_one_sweep_of_sparse_hooi_is_not_converged(shape, seed, lam):
    # convergence is first checked at the second sweep
    x, ranks = tensor(shape, seed), ranks_for(shape, seed)
    model = sparse_hooi(x, ranks, PenaltySpec.lasso(u=lam),
                        SolverConfig(max_iter=1))
    assert model.diagnostics["converged"] is False
    assert model.diagnostics["iterations"] == 1
