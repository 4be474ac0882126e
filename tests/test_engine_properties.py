"""Reductions and monotonicity of the rank-one engine, checked as
properties over random small shapes, seeds and penalty levels.

Each property is the randomized form of a hand-picked test in
test_sparse.py / test_generalized.py and uses the same tolerance.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca.decompose import SolverConfig, contract_u, tpa_rank_one
from hopca.generalized import (
    QuadOperators,
    gcp_rank_one,
    general_cp_tpa_rank_one,
    group_lasso_penalty,
    l1_penalty,
    nonneg_l1_penalty,
    sparse_gcp_rank_one,
)
from hopca.sparse import sparse_cp_tpa_rank_one

PROPERTY = settings(max_examples=25, deadline=None)

dims = st.tuples(*(st.integers(2, 7) for _ in range(3)))
seeds = st.integers(0, 2**32 - 1)
fractions = st.tuples(*(st.floats(0.0, 0.6) for _ in range(3)))


def instance(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    v0, w0 = (unit(rng, dim) for dim in shape[1:])
    lam_max = float(np.max(np.abs(contract_u(x, v0, w0))))
    return rng, x, lam_max


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pd(rng, dim, spread=2.0):
    g = rng.standard_normal((dim, dim))
    q = g @ g.T / dim + spread * np.eye(dim)
    return 0.5 * (q + q.T)


def assert_same_fit(a, b, atol):
    assert a.d == pytest.approx(b.d, abs=atol)
    for fa, fb in ((a.u, b.u), (a.v, b.v), (a.w, b.w)):
        npt.assert_allclose(fa, fb, atol=atol)


@PROPERTY
@given(dims, seeds)
def test_sparse_at_level_zero_is_the_power_scheme(shape, seed):
    _, x, _ = instance(shape, seed)
    cfg = SolverConfig(tol=1e-12)
    sparse = sparse_cp_tpa_rank_one(x, (0.0, 0.0, 0.0), cfg)
    plain = tpa_rank_one(x, cfg)
    assert_same_fit(sparse, plain, 1e-12)
    npt.assert_allclose(sparse.objective_trace, plain.objective_trace,
                        atol=1e-12)


@PROPERTY
@given(dims, seeds, fractions)
def test_general_l1_is_the_sparse_fit(shape, seed, fracs):
    _, x, lam_max = instance(shape, seed)
    lam = tuple(f * lam_max for f in fracs)
    cfg = SolverConfig(tol=1e-12)
    pen = l1_penalty()
    general = general_cp_tpa_rank_one(x, tuple(zip((pen,) * 3, lam)), cfg)
    sparse = sparse_cp_tpa_rank_one(x, lam, cfg)
    assert_same_fit(general, sparse, 1e-12)
    npt.assert_allclose(general.objective_trace, sparse.objective_trace,
                        atol=1e-12)


@PROPERTY
@given(dims, seeds, fractions)
def test_sparse_gcp_under_identity_is_the_sparse_fit(shape, seed, fracs):
    _, x, lam_max = instance(shape, seed)
    lam = tuple(f * lam_max for f in fracs)
    cfg = SolverConfig(tol=1e-12)
    fit = sparse_gcp_rank_one(x, QuadOperators.identity(shape), lam, cfg)
    plain = sparse_cp_tpa_rank_one(x, lam, cfg)
    assert_same_fit(fit, plain, 1e-8)


@PROPERTY
@given(dims, seeds)
def test_sparse_gcp_at_level_zero_is_gcp(shape, seed):
    rng, x, _ = instance(shape, seed)
    q = QuadOperators(*(random_pd(rng, dim) for dim in shape))
    cfg = SolverConfig(tol=1e-12)
    a = sparse_gcp_rank_one(x, q, (0.0, 0.0, 0.0), cfg)
    b = gcp_rank_one(x, q, cfg)
    assert_same_fit(a, b, 1e-12)


def _penalty(kind, dim):
    if kind == "l1":
        return l1_penalty()
    if kind == "nonneg":
        return nonneg_l1_penalty()
    half = dim // 2
    return group_lasso_penalty([range(half), range(half, dim)])


@PROPERTY
@given(dims, seeds, fractions,
       st.tuples(*(st.sampled_from(("l1", "nonneg", "group"))
                   for _ in range(3))))
def test_penalized_objective_non_decreasing_at_fixed_levels(shape, seed,
                                                            fracs, kinds):
    rng, x, lam_max = instance(shape, seed)
    lam = tuple(f * lam_max for f in fracs)
    cfg = SolverConfig(tol=1e-13)
    fits = [sparse_cp_tpa_rank_one(x, lam, cfg),
            general_cp_tpa_rank_one(
                x, tuple((_penalty(kind, dim), level) for kind, dim, level
                         in zip(kinds, shape, lam)), cfg),
            sparse_gcp_rank_one(
                x, QuadOperators(*(random_pd(rng, dim) for dim in shape)),
                lam, cfg)]
    for fit in fits:
        assert np.all(np.diff(fit.objective_trace) >= -1e-10)
