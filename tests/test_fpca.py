"""Functional rank-one fits as properties: the tri-convex objective trace
is non-increasing and ends at the returned factors' loss, alpha = 0 is
the plain power scheme, and the block fit and rank-(1, 1, 1)
half-smoothing reach the same loss once both are run to convergence.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca import decompose
from hopca.decompose import SolverConfig, tpa_rank_one
from hopca.generalized import (
    FpcaFit,
    SmootherSet,
    fpca,
    fpca_half_smoothing,
    fpca_objective,
    fpca_rank_one,
)

PROPERTY = settings(max_examples=40, deadline=None)

dims = st.tuples(*(st.integers(3, 8) for _ in range(3)))
seeds = st.integers(0, 2**32 - 1)
alphas = st.floats(0.0, 5.0, allow_nan=False)


def tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@PROPERTY
@given(dims, seeds, alphas)
def test_trace_non_increasing_and_ends_at_objective(shape, seed, alpha):
    x = tensor(shape, seed)
    s = SmootherSet.second_difference(shape, alpha)
    fit = fpca_rank_one(x, s, SolverConfig(tol=1e-12, seed=seed))
    trace = fit.objective_trace
    assert trace.size >= 3
    assert np.all(np.diff(trace) <= 1e-10)
    assert trace[-1] == pytest.approx(
        fpca_objective(x, s, fit.u, fit.v, fit.w), rel=1e-10)


@PROPERTY
@given(dims, seeds)
def test_zero_alpha_is_power_scheme(shape, seed):
    x = tensor(shape, seed)
    cfg = SolverConfig(seed=seed)
    u, v, w, d = fpca_rank_one(x, SmootherSet.second_difference(shape, 0.0),
                               cfg).normalized()
    plain = tpa_rank_one(x, cfg)
    assert d == pytest.approx(plain.d, rel=1e-12)
    for got, want in ((u, plain.u), (v, plain.v), (w, plain.w)):
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_block_fit_and_half_smoothing_reach_the_same_loss(seed):
    x = tensor((7, 6, 5), seed)
    s = SmootherSet.second_difference(x.shape, alpha=1.0)
    cfg = SolverConfig(tol=1e-14, max_iter=2000)
    fit = fpca_rank_one(x, s, cfg)
    half = fpca_half_smoothing(x, s, (1, 1, 1), cfg)
    core = half.core[0, 0, 0]
    scale = abs(core) ** (1 / 3)
    loss = fpca_objective(x, s, half.U[:, 0] * scale * np.sign(core),
                          half.V[:, 0] * scale, half.W[:, 0] * scale)
    assert fpca_objective(x, s, fit.u, fit.v, fit.w) == pytest.approx(
        loss, rel=1e-10)


def test_deflated_components_draw_from_one_generator(monkeypatch):
    # deflate shares cfg's generator across components, so two random
    # starts differ; a fresh cfg.rng() per component repeats the first
    starts = []
    original = decompose.init_rank_one

    def init_rank_one(x, init, rng):
        v, w = original(x, init, rng)
        starts.append((x, v, w))
        return v, w

    monkeypatch.setattr(decompose, "init_rank_one", init_rank_one)
    x = tensor((6, 5, 4), 0)
    fpca(x, SmootherSet.second_difference(x.shape, 1.0), 2,
         SolverConfig(init="random", seed=3))
    firsts = {}
    for resid, v, w in starts:
        firsts.setdefault(id(resid), (v, w))
    (v1, w1), (v2, w2) = firsts.values()
    assert not np.array_equal(v1, v2) and not np.array_equal(w1, w2)


def test_default_start_fits_do_not_depend_on_the_generator():
    x = tensor((6, 5, 4), 1)
    s = SmootherSet.second_difference(x.shape, 0.5)
    fits = [fpca(x, s, 2, SolverConfig(seed=seed)) for seed in (0, 9)]
    for attr in ("U", "V", "W", "d"):
        assert np.array_equal(getattr(fits[0], attr), getattr(fits[1], attr))
    first = fpca_rank_one(x, s)
    assert np.array_equal(fits[0].U[:, 0], first.normalized()[0])
    assert fits[0].d[0] == first.normalized()[3]


def test_a_zero_fit_normalizes_to_zero_factors_and_weight():
    u, v, w, d = FpcaFit(np.zeros(3), np.ones(2), np.ones(4)).normalized()
    assert d == 0.0
    assert [f.tolist() for f in (u, v, w)] == [[0.0] * 3, [0.0] * 2,
                                               [0.0] * 4]
