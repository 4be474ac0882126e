"""The contraction and norm kernels against independent references, on
every memory layout a caller can hand them, every solver on a read-only
input, the warm start of the q-weighted lasso, and the rank-one engine
without ``np.tensordot``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca import generalized
from hopca.decompose import (
    SolverConfig,
    contract_u,
    contract_v,
    contract_w,
    normalize_or_zero,
    tpa_rank_one,
)
from hopca.generalized import QuadOperators, gcp_rank_one, sparse_gcp_rank_one
from hopca.simulate import METHODS
from hopca.sparse import PenaltySpec, soft_threshold, sparse_cp_tpa_rank_one
from hopca.tensor3 import frob_norm

PROPERTY = settings(max_examples=60, deadline=None)
shapes = st.tuples(*(st.integers(1, 6) for _ in range(3)))
layouts = st.sampled_from(["C", "F", "strided", "reversed"])
seeds = st.integers(0, 2**32 - 1)


def tensor(shape, seed, layout, scale=1.0):
    """A Gaussian tensor of ``shape`` in the given memory layout."""
    rng = np.random.default_rng(seed)
    n, p, q = shape
    if layout == "strided":  # every other entry of a larger array
        return scale * rng.standard_normal((2 * n, p + 1, 2 * q))[::2, 1:, ::2]
    if layout == "reversed":  # negative strides
        return scale * rng.standard_normal(shape)[::-1, :, ::-1]
    return np.asarray(scale * rng.standard_normal(shape), order=layout)


def check_close(got, want, bound):
    """|got - want| <= 1e-12 times the sum of absolute terms."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * bound)


@PROPERTY
@given(shapes, seeds, layouts)
def test_contractions_match_einsum(shape, seed, layout):
    x = tensor(shape, seed, layout)
    rng = np.random.default_rng(seed + 1)
    u, v, w = (rng.standard_normal(dim) for dim in shape)
    ax, au, av, aw = np.abs(x), np.abs(u), np.abs(v), np.abs(w)
    check_close(contract_u(x, v, w), np.einsum("ijk,j,k->i", x, v, w),
                np.einsum("ijk,j,k->i", ax, av, aw))
    check_close(contract_v(x, u, w), np.einsum("ijk,i,k->j", x, u, w),
                np.einsum("ijk,i,k->j", ax, au, aw))
    check_close(contract_w(x, u, v), np.einsum("ijk,i,j->k", x, u, v),
                np.einsum("ijk,i,j->k", ax, au, av))


@PROPERTY
@given(shapes, seeds, layouts)
def test_contractions_are_the_products_tensordot_forms(shape, seed, layout):
    # bit for bit: the kernels skip np.tensordot's overhead, not its sums
    x = tensor(shape, seed, layout)
    rng = np.random.default_rng(seed + 1)
    u, v, w = (rng.standard_normal(dim) for dim in shape)
    xw = np.tensordot(x, w, axes=(2, 0))
    assert np.array_equal(contract_u(x, v, w),
                          np.tensordot(xw, v, axes=(1, 0)))
    assert np.array_equal(contract_v(x, u, w),
                          np.tensordot(xw, u, axes=(0, 0)))
    assert np.array_equal(contract_w(x, u, v), np.tensordot(
        np.tensordot(u, x, axes=(0, 0)), v, axes=(0, 0)))
    assert normalize_or_zero(u)[1] == float(np.linalg.norm(u))


@PROPERTY
@given(shapes, seeds, layouts, st.sampled_from([1e-150, 1.0, 1e150]))
def test_frob_norm_matches_an_exact_sum(shape, seed, layout, scale):
    x = tensor(shape, seed, layout, scale)
    want = math.sqrt(math.fsum(x.ravel() ** 2))
    assert abs(frob_norm(x) - want) <= 1e-12 * want


@pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed"])
def test_zero_tensor_has_norm_exactly_zero(layout):
    x = 0.0 * tensor((3, 4, 5), 0, layout)
    assert frob_norm(x) == 0.0
    assert not np.any(contract_u(x, np.ones(4), np.ones(5)))
    assert not np.any(contract_v(x, np.ones(3), np.ones(5)))
    assert not np.any(contract_w(x, np.ones(3), np.ones(4)))


def read_only(seed=2):
    x = np.random.default_rng(seed).standard_normal((6, 5, 4))
    x.flags.writeable = False
    return x


def fit(name, x, pen):
    return METHODS[name].fit(x, 2, SolverConfig(), pen)


@pytest.mark.parametrize("name, pen", [
    *((name, PenaltySpec.lasso(0.3, 0.2) if METHODS[name].penalty else None)
      for name in sorted(METHODS)),
    ("sparse-cp-tpa", PenaltySpec.lasso("bic")),
])
def test_solvers_read_a_read_only_tensor(name, pen):
    x = read_only()
    before = x.tobytes()
    model = fit(name, x, pen)
    assert x.tobytes() == before
    fresh = fit(name, np.array(x), pen)  # a writable copy
    last = "core" if METHODS[name].tucker else "d"
    for attr in ("U", "V", "W", last):
        assert np.array_equal(getattr(model, attr), getattr(fresh, attr))


def random_pd(rng, dim):
    g = rng.standard_normal((dim, dim))
    return g @ g.T / dim + 0.5 * np.eye(dim)


@PROPERTY
@given(st.integers(2, 8), seeds, st.floats(0.0, 1.0))
def test_a_warm_start_at_the_minimizer_takes_no_step(dim, seed, frac):
    rng = np.random.default_rng(seed)
    q, y = random_pd(rng, dim), rng.standard_normal(dim)
    lam = frac * float(np.max(np.abs(q @ y)))
    cold = generalized.qnorm_lasso_solve(y, q, lam)
    steps = []

    def counted(*args):
        steps.append(args)
        return soft_threshold(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generalized, "soft_threshold", counted)
        warm = generalized.qnorm_lasso_solve(y, q, lam, start=cold)
    assert np.array_equal(warm, cold)
    assert not steps


@pytest.mark.parametrize("fit_rank_one", [
    lambda x, q: tpa_rank_one(x),
    lambda x, q: sparse_cp_tpa_rank_one(x, (0.3, 0.2, 0.1)),
    lambda x, q: gcp_rank_one(x, q),
    lambda x, q: sparse_gcp_rank_one(x, q, (0.3, 0.2, 0.1)),
], ids=["tpa", "sparse-cp-tpa", "gcp", "sparse-gcp"])
def test_the_rank_one_engine_calls_no_tensordot(monkeypatch, fit_rank_one):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 5, 4))
    q = QuadOperators(*(random_pd(rng, dim) for dim in x.shape))

    def refuse(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    monkeypatch.setattr(np, "tensordot", refuse)
    fit = fit_rank_one(x, q)
    assert fit.d > 0.0 and fit.iterations > 1
