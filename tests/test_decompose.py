"""Classic decomposition checks: CP-ALS, HOSVD, HOOI, and the greedy
rank-one power scheme."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopca.decompose import (
    CpModel,
    SolverConfig,
    cp_als,
    hooi,
    hosvd,
    leading_singular_vectors,
    tpa,
    tpa_rank_one,
)
from hopca.tensor3 import frob_norm, matricize, outer3


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def orthonormal_cols(rng, dim, k):
    g = rng.standard_normal((dim, dim))
    return np.linalg.svd(g)[0][:, :k]


def rank_one_tensor(seed=0, dims=(6, 5, 4), weight=100.0):
    rng = np.random.default_rng(seed)
    u, v, w = (unit(rng, d) for d in dims)
    return outer3(u, v, w, weight), (u, v, w)


def rank_two_orthogonal(seed=1, dims=(8, 7, 6), weights=(200.0, 100.0)):
    rng = np.random.default_rng(seed)
    U = orthonormal_cols(rng, dims[0], 2)
    V = orthonormal_cols(rng, dims[1], 2)
    W = orthonormal_cols(rng, dims[2], 2)
    x = sum(weights[k] * outer3(U[:, k], V[:, k], W[:, k]) for k in range(2))
    return x, (U, V, W, np.asarray(weights))


class TestCpAls:
    def test_noiseless_rank_one(self):
        x, (u, v, w) = rank_one_tensor()
        model = cp_als(x, 1)
        assert model.d[0] == pytest.approx(100.0, rel=1e-6)
        assert abs(model.U[:, 0] @ u) >= 1 - 1e-8

    def test_zero_tensor(self):
        model = cp_als(np.zeros((3, 3, 3)), 1)
        assert model.d[0] == 0.0
        # factor columns stay unit even for the degenerate fit
        assert np.linalg.norm(model.U[:, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_noiseless_rank_two_orthogonal(self):
        x, (_, _, _, d_true) = rank_two_orthogonal()
        model = cp_als(x, 2)
        npt.assert_allclose(np.sort(model.d)[::-1], d_true, rtol=1e-4)

    def test_residual_non_increasing(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 6, 6))
        model = cp_als(x, 2, SolverConfig(max_iter=40, tol=1e-14))
        trace = model.diagnostics["residual_trace"]
        assert np.all(np.diff(trace) <= 1e-10)

    def test_unit_columns(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 6, 7))
        model = cp_als(x, 2)
        for factor in (model.U, model.V, model.W):
            npt.assert_allclose(np.linalg.norm(factor, axis=0), 1.0,
                                atol=1e-10)

    def test_weights_sorted_descending(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 6, 7))
        model = cp_als(x, 3)
        assert np.all(np.diff(model.d) <= 0)


class TestHosvd:
    def test_full_rank_preserves_norm(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5, 6))
        model = hosvd(x, (4, 5, 6))
        assert frob_norm(model.core) == pytest.approx(frob_norm(x),
                                                      abs=1e-10)
        npt.assert_allclose(model.reconstruct(), x, atol=1e-10)

    def test_rank_one_core_weight(self):
        x, _ = rank_one_tensor(seed=7)
        model = hosvd(x, (1, 1, 1))
        assert abs(model.core[0, 0, 0]) == pytest.approx(100.0, rel=1e-10)

    def test_factors_match_svd_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 5, 6))
        model = hosvd(x, (2, 2, 2))
        for mode, factor in ((1, model.U), (2, model.V), (3, model.W)):
            oracle = np.linalg.svd(matricize(x, mode),
                                   full_matrices=False)[0][:, :2]
            for k in range(2):
                assert abs(factor[:, k] @ oracle[:, k]) == pytest.approx(
                    1.0, abs=1e-10)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 5, 6))
        model = hosvd(x, (2, 3, 2))
        for factor in (model.U, model.V, model.W):
            npt.assert_allclose(factor.T @ factor,
                                np.eye(factor.shape[1]), atol=1e-10)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            hosvd(np.zeros((2, 2, 2)), (3, 1, 1))


def svd_oracle(m, k):
    """First k left singular vectors by plain SVD, largest entry positive."""
    uu, sv, _ = np.linalg.svd(m, full_matrices=False)
    uu = uu[:, :k]
    peak = uu[np.argmax(np.abs(uu), axis=0), np.arange(k)]
    return uu * np.sign(peak), sv


@st.composite
def matrix_and_k(draw):
    """A Gaussian matrix on either side of square, at scales 1e-3..1e3."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(1, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * rng.standard_normal((rows, cols)), k


@st.composite
def deficient_matrix_and_k(draw):
    """A rank-r matrix (r = 0 is the zero matrix) and a k above r, up to
    the row count, so k may exceed the smaller side."""
    rows, cols = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    rank = draw(st.integers(0, min(rows, cols) - 1))
    k = draw(st.integers(rank + 1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return m, rank, k


PROPERTY = settings(max_examples=60, deadline=None)


class TestLeadingSingularVectors:
    @PROPERTY
    @given(matrix_and_k())
    def test_orthonormal_columns(self, case):
        m, k = case
        u = leading_singular_vectors(m, k)
        assert u.shape == (m.shape[0], k)
        npt.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)

    @PROPERTY
    @given(matrix_and_k())
    def test_matches_svd_oracle_when_gap_is_healthy(self, case):
        m, k = case
        oracle, sv = svd_oracle(m, k)
        padded = np.append(sv, 0.0)
        # the gaps sigma_i - sigma_(i+1), i <= k, fix the first k vectors
        assume(np.min(padded[:k] - padded[1:k + 1]) >= 1e-3 * sv[0])
        npt.assert_allclose(leading_singular_vectors(m, k), oracle,
                            atol=1e-8)

    @PROPERTY
    @given(matrix_and_k())
    def test_values_match_svd(self, case):
        m, k = case
        _, values = leading_singular_vectors(m, k, return_values=True)
        sv = np.linalg.svd(m, compute_uv=False)
        npt.assert_allclose(values, sv[:k], rtol=0, atol=1e-10 * sv[0])

    @PROPERTY
    @given(deficient_matrix_and_k())
    @example((np.zeros((4, 6)), 0, 2))
    @example((np.random.default_rng(0).standard_normal((7, 3)), 3, 5))
    def test_fallback_cases(self, case):
        m, rank, k = case
        u, values = leading_singular_vectors(m, k, return_values=True)
        assert u.shape == (m.shape[0], k)
        npt.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
        sv = np.linalg.svd(m, compute_uv=False)
        top = max(sv[0], 1.0)
        npt.assert_allclose(values[:rank], sv[:rank], rtol=1e-10)
        assert np.all(values[rank:] <= 1e-10 * top)
        # the first `rank` columns span the range of m
        lead = u[:, :rank]
        npt.assert_allclose(m - lead @ (lead.T @ m), 0.0, atol=1e-10 * top)

    def test_ill_conditioned_matrix_falls_back_to_svd(self):
        # sigma = (1, 1e-5): the m m^T route would get the second vector
        # wrong by about eps / 1e-10 ~ 1e-6
        rng = np.random.default_rng(24)
        left = orthonormal_cols(rng, 5, 2)
        right = orthonormal_cols(rng, 7, 2)
        m = left @ np.diag([1.0, 1e-5]) @ right.T
        oracle, _ = svd_oracle(m, 2)
        u = leading_singular_vectors(m, 2)
        npt.assert_allclose(u[:, 1], oracle[:, 1], atol=1e-9)

    def test_tall_route_orthonormal_near_the_guard(self):
        # sigma_6 / sigma_1 = 2e-4 stays on the m^T m route; mapping the
        # right vectors back by m v / sigma alone would leave the left
        # columns up to eps * (sigma_1 / sigma_6)^2 ~ 5e-9 from orthonormal
        # (7e-11 on this matrix)
        rng = np.random.default_rng(25)
        sv = np.array([1.0, 0.5, 0.2, 0.05, 3e-3, 2e-4])
        m = (orthonormal_cols(rng, 40, 6) @ np.diag(sv)
             @ orthonormal_cols(rng, 6, 6).T)
        u = leading_singular_vectors(m, 6)
        npt.assert_allclose(u.T @ u, np.eye(6), atol=1e-12)
        npt.assert_allclose(u, svd_oracle(m, 6)[0], atol=1e-10)


class TestHooi:
    def test_noiseless_low_rank_exact(self):
        x, _ = rank_two_orthogonal(seed=10)
        model = hooi(x, (2, 2, 2))
        assert frob_norm(x - model.reconstruct()) <= 1e-8 * frob_norm(x)

    def test_fit_at_least_hosvd(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((5, 6, 7))
            base = frob_norm(hosvd(x, (2, 2, 2)).core)
            improved = frob_norm(hooi(x, (2, 2, 2)).core)
            assert improved >= base - 1e-10

    def test_full_ranks_perfect_reconstruction(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 4, 4))
        model = hooi(x, (4, 4, 4))
        npt.assert_allclose(model.reconstruct(), x, atol=1e-9)

    def test_core_norm_non_decreasing(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 6, 6))
        model = hooi(x, (2, 2, 2), SolverConfig(max_iter=30, tol=1e-14))
        trace = model.diagnostics["core_norm_trace"]
        assert np.all(np.diff(trace) >= -1e-10)


class TestTpaRankOne:
    def test_noiseless_rank_one(self):
        x, (u, v, w) = rank_one_tensor(seed=14)
        fit = tpa_rank_one(x)
        assert fit.d == pytest.approx(100.0, rel=1e-8)
        assert abs(fit.u @ u) >= 1 - 1e-8
        assert abs(fit.v @ v) >= 1 - 1e-8
        assert abs(fit.w @ w) >= 1 - 1e-8

    def test_single_entry_tensor(self):
        x = np.zeros((3, 4, 5))
        x[0, 0, 0] = 7.0
        fit = tpa_rank_one(x)
        assert fit.d == pytest.approx(7.0, abs=1e-12)
        for vec in (fit.u, fit.v, fit.w):
            assert abs(abs(vec[0]) - 1.0) < 1e-12
            assert np.allclose(vec[1:], 0.0, atol=1e-12)

    def test_objective_non_decreasing(self):
        x = np.random.default_rng(15).standard_normal((5, 5, 5))
        fit = tpa_rank_one(x, SolverConfig(max_iter=60, tol=1e-14))
        assert np.all(np.diff(fit.objective_trace) >= -1e-10)

    def test_zero_tensor_raises(self):
        with pytest.raises(ValueError):
            tpa_rank_one(np.zeros((2, 2, 2)))


class TestTpa:
    def test_noiseless_rank_two_orthogonal(self):
        x, (_, _, _, d_true) = rank_two_orthogonal(seed=16)
        model = tpa(x, 2)
        npt.assert_allclose(model.d, d_true, rtol=1e-4)

    def test_k1_matches_rank_one(self):
        x, _ = rank_one_tensor(seed=17, weight=42.0)
        fit = tpa_rank_one(x)
        model = tpa(x, 1)
        assert model.d[0] == pytest.approx(fit.d, abs=1e-12)
        npt.assert_allclose(model.reconstruct(),
                            outer3(fit.u, fit.v, fit.w, fit.d), atol=1e-12)

    def test_orthogonalized_factors(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((6, 6, 6))
        model = tpa(x, 3, SolverConfig(orthogonalize=True))
        for factor in (model.U, model.V, model.W):
            npt.assert_allclose(factor.T @ factor, np.eye(3), atol=1e-8)

    def test_pythagorean_split_when_orthogonalized(self):
        # with mutually orthogonal factors the captured weights and the
        # residual exactly partition the squared norm
        rng = np.random.default_rng(19)
        x = rng.standard_normal((6, 6, 6))
        model = tpa(x, 3, SolverConfig(orthogonalize=True))
        resid = frob_norm(x - model.reconstruct()) ** 2
        total = resid + float(np.sum(model.d ** 2))
        assert total == pytest.approx(frob_norm(x) ** 2, rel=1e-6)

    def test_extra_components_on_rank_two_are_truncated(self):
        x, _ = rank_two_orthogonal(seed=20)
        model = tpa(x, 3)
        assert model.d[2] <= 1e-6 * model.d[0]

    def test_orthogonalized_deflation_accounts_for_all_variance(self):
        # on a noiseless orthogonal construction the projected variance
        # plus the residual reproduces the squared norm
        from hopca.evaluate import variance_explained

        x, _ = rank_two_orthogonal(seed=23)
        model = tpa(x, 2, SolverConfig(orthogonalize=True))
        captured = variance_explained(x, model, 2).cumulative[-1]
        resid = frob_norm(x - model.reconstruct()) ** 2
        total = captured * frob_norm(x) ** 2 + resid
        assert total == pytest.approx(frob_norm(x) ** 2, rel=1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 5, 5))
        cfg = SolverConfig(seed=42, init="random")
        m1 = tpa(x, 2, cfg)
        m2 = tpa(x, 2, cfg)
        npt.assert_array_equal(m1.U, m2.U)
        npt.assert_array_equal(m1.d, m2.d)


def test_cp_model_reconstruct_matches_outer_sum():
    rng = np.random.default_rng(22)
    U = np.column_stack([unit(rng, 4) for _ in range(2)])
    V = np.column_stack([unit(rng, 5) for _ in range(2)])
    W = np.column_stack([unit(rng, 3) for _ in range(2)])
    d = np.array([2.0, 0.5])
    model = CpModel(U, V, W, d)
    expected = sum(d[k] * outer3(U[:, k], V[:, k], W[:, k]) for k in range(2))
    npt.assert_allclose(model.reconstruct(), expected, atol=1e-12)
