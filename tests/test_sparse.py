"""Sparse method checks: thresholding, the deflation scheme, sparse ALS,
penalized PCA, and the sparse Tucker baselines."""

import numpy as np
import numpy.testing as npt
import pytest

from hopca.decompose import (
    SolverConfig,
    contract_u,
    cp_als,
    hooi,
    hosvd,
    tpa,
    tpa_rank_one,
)
from hopca.sparse import (
    ModePenalty,
    PenaltySpec,
    SparseDiagnostics,
    lasso_coordinate_descent,
    soft_threshold,
    sparse_cp_als,
    sparse_cp_tpa,
    sparse_cp_tpa_rank_one,
    sparse_hooi,
    sparse_hosvd,
    sparse_pca,
    sparse_pca_rank_one,
)
from hopca.tensor3 import frob_norm, khatri_rao, matricize, outer3


def sparse_unit(rng, dim, frac=0.5, floor=0.5):
    """Unit vector with round(frac*dim) zeros and well-separated nonzeros."""
    vec = np.zeros(dim)
    zero = rng.choice(dim, size=round(frac * dim), replace=False)
    keep = np.setdiff1d(np.arange(dim), zero)
    vec[keep] = rng.choice([-1.0, 1.0], size=keep.size) * (
        floor + np.abs(rng.standard_normal(keep.size)))
    return vec / np.linalg.norm(vec)


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_zero_level_is_identity(self):
        x = np.array([-2.0, 0.0, 1.5])
        npt.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_is_proximal_operator_of_l1(self):
        # argmin 0.5 (y - z)^2 + lam |z| located by dense grid search
        lam = 0.7
        for y in (-2.3, -0.4, 0.0, 0.9, 3.1):
            grid = np.linspace(-5, 5, 200001)
            obj = 0.5 * (y - grid) ** 2 + lam * np.abs(grid)
            assert soft_threshold(y, lam) == pytest.approx(
                grid[np.argmin(obj)], abs=1e-4)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestSparseRankOne:
    def test_zero_levels_match_plain_power_scheme(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 5, 4))
        plain = tpa_rank_one(x, SolverConfig(tol=1e-12))
        sparse = sparse_cp_tpa_rank_one(x, (0.0, 0.0, 0.0),
                                        SolverConfig(tol=1e-12))
        assert sparse.d == pytest.approx(plain.d, abs=1e-12)
        npt.assert_allclose(sparse.u, plain.u, atol=1e-12)
        npt.assert_allclose(sparse.objective_trace, plain.objective_trace,
                            atol=1e-12)

    def test_full_thresholding_returns_zero_component(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4, 3))
        fit = sparse_cp_tpa_rank_one(x, (1e6, 0.0, 0.0))
        assert fit.d == 0.0
        npt.assert_array_equal(fit.u, np.zeros(5))
        npt.assert_array_equal(fit.v, np.zeros(4))
        npt.assert_array_equal(fit.w, np.zeros(3))

    def test_noiseless_sparse_support_recovery(self):
        rng = np.random.default_rng(2)
        u = sparse_unit(rng, 12)
        v, w = unit(rng, 8), unit(rng, 9)
        x = outer3(u, v, w, 100.0)
        fit = sparse_cp_tpa_rank_one(x, (1.0, 0.0, 0.0))
        npt.assert_array_equal(fit.u != 0, u != 0)
        assert abs(fit.u @ u) > 0.99

    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.5])
    def test_objective_monotone_at_fixed_levels(self, frac):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((7, 6, 5))
            v0, w0 = unit(rng, 6), unit(rng, 5)
            lam_max = np.max(np.abs(contract_u(x, v0, w0)))
            lam = frac * lam_max
            fit = sparse_cp_tpa_rank_one(x, (lam, lam, lam),
                                         SolverConfig(tol=1e-13))
            assert np.all(np.diff(fit.objective_trace) >= -1e-10)

    def test_nonzero_count_non_increasing_in_level(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 6, 5))
        v, w = unit(rng, 6), unit(rng, 5)
        c = contract_u(x, v, w)
        grid = np.linspace(0, np.max(np.abs(c)) * 1.05, 40)
        counts = [np.count_nonzero(soft_threshold(c, lam)) for lam in grid]
        assert np.all(np.diff(counts) <= 0)

    def test_factor_columns_unit_or_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 7, 6))
        fit = sparse_cp_tpa_rank_one(x, (0.4, 0.2, 0.0))
        for vec in (fit.u, fit.v, fit.w):
            nrm = np.linalg.norm(vec)
            assert nrm == 0.0 or nrm == pytest.approx(1.0, abs=1e-10)


class TestSparseCpTpa:
    def test_no_penalty_equals_plain_deflation(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6, 6))
        cfg = SolverConfig(tol=1e-10)
        plain = tpa(x, 2, cfg)
        sparse = sparse_cp_tpa(x, 2, PenaltySpec.none(), cfg)
        npt.assert_allclose(sparse.d, plain.d, atol=1e-12)
        npt.assert_allclose(sparse.U, plain.U, atol=1e-12)
        npt.assert_allclose(sparse.V, plain.V, atol=1e-12)
        npt.assert_allclose(sparse.W, plain.W, atol=1e-12)

    def test_two_component_support_recovery(self):
        # orthogonally decomposable construction: disjoint sparse supports
        # in mode 1, orthonormal factors elsewhere, so greedy deflation is
        # exact and supports must be recovered exactly
        rng = np.random.default_rng(6)
        dims = (20, 15, 12)
        halves = rng.permutation(dims[0]).reshape(2, -1)
        U = np.zeros((dims[0], 2))
        for k in range(2):
            vals = rng.choice([-1.0, 1.0], size=halves.shape[1]) * (
                0.5 + np.abs(rng.standard_normal(halves.shape[1])))
            U[halves[k], k] = vals / np.linalg.norm(vals)
        V = np.linalg.qr(rng.standard_normal((dims[1], 2)))[0]
        W = np.linalg.qr(rng.standard_normal((dims[2], 2)))[0]
        x = 200 * outer3(U[:, 0], V[:, 0], W[:, 0]) + 100 * outer3(
            U[:, 1], V[:, 1], W[:, 1])
        model = sparse_cp_tpa(x, 2, PenaltySpec.lasso(u=2.0))
        for k in range(2):
            scores = [abs(model.U[:, k] @ U[:, j]) for j in range(2)]
            match = int(np.argmax(scores))
            npt.assert_array_equal(model.U[:, k] != 0, U[:, match] != 0)

    def test_extra_component_on_rank_two_is_tiny(self):
        rng = np.random.default_rng(7)
        U = np.linalg.qr(rng.standard_normal((9, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        W = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        x = 200 * outer3(U[:, 0], V[:, 0], W[:, 0]) + 100 * outer3(
            U[:, 1], V[:, 1], W[:, 1])
        model = sparse_cp_tpa(x, 3, PenaltySpec.none())
        assert model.d[2] <= 1e-6 * model.d[0]

    def test_bic_grid_selection_recorded(self):
        rng = np.random.default_rng(8)
        u = sparse_unit(rng, 16)
        x = outer3(u, unit(rng, 10), unit(rng, 10), 50.0)
        x = x + 0.05 * rng.standard_normal(x.shape)
        model = sparse_cp_tpa(x, 1, PenaltySpec.lasso(u="bic"))
        detail = SparseDiagnostics.from_model(model)
        assert len(detail.lambdas["u"]) == 1
        assert detail.lambdas["u"][0] > 0
        npt.assert_array_equal(model.U[:, 0] != 0, u != 0)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            ModePenalty("lasso", [0.5, 0.2])


class TestSparseCpAls:
    def test_zero_level_matches_cp_als(self):
        rng = np.random.default_rng(9)
        x = outer3(unit(rng, 6), unit(rng, 5), unit(rng, 4), 80.0)
        cfg = SolverConfig(tol=1e-10)
        plain = cp_als(x, 1, cfg)
        sparse = sparse_cp_als(x, 1, PenaltySpec.none(), cfg)
        assert sparse.d[0] == pytest.approx(plain.d[0], rel=1e-6)
        assert abs(sparse.U[:, 0] @ plain.U[:, 0]) >= 1 - 1e-6

    def test_lasso_cd_matches_orthonormal_closed_form(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((7, 6, 5))
        V = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        W = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        design = khatri_rao(W, V)
        gram = design.T @ design
        npt.assert_allclose(gram, np.eye(2), atol=1e-12)
        corr = matricize(x, 1) @ design
        lam = 0.3
        solved = lasso_coordinate_descent(gram, corr, lam)
        npt.assert_allclose(solved, soft_threshold(corr, lam), atol=1e-10)

    def test_huge_level_zeroes_everything(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 5, 4))
        model = sparse_cp_als(x, 2, PenaltySpec.lasso(u=1e9, v=1e9, w=1e9))
        npt.assert_array_equal(model.d, np.zeros(2))
        npt.assert_array_equal(model.U, np.zeros((6, 2)))

    def test_trace_reported_without_monotonicity_claim(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 6, 6))
        model = sparse_cp_als(x, 2, PenaltySpec.lasso(u=0.5),
                              SolverConfig(max_iter=20))
        assert len(model.diagnostics["objective_traces"][0]) >= 1


class TestSparsePca:
    def test_diagonal_matrix_leading_pair(self):
        m = np.diag([5.0, 2.0])
        fit = sparse_pca_rank_one(m)
        assert fit.d == pytest.approx(5.0, abs=1e-10)
        assert abs(fit.u[0]) == pytest.approx(1.0, abs=1e-10)
        assert abs(fit.v[0]) == pytest.approx(1.0, abs=1e-10)

    def test_huge_left_level_returns_zero(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 5))
        fit = sparse_pca_rank_one(m, lam_left=1e9)
        assert fit.d == 0.0
        npt.assert_array_equal(fit.u, np.zeros(6))

    def test_sparse_left_factor_support_recovery(self):
        rng = np.random.default_rng(14)
        a = sparse_unit(rng, 14)
        b = unit(rng, 9)
        m = 10.0 * np.outer(a, b)
        fit = sparse_pca_rank_one(m, lam_left=0.5)
        npt.assert_array_equal(fit.u != 0, a != 0)

    def test_objective_monotone(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((8, 7))
        fit = sparse_pca_rank_one(m, 0.4, 0.2, SolverConfig(tol=1e-13))
        assert np.all(np.diff(fit.objective_trace) >= -1e-10)

    def test_a_component_past_the_rank_is_the_zero_fit(self):
        # the level zeroes entries of u, so m' = m - d u v^T is not zero
        m = np.random.default_rng(23).standard_normal((12, 1))
        left, _, d, fits = sparse_pca(m, 2, ModePenalty("lasso", 0.5))
        assert len(fits) == 2 and d[0] > 0.0
        assert 0 < np.count_nonzero(left[:, 0]) < 12
        assert (fits[1].d, fits[1].iterations, fits[1].converged) == (
            0.0, 0, True)
        npt.assert_array_equal(left[:, 1], np.zeros(12))

    def test_a_factor_vanishing_at_level_zero_restarts_the_fit(self):
        # the signed start v = b gives m v = -|b|^2 a, which the
        # non-negative threshold at level 0 zeroes; as in the engine, the
        # fit restarts from a random start and finds the pair (a, -b)
        rng = np.random.default_rng(25)
        a, b = np.abs(rng.standard_normal(7)), np.abs(rng.standard_normal(5))
        m = -np.outer(a, b)
        left, right, d, fits = sparse_pca(m, 1,
                                          ModePenalty("nonneg_lasso", 0.0))
        assert d[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
        npt.assert_allclose(left[:, 0], a / np.linalg.norm(a), atol=1e-10)
        npt.assert_allclose(d[0] * np.outer(left[:, 0], right[:, 0]), m,
                            atol=1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_non_finite_matrix_raises_value_error(self, value):
        m = np.random.default_rng(24).standard_normal((6, 5))
        m[2, 3] = value
        with pytest.raises(ValueError, match="finite"):
            sparse_pca(m, 2, ModePenalty("lasso", 0.1))
        with pytest.raises(ValueError, match="finite"):
            sparse_pca_rank_one(m, 0.1)


def separated_tensor(rng, dims=(8, 7, 6)):
    """Rank-2 signal with well separated spectrum plus small noise."""
    U = np.linalg.qr(rng.standard_normal((dims[0], 2)))[0]
    V = np.linalg.qr(rng.standard_normal((dims[1], 2)))[0]
    W = np.linalg.qr(rng.standard_normal((dims[2], 2)))[0]
    x = 50 * outer3(U[:, 0], V[:, 0], W[:, 0]) + 20 * outer3(
        U[:, 1], V[:, 1], W[:, 1])
    return x + 0.01 * rng.standard_normal(dims)


class TestSparseHosvd:
    def test_zero_levels_span_hosvd_subspaces(self):
        x = separated_tensor(np.random.default_rng(16))
        cfg = SolverConfig(tol=1e-14, max_iter=3000)
        plain = hosvd(x, (2, 2, 2))
        sparse = sparse_hosvd(x, (2, 2, 2), PenaltySpec.none(), cfg)
        for a, b in ((plain.U, sparse.U), (plain.V, sparse.V),
                     (plain.W, sparse.W)):
            qa = np.linalg.qr(a)[0]
            qb = np.linalg.qr(b)[0]
            cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
            assert np.max(np.arccos(np.clip(cosines, -1, 1))) <= 1e-6

    def test_mode1_support_recovery(self):
        rng = np.random.default_rng(17)
        u = sparse_unit(rng, 16)
        x = outer3(u, unit(rng, 9), unit(rng, 8), 60.0)
        model = sparse_hosvd(x, (1, 1, 1), PenaltySpec.lasso(u=1.0))
        npt.assert_array_equal(model.U[:, 0] != 0, u != 0)

    def test_huge_mode1_level_zeroes_core(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((6, 5, 4))
        model = sparse_hosvd(x, (1, 1, 1), PenaltySpec.lasso(u=1e9))
        npt.assert_array_equal(model.U, np.zeros((6, 1)))
        npt.assert_array_equal(model.core, np.zeros((1, 1, 1)))


class TestSparseHooi:
    def test_zero_levels_match_hooi_rank_one(self):
        x = separated_tensor(np.random.default_rng(19))
        cfg = SolverConfig(tol=1e-14, max_iter=3000)
        plain = hooi(x, (1, 1, 1), cfg)
        sparse = sparse_hooi(x, (1, 1, 1), PenaltySpec.none(), cfg)
        assert abs(sparse.U[:, 0] @ plain.U[:, 0]) >= 1 - 1e-8
        assert abs(sparse.V[:, 0] @ plain.V[:, 0]) >= 1 - 1e-8
        assert abs(sparse.core[0, 0, 0]) == pytest.approx(
            abs(plain.core[0, 0, 0]), rel=1e-8)

    def test_huge_levels_zero_everything(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((6, 5, 4))
        model = sparse_hooi(x, (1, 1, 1),
                            PenaltySpec.lasso(u=1e9, v=1e9, w=1e9))
        npt.assert_array_equal(model.U, np.zeros((6, 1)))
        npt.assert_array_equal(model.core, np.zeros((1, 1, 1)))

    def test_all_mode_sparse_support_recovery(self):
        rng = np.random.default_rng(21)
        dims = (24, 24, 24)
        u, v, w = (sparse_unit(rng, d) for d in dims)
        x = outer3(u, v, w, 60.0) + 0.05 * rng.standard_normal(dims)
        model = sparse_hooi(x, (1, 1, 1),
                            PenaltySpec.lasso(u=1.5, v=1.5, w=1.5))
        npt.assert_array_equal(model.U[:, 0] != 0, u != 0)
        npt.assert_array_equal(model.V[:, 0] != 0, v != 0)
        npt.assert_array_equal(model.W[:, 0] != 0, w != 0)

    def test_best_sweep_core_norm_reported(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, 6, 6))
        model = sparse_hooi(x, (2, 2, 2), PenaltySpec.lasso(u=0.5),
                            SolverConfig(max_iter=15))
        trace = model.diagnostics["objective_traces"][-1]
        assert model.diagnostics["core_norm"] == pytest.approx(
            np.max(trace), abs=1e-12)
        assert frob_norm(model.core) == pytest.approx(
            np.max(trace), abs=1e-9)


class TestRankUsedUp:
    """A penalized mode whose unfolding's rank is used up gets the zero
    fit for its later components, not a component of rounding noise."""

    def tensors(self):
        rng = np.random.default_rng(0)
        x = outer3(rng.standard_normal(12), rng.standard_normal(5),
                   rng.standard_normal(4))
        return x, x + 0.01 * rng.standard_normal(x.shape)

    def error(self, solver, x):
        model = solver(x, (2, 1, 1), PenaltySpec.lasso(u="bic"))
        return frob_norm(x - model.reconstruct()) / frob_norm(x), model

    @pytest.mark.parametrize("solver", [sparse_hosvd, sparse_hooi])
    def test_an_exact_rank_one_tensor_is_reconstructed(self, solver):
        x, _ = self.tensors()
        error, model = self.error(solver, x)
        assert error <= 1e-14
        npt.assert_array_equal(model.U[:, 1], np.zeros(12))

    @pytest.mark.parametrize("solver", [
        lambda x: tpa(x, 2),
        lambda x: sparse_cp_tpa(x, 2, PenaltySpec.lasso(u="bic"))],
        ids=["tpa", "sparse-cp-tpa"])
    def test_the_deflation_ends_once_the_residual_is_rounding_noise(
            self, solver):
        # the residual after the first component is at the rounding level
        # of x: no second component is fit to it
        x, _ = self.tensors()
        model = solver(x)
        assert model.diagnostics["truncated_at"] == 1
        assert model.d[1] == 0.0
        for f in (model.U, model.V, model.W):
            npt.assert_array_equal(f[:, 1], np.zeros(f.shape[0]))

    def test_a_noisy_rank_one_tensor_keeps_its_fit(self):
        _, x = self.tensors()
        error, _ = self.error(sparse_hooi, x)
        assert error <= 0.25  # the lasso's shrinkage: 0.199
