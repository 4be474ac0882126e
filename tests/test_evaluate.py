"""Evaluation checks: variance explained against a dense Kronecker
oracle, BIC selection, support metrics, signal MSE, and ROC sweeps."""

from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopca.decompose import CpModel, TuckerModel, hosvd
from hopca.evaluate import (
    bic_select,
    default_lambda_grid,
    roc_dominance_fraction,
    roc_sweep,
    signal_mse,
    support_metrics,
    variance_explained,
)
from hopca.sparse import soft_threshold
from hopca.tensor3 import _mode_mult3, frob_norm, outer3


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@dataclass
class Truth:
    """Minimal ground-truth stand-in for metric tests."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    d: np.ndarray
    x_signal: np.ndarray = None
    supports: dict = None


def kron_projection_oracle(x, model, k):
    """Variance ratio via the explicit Kronecker projection of vec(x)."""
    def proj(cols):
        cols = cols[:, :min(k, cols.shape[1])]
        return cols @ np.linalg.pinv(cols.T @ cols) @ cols.T

    pu, pv, pw = proj(model.U), proj(model.V), proj(model.W)
    vec = x.ravel(order="F")  # mode-1-fastest layout
    big = np.kron(pw, np.kron(pv, pu))
    projected = big @ vec
    return float(projected @ projected) / float(vec @ vec)


def projection_matrix_varex(x, model, upto_k):
    """The variance-explained curve by the dense n x n projection
    matrices of each mode, from the eigen-floored pseudo-inverse of the
    Gram matrix (the reference for the orthonormal-basis form)."""
    def projection(cols):
        if cols.size == 0 or not np.any(cols):
            return np.zeros((cols.shape[0], cols.shape[0]))
        vals, vecs = np.linalg.eigh(cols.T @ cols)
        cutoff = 1e-12 * max(float(vals[-1]), 1.0)
        inv = np.where(vals > cutoff,
                       1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
        return cols @ ((vecs * inv) @ vecs.T) @ cols.T

    factors = (model.U, model.V, model.W)
    return np.array([
        frob_norm(_mode_mult3(x, *(projection(f[:, :min(k, f.shape[1])])
                                   for f in factors))) ** 2
        / frob_norm(x) ** 2 for k in range(1, upto_k + 1)])


def awkward_model(seed):
    """A random CP (even seeds) or Tucker model with unequal ranks, at
    scales 1e-5, 1 or 1e5, whose factors may hold a zero column, two
    collinear columns or no nonzero column; and a tensor to explain."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 7, 3))
    ranks = (tuple(int(r) for r in rng.integers(1, 5, 3)) if seed % 2
             else (int(rng.integers(1, 5)),) * 3)
    factors = []
    for dim, rank in zip(dims, ranks):
        f = rng.standard_normal((dim, rank)) * 10.0 ** rng.choice([-5, 0, 5])
        kind = rng.integers(4)
        if kind == 1:
            f[:, rng.integers(rank)] = 0.0
        elif kind == 2 and rank > 1:
            f[:, 1] = -3.0 * f[:, 0]
        elif kind == 3:
            f[:] = 0.0
        factors.append(f)
    x = rng.standard_normal(dims) * 10.0 ** rng.choice([-5, 0, 5])
    model = (TuckerModel(*factors, rng.standard_normal(ranks)) if seed % 2
             else CpModel(*factors, np.ones(ranks[0])))
    return x, model


class TestVarianceExplained:
    def test_matches_the_projection_matrix_formula(self):
        for seed in range(200):
            x, model = awkward_model(seed)
            curve = variance_explained(x, model).cumulative
            npt.assert_allclose(
                curve, projection_matrix_varex(x, model, curve.size),
                rtol=0, atol=1e-12, err_msg=f"seed {seed}")


    def test_exact_rank_one_model_explains_everything(self):
        rng = np.random.default_rng(0)
        u, v, w = unit(rng, 4), unit(rng, 5), unit(rng, 6)
        x = outer3(u, v, w, 100.0)
        model = CpModel(u[:, None], v[:, None], w[:, None],
                        np.array([100.0]))
        report = variance_explained(x, model, 1)
        assert report.cumulative[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_kronecker_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 6))
        model = CpModel(
            np.column_stack([unit(rng, 4) for _ in range(2)]),
            np.column_stack([unit(rng, 5) for _ in range(2)]),
            np.column_stack([unit(rng, 6) for _ in range(2)]),
            np.array([2.0, 1.0]))
        report = variance_explained(x, model, 2)
        for k in (1, 2):
            assert report.cumulative[k - 1] == pytest.approx(
                kron_projection_oracle(x, model, k), abs=1e-10)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 6, 4))
        model = CpModel(
            np.column_stack([unit(rng, 5) for _ in range(3)]),
            np.column_stack([unit(rng, 6) for _ in range(3)]),
            np.column_stack([unit(rng, 4) for _ in range(3)]),
            np.array([3.0, 2.0, 1.0]))
        curve = variance_explained(x, model).cumulative
        assert np.all(np.diff(curve) >= -1e-10)
        assert np.all(curve >= -1e-10)
        assert np.all(curve <= 1 + 1e-10)

    def test_orthonormal_tucker_equals_core_ratio(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5, 6))
        model = hosvd(x, (2, 2, 2))
        report = variance_explained(x, model, 2)
        expected = frob_norm(model.core) ** 2 / frob_norm(x) ** 2
        assert report.cumulative[-1] == pytest.approx(expected, abs=1e-10)

    def test_full_rank_tucker_reaches_one(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 5, 6))
        model = hosvd(x, (4, 5, 6))
        report = variance_explained(x, model)
        assert report.cumulative[-1] == pytest.approx(1.0, abs=1e-10)

    def test_zero_tensor_rejected(self):
        model = CpModel(np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)),
                        np.ones(1))
        with pytest.raises(ValueError):
            variance_explained(np.zeros((3, 3, 3)), model)

    def test_zero_columns_are_handled(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4, 4))
        model = CpModel(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)),
                        np.zeros(2))
        report = variance_explained(x, model, 2)
        npt.assert_allclose(report.cumulative, 0.0, atol=1e-12)


class TestBicSelect:
    def test_zero_factor_gives_null_reference(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 4, 3))
        c = rng.standard_normal(5)
        lam_big = 10 * np.max(np.abs(c))
        sel = bic_select(x, c, [lam_big])
        null = np.log(frob_norm(x) ** 2 / x.size)
        assert sel.bic_values[0] == pytest.approx(null, abs=1e-12)
        assert sel.nnz[0] == 0

    def test_noiseless_sparse_rank_one_recovers_support(self):
        rng = np.random.default_rng(7)
        u = np.zeros(12)
        keep = rng.choice(12, size=6, replace=False)
        u[keep] = rng.choice([-1, 1], 6) * (0.5 + np.abs(
            rng.standard_normal(6)))
        u /= np.linalg.norm(u)
        v, w = unit(rng, 8), unit(rng, 7)
        x = outer3(u, v, w, 50.0)
        c = 50.0 * u  # contraction with the true v, w
        grid = default_lambda_grid(np.max(np.abs(c)))
        sel = bic_select(x, c, grid)
        recovered = soft_threshold(c, sel.lam) != 0
        npt.assert_array_equal(recovered, u != 0)

    def test_grid_of_zero(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 4, 4))
        sel = bic_select(x, rng.standard_normal(4), [0.0])
        assert sel.lam == 0.0

    def test_ties_prefer_larger_lambda(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 4, 4))
        c = np.array([0.1, 0.05, 0.0, 0.0])
        # both levels zero the factor entirely, so BIC values tie
        sel = bic_select(x, c, [1.0, 2.0])
        assert sel.lam == 2.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bic_select(np.ones((2, 2, 2)), np.ones(2), [])


def make_factor(dim, support, rng):
    vec = np.zeros(dim)
    vec[list(support)] = 1.0 + np.abs(rng.standard_normal(len(support)))
    return vec / np.linalg.norm(vec)


class TestSupportMetrics:
    def test_exact_support(self):
        rng = np.random.default_rng(10)
        u = make_factor(6, {0, 1, 2}, rng)
        v, w = unit(rng, 5), unit(rng, 4)
        truth = Truth(u[:, None], v[:, None], w[:, None], np.ones(1))
        est = CpModel(u[:, None], v[:, None], w[:, None], np.ones(1))
        m = support_metrics(est, truth)
        assert m.tp[0, 0] == 1.0
        assert m.fp[0, 0] == 0.0

    def test_dense_estimate_on_half_sparse_truth(self):
        rng = np.random.default_rng(11)
        u_true = make_factor(6, {0, 1, 2}, rng)
        u_est = unit(rng, 6)
        v, w = unit(rng, 5), unit(rng, 4)
        truth = Truth(u_true[:, None], v[:, None], w[:, None], np.ones(1))
        est = CpModel(u_est[:, None], v[:, None], w[:, None], np.ones(1))
        m = support_metrics(est, truth)
        assert m.tp[0, 0] == 1.0
        assert m.fp[0, 0] == 1.0

    def test_hand_counted_rates(self):
        rng = np.random.default_rng(12)
        u_true = make_factor(6, {0, 1, 2}, rng)
        u_est = make_factor(6, {0, 1, 4}, rng)
        v, w = unit(rng, 5), unit(rng, 4)
        truth = Truth(u_true[:, None], v[:, None], w[:, None], np.ones(1))
        est = CpModel(u_est[:, None], v[:, None], w[:, None], np.ones(1))
        m = support_metrics(est, truth)
        assert m.tp[0, 0] == pytest.approx(2 / 3)
        assert m.fp[0, 0] == pytest.approx(1 / 3)

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(13)
        U = np.column_stack([make_factor(8, {0, 1, 2}, rng),
                             make_factor(8, {5, 6, 7}, rng)])
        V = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        W = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        truth = Truth(U, V, W, np.array([2.0, 1.0]))
        base = support_metrics(CpModel(U, V, W, np.array([2.0, 1.0])), truth)
        flipped = CpModel(-U[:, ::-1], V[:, ::-1], -W[:, ::-1],
                          np.array([1.0, 2.0]))
        m = support_metrics(flipped, truth)
        npt.assert_allclose(np.sort(m.tp[0]), np.sort(base.tp[0]))
        npt.assert_allclose(np.sort(m.fp[0]), np.sort(base.fp[0]))

    def test_k_mismatch_flagged(self):
        rng = np.random.default_rng(14)
        u = make_factor(6, {0, 1}, rng)
        v, w = unit(rng, 5), unit(rng, 4)
        truth = Truth(np.column_stack([u, u]), np.column_stack([v, v]),
                      np.column_stack([w, w]), np.ones(2))
        est = CpModel(u[:, None], v[:, None], w[:, None], np.ones(1))
        m = support_metrics(est, truth)
        assert m.k_mismatch
        assert m.matched == 1

    def test_dense_truth_mode_has_undefined_fp(self):
        rng = np.random.default_rng(15)
        u = make_factor(6, {0, 1, 2}, rng)
        v, w = unit(rng, 5), unit(rng, 4)
        truth = Truth(u[:, None], v[:, None], w[:, None], np.ones(1))
        est = CpModel(u[:, None], v[:, None], w[:, None], np.ones(1))
        m = support_metrics(est, truth)
        assert np.isnan(m.fp[1, 0])
        assert np.isnan(m.fp[2, 0])


def random_sparse_factors(rng, dim, k):
    """k columns, each zeroed at random with at least one nonzero entry."""
    cols = rng.standard_normal((dim, k)) * (rng.random((dim, k)) < 0.5)
    cols[rng.integers(dim, size=k), np.arange(k)] = 1.0 + rng.random(k)
    return cols / np.linalg.norm(cols, axis=0)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(st.integers(2, 8) for _ in range(3))), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(shape=(2, 2, 8), k_true=2, k_est=3, seed=100000)
def test_support_metrics_invariant_to_permutation_and_paired_flips(
        shape, k_true, k_est, seed):
    rng = np.random.default_rng(seed)
    true_f = [random_sparse_factors(rng, dim, k_true) for dim in shape]
    d_true = rng.uniform(1.0, 5.0, k_true)
    signal = np.einsum("ik,jk,lk,k->ijl", *true_f, d_true)
    truth = Truth(*true_f, d_true, x_signal=signal)
    U, V, W = (random_sparse_factors(rng, dim, k_est) for dim in shape)
    d = rng.uniform(1.0, 5.0, k_est)
    base = support_metrics(CpModel(U, V, W, d), truth)

    # a paired flip (u, w) or (v, w) leaves each rank-one term unchanged
    perm = rng.permutation(k_est)
    flips = rng.integers(3, size=k_est)
    su = np.where(flips == 1, -1.0, 1.0)
    sv = np.where(flips == 2, -1.0, 1.0)
    sw = su * sv
    moved = support_metrics(CpModel((U * su)[:, perm], (V * sv)[:, perm],
                                    (W * sw)[:, perm], d[perm]), truth)
    assert moved.matched == base.matched

    def by_truth(m):
        # rates keyed by the truth component each column was matched to
        order = np.argsort(m.permutation)
        return m.permutation[order], m.tp[:, order], m.fp[:, order]

    for got, want in zip(by_truth(moved), by_truth(base)):
        npt.assert_array_equal(got, want)
    assert moved.mse == pytest.approx(base.mse, rel=1e-12, abs=1e-300)


class TestSignalMse:
    def test_exact_model_gives_zero(self):
        rng = np.random.default_rng(16)
        u, v, w = unit(rng, 5), unit(rng, 4), unit(rng, 3)
        x_signal = outer3(u, v, w, 10.0)
        truth = Truth(u[:, None], v[:, None], w[:, None],
                      np.array([10.0]), x_signal=x_signal)
        est = CpModel(u[:, None], v[:, None], w[:, None], np.array([10.0]))
        assert signal_mse(est, truth) == pytest.approx(0.0, abs=1e-20)

    def test_zero_model_gives_signal_power(self):
        rng = np.random.default_rng(17)
        u, v, w = unit(rng, 5), unit(rng, 4), unit(rng, 3)
        x_signal = outer3(u, v, w, 10.0)
        truth = Truth(u[:, None], v[:, None], w[:, None],
                      np.array([10.0]), x_signal=x_signal)
        est = CpModel(np.zeros((5, 1)), np.zeros((4, 1)), np.zeros((3, 1)),
                      np.zeros(1))
        expected = frob_norm(x_signal) ** 2 / x_signal.size
        assert signal_mse(est, truth) == pytest.approx(expected, rel=1e-12)

    def test_an_exact_estimate_in_another_order_reads_zero(self):
        """The truth's components in reverse order: the closed form keeps
        only rounding noise of ``||M||^2``, so the difference is formed."""
        rng = np.random.default_rng(21)
        U, V, W = (np.column_stack([unit(rng, n), unit(rng, n)])
                   for n in (5, 4, 3))
        d = np.array([10.0, 7.0])
        truth = Truth(U, V, W, d, x_signal=CpModel(U, V, W, d).reconstruct())
        est = CpModel(U[:, ::-1], V[:, ::-1], W[:, ::-1], d[::-1])
        assert signal_mse(est, truth) == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_a_cp_truth_scores_from_the_factors(self, kind):
        """Against a CP truth the error comes from the factors, with no
        reconstruction, and equals the formed difference's."""
        rng = np.random.default_rng(20)
        dims = (9, 7, 6)
        U, V, W = (rng.standard_normal((n, 2)) for n in dims)
        d = np.array([5.0, 3.0])
        truth = Truth(U, V, W, d, x_signal=np.einsum(
            "ik,jk,lk,k->ijl", U, V, W, d))
        factors = [rng.standard_normal((n, r)) for n, r in zip(dims,
                                                               (3, 2, 4))]
        est = (CpModel(*(f[:, :2] for f in factors), np.array([4.0, 1.0]))
               if kind == "cp" else
               TuckerModel(*factors, rng.standard_normal((3, 2, 4))))
        diff = est.reconstruct() - truth.x_signal
        expected = np.sum(diff * diff) / diff.size
        est.reconstruct = lambda: pytest.fail("the estimate was formed")
        assert signal_mse(est, truth) == pytest.approx(expected, rel=1e-12)


def sparse_truth(rng, dims=(14, 9, 8), weight=60.0):
    u = np.zeros(dims[0])
    keep = rng.choice(dims[0], size=dims[0] // 2, replace=False)
    u[keep] = rng.choice([-1, 1], keep.size) * (0.5 + np.abs(
        rng.standard_normal(keep.size)))
    u /= np.linalg.norm(u)
    v, w = unit(rng, dims[1]), unit(rng, dims[2])
    x_signal = outer3(u, v, w, weight)
    supports = {"u": (u != 0)[:, None], "v": np.ones((dims[1], 1), bool),
                "w": np.ones((dims[2], 1), bool)}
    truth = Truth(u[:, None], v[:, None], w[:, None], np.array([weight]),
                  x_signal=x_signal, supports=supports)
    return truth


class TestRocSweep:
    def test_zero_level_endpoint_is_dense(self):
        rng = np.random.default_rng(18)
        truth = sparse_truth(rng)
        x = truth.x_signal + 0.1 * rng.standard_normal(truth.x_signal.shape)
        points = roc_sweep(x, truth, "sparse-cp-tpa", [0.0])
        assert points[0].fp == pytest.approx(1.0)
        assert points[0].tp == pytest.approx(1.0)

    def test_beyond_max_level_is_empty(self):
        rng = np.random.default_rng(19)
        truth = sparse_truth(rng)
        x = truth.x_signal + 0.1 * rng.standard_normal(truth.x_signal.shape)
        points = roc_sweep(x, truth, "sparse-cp-tpa", [1e9])
        assert points[0].tp == 0.0
        assert points[0].fp == 0.0

    def test_noiseless_attains_perfect_corner(self):
        rng = np.random.default_rng(20)
        truth = sparse_truth(rng)
        points = roc_sweep(truth.x_signal, truth, "sparse-cp-tpa",
                           default_lambda_grid(10.0, num=12))
        corners = [(p.fp, p.tp) for p in points]
        assert (0.0, 1.0) in corners

    def test_naive_baseline_endpoints(self):
        rng = np.random.default_rng(21)
        truth = sparse_truth(rng)
        x = truth.x_signal + 0.1 * rng.standard_normal(truth.x_signal.shape)
        points = roc_sweep(x, truth, "cp-naive", [0.0, 1.0])
        by_lam = {p.lam: p for p in points}
        assert by_lam[0.0].fp == pytest.approx(1.0)
        assert by_lam[0.0].tp == pytest.approx(1.0)
        assert by_lam[1.0].fp == pytest.approx(0.0)
        assert by_lam[1.0].tp == pytest.approx(0.0)

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(22)
        truth = sparse_truth(rng)
        with pytest.raises(ValueError):
            roc_sweep(truth.x_signal, truth, "nope", [0.1])

    def test_unswept_modes_are_unpenalized(self, monkeypatch):
        """A sweep of u alone hands the Tucker fit no penalty on v and w,
        so their factors are the leading singular vectors."""
        from hopca import sparse
        from hopca.sparse import ModePenalty

        rng = np.random.default_rng(24)
        truth = sparse_truth(rng)
        x = truth.x_signal + 0.1 * rng.standard_normal(truth.x_signal.shape)
        pens = []
        real = sparse.sparse_hosvd

        def spy(x, ranks, pen=None, cfg=None):
            pens.append(pen)
            return real(x, ranks, pen, cfg)

        monkeypatch.setattr(sparse, "sparse_hosvd", spy)
        assert roc_sweep(x, truth, "sparse-hosvd", [0.0, 0.5], modes=("u",))
        assert [p.u for p in pens] == [ModePenalty("lasso", lam)
                                       for lam in (0.0, 0.5)]
        assert all(p.v == p.w == ModePenalty("none") for p in pens)

    def test_naive_path_rates_non_increasing_in_threshold(self):
        rng = np.random.default_rng(23)
        truth = sparse_truth(rng)
        x = truth.x_signal + 0.2 * rng.standard_normal(truth.x_signal.shape)
        grid = np.linspace(0.0, 1.0, 12)
        points = roc_sweep(x, truth, "cp-naive", grid)
        tps = [p.tp for p in sorted(points, key=lambda p: p.lam)]
        fps = [p.fp for p in sorted(points, key=lambda p: p.lam)]
        assert np.all(np.diff(tps) <= 1e-12)
        assert np.all(np.diff(fps) <= 1e-12)


def test_roc_dominance_fraction():
    fp = np.linspace(0, 1, 11)
    above = np.minimum(1.0, fp + 0.3)
    below = fp.copy()
    assert roc_dominance_fraction(fp, above, fp, below) == 1.0
    assert roc_dominance_fraction(fp, below, fp, above) < 0.5
