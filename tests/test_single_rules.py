"""Rules the solvers, the registry, the file layout and the command line
share, each kept in one function: fixed levels, level checks, the input
checks of the public functions, the BIC choice of the ALS lasso step,
the relative stopping rule, the zero penalized-PCA fit, one ALS level
per component, operators by method and model directories by kind."""

import numpy as np
import numpy.testing as npt
import pytest

from hopca import fileio
from hopca.cli import main
from hopca.decompose import (
    CpModel,
    SolverConfig,
    TuckerModel,
    _converged,
    cp_als,
    hosvd,
    tpa,
)
from hopca.evaluate import (bic_path, default_lambda_grid, support_metrics,
                            variance_explained)
from hopca.generalized import (
    QuadOperators,
    SmootherSet,
    difference_penalty,
    general_cp_tpa_rank_one,
    l1_penalty,
    qnorm_lasso_solve,
    sparse_gcp,
)
from hopca.simulate import (METHODS, SimScenarioSpec, fit_method,
                            run_table_experiment)
from hopca.sparse import (
    ModePenalty,
    PenaltySpec,
    _lasso_step,
    _mode_update,
    lasso_coordinate_descent,
    nonneg_l1_penalty,
    positive_threshold,
    soft_threshold,
    sparse_cp_als,
    sparse_pca_rank_one,
)
from hopca.tensor3 import outer3, tensor3


def noisy_rank_one(seed, shape=(8, 7, 6), weight=20.0):
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal(n) for n in shape]
    factors = [f / np.linalg.norm(f) for f in factors]
    return outer3(*factors, weight) + 0.1 * rng.standard_normal(shape)


@pytest.mark.parametrize("lam", [[0.1, 0.2], None])
def test_fixed_level_raises_on_a_grid(lam):
    # a grid, or None (the default grid), is selected by BIC: no one level
    with pytest.raises(ValueError, match="fixed penalty levels"):
        ModePenalty("lasso", lam).fixed_level()


def test_fixed_level_of_a_scalar_and_of_no_penalty():
    assert ModePenalty("lasso", 0.3).fixed_level() == 0.3
    assert ModePenalty("nonneg_lasso", 0.0).fixed_level() == 0.0
    assert ModePenalty().fixed_level() == 0.0


def test_sparse_gcp_takes_the_fixed_levels_of_a_spec():
    x = noisy_rank_one(1)
    with pytest.raises(ValueError, match="fixed penalty levels"):
        METHODS["sparse-gcp"].fit(x, 1, SolverConfig(),
                                  PenaltySpec.lasso(u="bic"))
    fit = METHODS["sparse-gcp"].fit(x, 1, SolverConfig(),
                                    PenaltySpec.lasso(u=0.5))
    want = sparse_gcp(x, QuadOperators.identity(x.shape), 1,
                      (0.5, 0.0, 0.0), SolverConfig())
    npt.assert_array_equal(fit.U, want.U)
    npt.assert_array_equal(fit.d, want.d)


@pytest.mark.parametrize("solve", [
    lambda x: general_cp_tpa_rank_one(
        x, [(l1_penalty(), 0.1), (l1_penalty(), -0.1), (l1_penalty(), 0.0)]),
    lambda x: sparse_gcp(x, QuadOperators.identity(x.shape), 1,
                         (0.0, 0.0, -1.0)),
])
def test_negative_level_rejected_by_the_engine_update(solve):
    with pytest.raises(ValueError, match="non-negative"):
        solve(noisy_rank_one(2))


@pytest.mark.parametrize("call", [
    lambda: soft_threshold(np.ones(3), np.nan),
    lambda: positive_threshold(np.ones(3), np.nan),
    lambda: lasso_coordinate_descent(np.eye(2), np.ones((3, 2)), np.nan),
    lambda: bic_path(10.0, 27, np.ones(3), [0.0, np.nan], soft_threshold),
    lambda: default_lambda_grid(np.nan),
    # refused before any step: the solver would run all of its steps
    lambda: qnorm_lasso_solve(np.ones(3), np.eye(3), np.nan),
], ids=["soft_threshold", "positive_threshold", "lasso_coordinate_descent",
        "bic_path", "default_lambda_grid", "qnorm_lasso_solve"])
def test_a_nan_level_is_refused_by_each_public_level_taker(call):
    with pytest.raises(ValueError, match="non-negative"):
        call()


def _rank_two(shape):
    return CpModel(*(np.eye(n, 2) for n in shape), np.ones(2))


@pytest.mark.parametrize("call, match", [
    (lambda: SolverConfig(init="svd"), "unknown init"),
    (lambda: cp_als(noisy_rank_one(3), 0), "K must be >= 1"),
    (lambda: tpa(noisy_rank_one(3), 0), "K must be >= 1"),
    (lambda: hosvd(noisy_rank_one(3), (2, 2)), "three positive integers"),
    (lambda: variance_explained(noisy_rank_one(3), _rank_two((8, 7, 6)), 3),
     r"upto_k must be in \[1, 2\]"),
    (lambda: variance_explained(noisy_rank_one(3), _rank_two((8, 7, 6)), 0),
     r"upto_k must be in \[1, 2\]"),
    (lambda: support_metrics(_rank_two((8, 7, 6)), _rank_two((8, 7, 5))),
     "dims differ"),
    (lambda: QuadOperators(np.ones((3, 2)), np.eye(2), np.eye(2)),
     "must be square"),
    (lambda: QuadOperators(np.eye(3), np.triu(np.ones((2, 2))), np.eye(2)),
     "not symmetric"),
    (lambda: qnorm_lasso_solve(np.ones(3), np.eye(3), 0.5, lipschitz=0.0),
     "positive definite"),
    (lambda: difference_penalty(8, 1.0, order=3), "2 or 4"),
    (lambda: difference_penalty(8, -1.0), "non-negative"),
    (lambda: fit_method("nope", noisy_rank_one(3), SimScenarioSpec(2)),
     "unknown method"),
    (lambda: run_table_experiment(SimScenarioSpec(2), ["tpa"], 0),
     "replicates must be >= 1"),
    (lambda: ModePenalty("ridge"), "unknown penalty kind"),
    (lambda: ModePenalty("lasso", []), "non-empty"),
    (lambda: PenaltySpec.lasso(u="aic"), "unknown penalty value"),
    (lambda: tensor3(np.ones(4), (0, 2, 2)), "dims must be positive"),
], ids=["SolverConfig-init", "cp_als-K0", "tpa-K0", "hosvd-two-ranks",
        "varex-upto_k-high", "varex-upto_k-zero", "support_metrics-dims",
        "QuadOperators-non-square", "QuadOperators-non-symmetric",
        "qnorm_lasso_solve-lipschitz0", "difference_penalty-order3",
        "difference_penalty-alpha", "fit_method-name", "table-replicates0",
        "ModePenalty-kind", "ModePenalty-empty-grid", "PenaltySpec-aic",
        "tensor3-zero-dim"])
def test_each_public_check_refuses_its_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_the_nonneg_penalty_is_infinite_off_its_domain():
    assert nonneg_l1_penalty().evaluate(np.array([1.0, -0.5])) == np.inf
    assert nonneg_l1_penalty().evaluate(np.array([1.0, 0.5])) == 1.5


def test_als_lasso_step_breaks_an_exact_bic_tie_to_the_larger_level():
    # levels 1 and 2 both zero every coefficient, so their BIC values are
    # equal to the last bit; both beat the dense fit at level 0
    gram = np.eye(1)
    corr = np.array([[0.1], [0.05]])
    upd = _mode_update(ModePenalty("lasso", [0.0, 1.0, 2.0]))
    coef, level = _lasso_step(upd, gram, corr, None, 100.0, 1000)
    assert level == 2.0
    npt.assert_array_equal(coef, np.zeros((2, 1)))


def test_als_lasso_step_keeps_a_strictly_better_smaller_level():
    gram = np.eye(1)
    corr = np.array([[5.0], [0.01]])
    upd = _mode_update(ModePenalty("lasso", [0.1, 1.0, 10.0]))
    coef, level = _lasso_step(upd, gram, corr, None, 26.0, 100)
    # residuals 1.99, 2 and 26 at one, one and no nonzero coefficients
    assert level == 0.1
    npt.assert_allclose(coef, [[4.9], [0.0]])


def test_relative_stopping_rule():
    assert not _converged(None, 1.0, 1e-6)
    assert _converged(2.0, 2.0 + 1e-6, 1e-6)
    assert not _converged(2.0, 2.0 + 3e-6, 1e-6)
    # relative to |prev|, so a negative objective stops the same way
    assert _converged(-2.0, -2.0 - 1e-6, 1e-6)
    assert _converged(0.0, 0.0, 1e-6)


@pytest.mark.parametrize("levels", [(1e6, 0.0), (0.0, 1e6)])
def test_penalized_pca_zero_fit_from_either_factor(levels):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 5))
    fit = sparse_pca_rank_one(m, *levels)
    assert fit.d == 0.0 and fit.converged
    npt.assert_array_equal(fit.u, np.zeros(6))
    npt.assert_array_equal(fit.v, np.zeros(5))
    assert (fit.lam_left, fit.lam_right) == levels


@pytest.mark.parametrize("K", [1, 3])
def test_als_records_one_level_per_component(K):
    x = noisy_rank_one(4)
    assert cp_als(x, K).diagnostics["lambdas"] == {
        m: [0.0] * K for m in "uvw"}
    fit = sparse_cp_als(x, K, PenaltySpec.lasso(u=0.05))
    assert fit.diagnostics["lambdas"] == {"u": [0.05] * K, "v": [0.0] * K,
                                          "w": [0.0] * K}
    zero = sparse_cp_als(np.zeros((4, 3, 2)), K, PenaltySpec.lasso(u=0.05))
    assert zero.diagnostics["lambdas"] == {m: [0.0] * K for m in "uvw"}


def test_operator_of_each_method_kind():
    dims = (5, 6, 7)
    assert METHODS["tpa"].build_operator(dims) is None
    q = METHODS["gcp"].build_operator(dims, (2.0 * np.eye(5), None, None))
    npt.assert_array_equal(q.q1, 2.0 * np.eye(5))
    npt.assert_array_equal(q.q2, np.eye(6))
    npt.assert_array_equal(q.q3, np.eye(7))
    s = METHODS["fpca"].build_operator(dims, alpha=2.0, order=4)
    want = SmootherSet.second_difference(dims, 2.0, order=4)
    for got, ref in zip((s.omega_u, s.omega_v, s.omega_w),
                        (want.omega_u, want.omega_v, want.omega_w)):
        npt.assert_array_equal(got, ref)
    assert s.alpha == 2.0
    omega = np.diag([0.0, 1.0, 2.0, 1.0, 0.0, 3.0])
    s = METHODS["fpca-halfsmooth"].build_operator(dims, (None, omega, None),
                                                  alpha=0.5)
    npt.assert_array_equal(s.omega_u, np.zeros((5, 5)))
    npt.assert_array_equal(s.omega_v, omega)
    npt.assert_array_equal(s.omega_w, np.zeros((7, 7)))
    assert s.alpha == 0.5


@pytest.mark.parametrize("method, cls", [("hooi", TuckerModel),
                                         ("tpa", CpModel)])
def test_load_model_reads_the_kind_the_cli_wrote(tmp_path, method, cls):
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, noisy_rank_one(5))
    out = tmp_path / method
    assert main(["decompose", "--method", method, "--rank", "2",
                 "--input", str(path), "--out", str(out)]) == 0
    model = fileio.load_model(out)
    assert type(model) is cls
    load = (fileio.load_tucker_model if cls is TuckerModel
            else fileio.load_cp_model)
    want = load(out)
    for got, ref in zip((model.U, model.V, model.W),
                        (want.U, want.V, want.W)):
        npt.assert_array_equal(got, ref)


def test_save_model_writes_the_weights_of_its_kind(tmp_path):
    x = noisy_rank_one(6)
    fileio.save_model(tmp_path / "cp", tpa(x, 2))
    fileio.save_model(tmp_path / "tucker", hosvd(x, (2, 2, 2)))
    assert (tmp_path / "cp" / "d.csv").exists()
    assert not (tmp_path / "cp" / "core.t3").exists()
    assert (tmp_path / "tucker" / "core.t3").exists()
    assert not (tmp_path / "tucker" / "d.csv").exists()
    npt.assert_array_equal(fileio.load_model(tmp_path / "tucker").core,
                           hosvd(x, (2, 2, 2)).core)
