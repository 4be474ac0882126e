"""A SolverConfig setting a solver would not read raises ValueError that
names the field, instead of returning the default fit."""

import numpy as np
import pytest

from hopca.decompose import SolverConfig, tpa_rank_one
from hopca.generalized import (
    QuadOperators,
    SmootherSet,
    fpca_rank_one,
    gcp_rank_one,
    general_cp_tpa_rank_one,
    l1_penalty,
    sparse_gcp_rank_one,
)
from hopca.simulate import METHODS
from hopca.sparse import (
    ModePenalty,
    PenaltySpec,
    sparse_cp_tpa_rank_one,
    sparse_pca,
    sparse_pca_rank_one,
)

X = np.random.default_rng(0).standard_normal((6, 7, 8))
ORTHOGONALIZE = SolverConfig(orthogonalize=True)
RANDOM_INIT = SolverConfig(init="random", seed=5)
PEN = PenaltySpec.lasso(0.3)

RANK_ONE = {
    "tpa_rank_one": lambda cfg: tpa_rank_one(X, cfg),
    "sparse_cp_tpa_rank_one": lambda cfg: sparse_cp_tpa_rank_one(
        X, (0.3, 0.0, 0.0), cfg),
    "general_cp_tpa_rank_one": lambda cfg: general_cp_tpa_rank_one(
        X, ((l1_penalty(), 0.3),) * 3, cfg),
    "gcp_rank_one": lambda cfg: gcp_rank_one(
        X, QuadOperators.identity(X.shape), cfg),
    "sparse_gcp_rank_one": lambda cfg: sparse_gcp_rank_one(
        X, QuadOperators.identity(X.shape), (0.3, 0.0, 0.0), cfg),
    "fpca_rank_one": lambda cfg: fpca_rank_one(
        X, SmootherSet.second_difference(X.shape, 1.0), cfg),
}
MATRIX_PCA = {
    "sparse_pca_rank_one": lambda cfg: sparse_pca_rank_one(X[:, :, 0], 0.3,
                                                           0.0, cfg),
    "sparse_pca": lambda cfg: sparse_pca(X[:, :, 0], 2,
                                         ModePenalty("lasso", 0.3), cfg),
}
# tpa reads every field; hosvd takes no SolverConfig, so its registry
# entry is checked on its own at the end
DECOMPOSITIONS = sorted(set(METHODS) - {"tpa", "hosvd"})
TUCKER = sorted(name for name in DECOMPOSITIONS if METHODS[name].tucker)


def fit(name, cfg):
    k = 2 if METHODS[name].tucker else 3
    pen = PEN if METHODS[name].penalty else None
    return METHODS[name].fit(X, k, cfg, pen)


@pytest.mark.parametrize("name", DECOMPOSITIONS)
def test_orthogonalize_outside_tpa_raises(name):
    with pytest.raises(ValueError, match="SolverConfig.orthogonalize"):
        fit(name, ORTHOGONALIZE)


@pytest.mark.parametrize("name", sorted(RANK_ONE) + sorted(MATRIX_PCA))
def test_orthogonalize_in_a_single_fit_raises(name):
    with pytest.raises(ValueError, match="SolverConfig.orthogonalize"):
        {**RANK_ONE, **MATRIX_PCA}[name](ORTHOGONALIZE)


@pytest.mark.parametrize("name", TUCKER)
def test_random_init_of_a_tucker_method_raises(name):
    with pytest.raises(ValueError, match="SolverConfig.init"):
        fit(name, RANDOM_INIT)


@pytest.mark.parametrize("name", sorted(MATRIX_PCA))
def test_random_init_of_penalized_pca_raises(name):
    with pytest.raises(ValueError, match="SolverConfig.init"):
        MATRIX_PCA[name](RANDOM_INIT)


@pytest.mark.parametrize("name", sorted(set(DECOMPOSITIONS) - set(TUCKER)))
def test_random_init_of_a_cp_method_is_accepted(name):
    assert fit(name, RANDOM_INIT).d.shape == (3,)


@pytest.mark.parametrize("name", sorted(RANK_ONE))
def test_random_init_of_a_rank_one_fit_is_accepted(name):
    RANK_ONE[name](RANDOM_INIT)


@pytest.mark.parametrize("cfg, field", [(ORTHOGONALIZE, "orthogonalize"),
                                        (RANDOM_INIT, "init")])
def test_registry_hosvd_rejects_what_it_would_ignore(cfg, field):
    with pytest.raises(ValueError, match=f"SolverConfig.{field}"):
        METHODS["hosvd"].fit(X, 2, cfg)


def test_registry_hosvd_takes_the_default_config():
    assert METHODS["hosvd"].fit(X, 2, SolverConfig()).ranks == (2, 2, 2)
