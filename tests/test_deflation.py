"""Every deflation method reports the same per-component diagnostics."""

import numpy as np
import pytest

from hopca.decompose import tpa
from hopca.generalized import (
    QuadOperators,
    SmootherSet,
    fpca,
    gcp,
    general_cp_tpa,
    l1_penalty,
    sparse_gcp,
)
from hopca.sparse import PenaltySpec, SparseDiagnostics, sparse_cp_tpa

K = 2
SHAPE = (6, 5, 4)
PER_COMPONENT = {"method", "objective_traces", "iterations", "converged",
                 "lambdas", "nnz", "greedy_d",
                 "component_order", "residual_norm", "truncated_at"}
FITS = {
    "tpa": (lambda x: tpa(x, K), {"orthogonalized"}),
    "sparse-cp-tpa": (lambda x: sparse_cp_tpa(x, K, PenaltySpec.lasso(u=0.1)),
                      {"sparse"}),
    "general-cp-tpa": (lambda x: general_cp_tpa(
        x, K, ((l1_penalty(), 0.1), (l1_penalty(), 0.0),
               (l1_penalty(), 0.0))), {"sparse", "penalties"}),
    "gcp": (lambda x: gcp(x, QuadOperators.identity(SHAPE), K), set()),
    "sparse-gcp": (lambda x: sparse_gcp(x, QuadOperators.identity(SHAPE), K,
                                        (0.1, 0.0, 0.0)), {"sparse"}),
    "fpca": (lambda x: fpca(x, SmootherSet.second_difference(SHAPE, 1.0), K),
             {"alpha"}),
}


@pytest.mark.parametrize("method", sorted(FITS))
def test_uniform_per_component_diagnostics(method):
    fit, extra = FITS[method]
    model = fit(np.random.default_rng(3).standard_normal(SHAPE))
    diag = model.diagnostics
    assert diag["method"] == method
    assert set(diag) - extra == PER_COMPONENT
    assert diag["truncated_at"] is None
    assert len(diag["converged"]) == K
    detail = SparseDiagnostics.from_model(model)
    assert len(detail.iterations) == K
    assert len(detail.objective_traces) == K
    for mode in ("u", "v", "w"):
        assert len(detail.nnz[mode]) == K
        assert len(detail.lambdas[mode]) == K
