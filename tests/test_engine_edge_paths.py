"""Edge paths of the rank-one engine and the deflation loop: a restart
from a start with zero contraction or a start that vanishes on its
domain, exhausted restarts, truncation on a zero target, and the SVD
start of a residual formed where its updated Gram keeps too few digits."""

import numpy as np

from hopca import decompose
from hopca.decompose import (RankOneFit, SolverConfig, _shared_grams, _Terms,
                             contract_u, init_rank_one, leading_singular_vectors,
                             tpa, tpa_rank_one)
from hopca.generalized import (general_cp_tpa_rank_one, l1_penalty,
                               nonneg_l1_penalty)
from hopca.sparse import sparse_cp_tpa_rank_one
from hopca.tensor3 import matricize, outer3


def dead_start_tensor():
    """A tensor whose SVD start (v, w) has a zero u-contraction."""
    x = np.zeros((3, 2, 3))
    x[0, 0, 1] = x[1, 0, 2] = 3.0
    x[2, 1, 0] = 4.0
    return x


def test_dead_start_has_zero_contraction():
    x = dead_start_tensor()
    v, w = init_rank_one(x, "hosvd", None)
    assert not np.any(contract_u(x, v, w))


def test_zero_contraction_restarts_the_plain_fit_from_a_random_start():
    fit = tpa_rank_one(dead_start_tensor())
    assert np.isclose(fit.d, 4.0)
    assert fit.converged


def test_zero_contraction_at_a_positive_level_gives_the_zero_fit():
    fit = sparse_cp_tpa_rank_one(dead_start_tensor(), (0.5, 0.0, 0.0))
    assert fit.d == 0.0 and fit.converged and fit.iterations == 1
    assert not (fit.u.any() or fit.v.any() or fit.w.any())
    assert fit.u.shape == (3,) and fit.v.shape == (2,) and fit.w.shape == (3,)


def test_exhausted_restarts_give_the_zero_fit():
    x = np.zeros((3, 4, 2))
    fit = general_cp_tpa_rank_one(x, [(l1_penalty(), 0.0)] * 3)
    assert fit.d == 0.0 and fit.converged
    assert not (fit.u.any() or fit.v.any() or fit.w.any())


def test_a_vanished_residual_truncates_the_deflation():
    e = np.eye(3)[0]
    model = tpa(2.0 * np.multiply.outer(np.outer(e, e), e), 3)
    assert np.array_equal(model.d, [2.0, 0.0, 0.0])
    assert model.diagnostics["truncated_at"] == 1


def test_a_zero_tensor_truncates_before_any_loop():
    model = tpa(np.zeros((3, 4, 2)), 2)
    assert model.diagnostics["truncated_at"] == 0
    assert model.diagnostics["iterations"] == []
    assert not np.any(model.d)


def test_a_start_that_vanishes_on_its_domain_restarts_the_fit():
    # seed 4 draws v = [-1] first, which the non-negative domain zeroes
    assert np.random.default_rng(4).standard_normal(1)[0] < 0.0
    x = np.random.default_rng(1).random((5, 1, 4)) + 0.5
    penalties = [(l1_penalty(), 0.0), (nonneg_l1_penalty(), 0.0),
                 (l1_penalty(), 0.0)]
    fit = general_cp_tpa_rank_one(x, penalties,
                                  SolverConfig(init="random", seed=4))
    assert fit.d > 0.0 and fit.converged
    assert np.array_equal(fit.v, [1.0])
    assert np.isclose(fit.d, np.linalg.norm(x[:, 0, :], 2))


def test_a_start_whose_updated_gram_keeps_too_few_digits_forms_the_residual(
        monkeypatch):
    """After the exact term of ``x = 100 a o b o c + E`` the updated mode-2
    Gram is ``E_(2) E_(2)^T``, whose top eigenvalue 0.9e-4 is below
    ``_GRAM_RCOND`` times the Gram of ``x``'s (1e4), while ``||E||^2 =
    5.1e-4`` keeps the terms: the start is taken of ``R`` formed."""
    rng = np.random.default_rng(0)
    a, b, c = (v / np.linalg.norm(v)
               for v in (rng.standard_normal(n) for n in (6, 8, 6)))
    left = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    right = np.linalg.qr(rng.standard_normal((36, 8)))[0]
    scale = np.sqrt(np.array([0.9] + [0.6] * 7) * 1e-8 * 100.0 ** 2)
    e = ((left * scale) @ right.T).reshape(8, 6, 6).transpose(1, 0, 2)
    x = outer3(a, b, c, 100.0) + e
    formed = []

    def spy(m, k, **kwargs):
        formed.append(m.shape)
        return leading_singular_vectors(m, k, **kwargs)

    with _shared_grams(x) as view:
        terms = _Terms(view, 2)
        terms.accept(RankOneFit(a, b, c, 100.0))
        assert terms.norm_sq() > decompose._GRAM_RCOND * terms.norm_sq_x
        target, given = terms.target()
        assert target is view and given is terms
        monkeypatch.setattr(decompose, "leading_singular_vectors", spy)
        got = terms.start(2)
        monkeypatch.undo()
        want = leading_singular_vectors(matricize(terms.residual(), 2), 1)
    assert formed == [(8, 36)]
    np.testing.assert_allclose(got, want[:, 0], rtol=0, atol=1e-14)
    # E's mode-2 unfolding is R's: the start is E's leading left vector
    np.testing.assert_allclose(abs(got @ left[:, 0]), 1.0, rtol=0, atol=1e-12)
