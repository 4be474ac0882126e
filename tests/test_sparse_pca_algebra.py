"""The penalized PCA's implicit deflation against the formed one.

``sparse.sparse_pca`` is the rank-one engine's deflation on the tensor
view ``m[:, :, None]``, whose third factor is fixed at ``[1.0]``: it
never forms ``m' = m - L diag(d) R^T``.  Its products, ``||m'||^2``, the
weights and each later start come from ``m`` and the accepted terms
(``decompose._Terms``), the start from a few Lanczos steps on the
updated Gram (``decompose._top_pairs``) or one small ``eigh`` of it.
The oracle is the formed route: ``m'`` subtracted term by term, and the
leading right singular vector of ``m'`` from ``leading_singular_vectors``.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import hopca.decompose as decompose
import hopca.sparse as sparse
from hopca.decompose import (
    _GRAM_RCOND,
    _LANCZOS_STEPS,
    _PLAIN,
    RankOneFit,
    SolverConfig,
    _fit_rank_one,
    _shared_grams,
    _smaller_gram,
    _Terms,
    _top_pairs,
    contract_u,
    contract_v,
    contract_w,
    leading_singular_vectors,
)
from hopca.simulate import (TABLE_METHODS, SimScenarioSpec, fit_method,
                            simulate)
from hopca.sparse import ModePenalty, sparse_pca

TOL = 1e-12


def spiked(seed, shape, values, noise=1e-3):
    """``U diag(values) V^T`` plus ``noise`` times a standard normal
    matrix, with random orthonormal U, V."""
    rng = np.random.default_rng(seed)
    r = len(values)
    u = np.linalg.qr(rng.standard_normal((shape[0], r)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], r)))[0]
    return (u * np.asarray(values)) @ v.T + noise * rng.standard_normal(shape)


def formed(m, fits):
    """``m`` less each accepted component, subtracted in turn."""
    for fit in fits:
        m = m - fit.d * np.outer(fit.u, fit.v)
    return m


def count_formed_starts(monkeypatch):
    """Count the starts that take the formed route (the first component's
    start, from the memo, is one of them)."""
    calls = []
    real = decompose.leading_singular_vectors

    def counting(m, k, **kwargs):
        calls.append(m.shape)
        return real(m, k, **kwargs)

    monkeypatch.setattr(decompose, "leading_singular_vectors", counting)
    return calls


def accepted_terms(view, fits):
    """A ``_Terms`` of the view with the component fits accepted, each
    with its fixed third factor ``[1.0]``."""
    terms = _Terms(view, 3)
    for fit in fits:
        terms.accept(RankOneFit(fit.u, fit.v, np.ones(1), fit.d))
    return terms


CASES = [(seed, shape, pen)
         for seed, shape in ((0, (40, 30)), (1, (30, 40)), (2, (60, 9)),
                             (3, (9, 60)), (4, (25, 25)))
         for pen in (ModePenalty("lasso", 0.05), ModePenalty("lasso", None))]
IDS = [f"{s}-{r}x{c}-{'bic' if p.lam is None else 'fixed'}"
       for s, (r, c), p in CASES]


@pytest.mark.parametrize("seed,shape,pen", CASES, ids=IDS)
def test_each_component_matches_the_formed_deflation(seed, shape, pen,
                                                     monkeypatch):
    """Component j's products, ``||m'||^2``, weight and start, from ``m``
    and the first j fits, are those of ``m'`` formed from them."""
    m = spiked(seed, shape, [9.0, 5.0, 3.0])
    calls = count_formed_starts(monkeypatch)
    _, _, _, fits = sparse_pca(m, 3, pen, SolverConfig(tol=1e-10))
    assert len(fits) == 3 and all(fit.d > 0.0 for fit in fits)
    assert len(calls) == 1  # only the first start is formed
    scale = np.linalg.norm(m)
    rng = np.random.default_rng(seed + 100)
    one = np.ones(1)
    for j in range(3):
        with _shared_grams(m[:, :, None]) as view:
            terms = accepted_terms(view, fits[:j])
            oracle = formed(m, fits[:j])
            u, v = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
            npt.assert_allclose(
                contract_u(view, v, one) - terms.correction(0, (u, v, one)),
                oracle @ v, rtol=0, atol=TOL * scale * np.linalg.norm(v))
            npt.assert_allclose(
                contract_v(view, u, one) - terms.correction(1, (u, v, one)),
                oracle.T @ u, rtol=0, atol=TOL * scale * np.linalg.norm(u))
            assert abs(terms.norm_sq() - np.sum(oracle ** 2)) <= (
                TOL * scale ** 2)
            fit = fits[j]
            qf = (fit.u, fit.v, one)
            weight = (contract_w(view, fit.u, fit.v)
                      - terms.correction(2, qf))[0]
            assert abs(weight - fit.u @ oracle @ fit.v) <= TOL * scale
            assert abs(fit.d - fit.u @ oracle @ fit.v) <= TOL * scale
            npt.assert_allclose(terms.start(2),
                                leading_singular_vectors(oracle.T, 1)[:, 0],
                                rtol=0, atol=TOL)


@pytest.mark.parametrize("seed,shape,pen", CASES, ids=IDS)
def test_the_fits_match_the_formed_route(seed, shape, pen):
    """Every component fit equals the fit the engine makes of the formed
    ``m'`` from its own full start."""
    m = spiked(seed, shape, [9.0, 5.0, 3.0])
    cfg = SolverConfig(tol=1e-10)
    _, _, _, fits = sparse_pca(m, 3, pen, cfg)
    updates = (sparse._mode_update(pen), _PLAIN[1], _PLAIN[2])
    for j, fit in enumerate(fits):
        oracle = _fit_rank_one(formed(m, fits[:j])[:, :, None], updates, cfg)
        assert fit.iterations == oracle.iterations
        assert fit.lam_left == pytest.approx(oracle.lambdas["u"], rel=TOL)
        npt.assert_allclose(fit.u, oracle.u, rtol=0, atol=1e-10)
        npt.assert_allclose(fit.v, oracle.v, rtol=0, atol=1e-10)
        assert fit.d == pytest.approx(oracle.d, rel=1e-10)


@pytest.mark.parametrize("seed", range(12))
def test_lanczos_top_matches_eigh(seed):
    """On random PSD matrices, plain (no update) and updated by the
    deflation of their top eigenpair, the top pair's vector is ``eigh``'s."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.sort(rng.uniform(0.1, 1.0, n) * 0.6 ** np.arange(n))
    gram = (q * lam) @ q.T
    none = np.zeros((n, 0))
    for a, c, d, mid in ((none, none, np.zeros(0), np.zeros((0, 0))),
                         (q[:, -1:], gram @ q[:, -1:], np.ones(1),
                          np.ones((1, 1)))):
        h = gram - (a * d) @ c.T - c @ (a * d).T + (a * d) @ mid @ (a * d).T
        top = np.linalg.eigh(h)[1][:, -1]
        pairs = _top_pairs(gram, 1, (a, c, d, mid), lam[-1])
        assert pairs is not None
        y = pairs[0][:, 0]
        assert min(np.linalg.norm(y - top), np.linalg.norm(y + top)) <= TOL


def test_lanczos_top_refuses_an_eigenvalue_below_the_gram_rcond():
    """Deflating a Gram's top eigenpair leaves a top eigenvalue below
    ``_GRAM_RCOND`` of the Gram's: the update kept too few digits."""
    for second, found in ((0.1 * _GRAM_RCOND, False),
                          (10 * _GRAM_RCOND, True)):
        lam = np.array([second * 0.5 ** i for i in range(5, 0, -1)]
                       + [second, 1.0])
        top = np.eye(lam.size)[:, -1:]
        pairs = _top_pairs(np.diag(lam), 1, (top, top, np.ones(1),
                                             np.ones((1, 1))), lam[-1])
        assert (pairs is not None) == found
        if found:
            assert abs(abs(pairs[0][-2, 0]) - 1.0) <= TOL


@pytest.mark.parametrize("shape", [(80, 40), (40, 80)],
                         ids=["wide-unfolding", "tall-unfolding"])
def test_a_clustered_top_pair_takes_one_small_eigh(shape, monkeypatch):
    """After the first component the top pair is 1e-6 apart and sits on
    37 more values within 25% of it: the Lanczos steps cannot resolve it,
    and the start is one ``eigh`` of the 40 x 40 updated Gram (the view's
    mode-2 unfolding is wide for a tall ``m``, tall for a wide one), not
    the formed route.  The memo's Gram, whose top pair stands apart, takes
    Lanczos and no ``eigh``."""
    m = spiked(4, shape, [9.0, 4.0, 4.0 * (1 - 1e-6),
                          *np.linspace(3.99, 3.0, 37)], noise=0.0)
    calls = count_formed_starts(monkeypatch)
    sizes = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    _, _, _, fits = sparse_pca(m, 2, ModePenalty("lasso", 0.0))
    assert len(calls) == 1
    assert sizes.count(40) == 1  # the updated Gram only
    assert fits[1].d == pytest.approx(4.0, rel=1e-3)


def test_a_tiny_second_value_takes_the_formed_route(monkeypatch):
    """sigma_2 = 1e-5 sigma_1: ``||m'||^2`` is below ``_GRAM_RCOND
    ||m||^2``, so ``m'`` is formed, and its component is still fit."""
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((30, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((20, 2)))[0]
    m = (u * [1.0, 1e-5]) @ v.T
    calls = count_formed_starts(monkeypatch)
    left, right, d, fits = sparse_pca(m, 2, ModePenalty("lasso", 0.0),
                                      SolverConfig(tol=1e-12))
    assert len(calls) == 2
    assert d[1] == pytest.approx(1e-5, rel=1e-6)
    assert abs(left[:, 1] @ u[:, 1]) == pytest.approx(1.0, abs=1e-8)


def test_no_full_eigh_of_the_tall_unfolding_beyond_the_memos(monkeypatch):
    """Inside one block on the scenario-2 tensor, the eight table methods
    take no ``eigh`` of order above ``_LANCZOS_STEPS``: the 400 x 400 Gram
    of the tall mode-1 unfolding, the memo's, and its updates by deflation
    give their top pairs to Lanczos."""
    spec = SimScenarioSpec(2, seed=2024)
    x = simulate(spec).x
    sizes = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    with _shared_grams(x) as x:
        for name in TABLE_METHODS:
            fit_method(name, x, spec, SolverConfig(max_iter=100))
    assert sizes and max(sizes) <= _LANCZOS_STEPS


def test_a_later_start_on_the_tall_view_allocates_nothing_matrix_sized():
    """A wide ``m`` has a tall mode-2 view unfolding ``m^T``: the later
    start maps the top eigenvector of the updated ``m m^T`` through the
    deflated ``m^T`` on views of ``m``, and forms neither."""
    m = spiked(6, (30, 4000), [9.0, 5.0, 3.0])
    _, _, _, fits = sparse_pca(m, 2, ModePenalty("lasso", 0.05))
    with _shared_grams(m[:, :, None]) as view:
        _smaller_gram(view, 2)  # the memo's Gram, as the Tucker loop hands it
        terms = accepted_terms(view, fits)
        tracemalloc.start()
        try:
            start = terms.start(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    npt.assert_allclose(start, leading_singular_vectors(formed(m, fits).T,
                                                        1)[:, 0],
                        rtol=0, atol=TOL)
    assert peak < m.nbytes // 4
