"""Deflation fits later components to the residual ``R = x - sum of the
accepted terms`` without forming it: every contraction, the SVD start
and the norm BIC reads come from ``x``, its memoized Grams and the
terms.  Each is checked here against the same quantity of ``R`` formed,
on random tensors and terms, tall unfoldings included."""

import tracemalloc

import numpy as np
import numpy.testing as npt
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopca.decompose import (
    RankOneFit,
    SolverConfig,
    _rank_one,
    _shared_grams,
    _Terms,
    contract_u,
    contract_v,
    contract_w,
    init_rank_one,
    leading_singular_vectors,
    tpa,
    tpa_rank_one,
)
from hopca.generalized import QuadOperators, gcp, gcp_rank_one
from hopca.sparse import PenaltySpec, _mode_updates, sparse_cp_tpa
from hopca.tensor3 import frob_norm, matricize, outer3

PROPERTY = settings(max_examples=40, deadline=None)

# (2, 9, 2) and (2, 2, 9) have a tall mode-2 or mode-3 unfolding
shapes = st.one_of(st.sampled_from([(2, 9, 2), (2, 2, 9)]),
                   st.tuples(*(st.integers(2, 7) for _ in range(3))))
seeds = st.integers(0, 2**32 - 1)
counts = st.integers(1, 3)


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_terms(view, k, rng):
    """``k`` accepted terms with unit factors and weights up to 3 ||x||."""
    terms = _Terms(view, k)
    for _ in range(k):
        terms.accept(RankOneFit(*(unit(rng, n) for n in view.shape),
                                float(rng.uniform(0.0, 3.0) * frob_norm(view))))
    return terms


def formed(view, terms):
    """``R`` formed directly, independently of :meth:`_Terms.residual`."""
    U, V, W, d = terms.accepted()
    return view - np.einsum("ik,jk,lk,k->ijl", U, V, W, d)


@PROPERTY
@example(shape=(2, 9, 2), seed=0, k=2)
@given(shapes, seeds, counts)
def test_the_corrected_contraction_is_the_contraction_of_the_residual(
        shape, seed, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    with _shared_grams(x) as view:
        terms = random_terms(view, k, rng)
        resid = formed(view, terms)
        qf = [unit(rng, n) for n in shape]
        pairs = ((contract_u, 1, 2), (contract_v, 0, 2), (contract_w, 0, 1))
        for m, (contract, a, b) in enumerate(pairs):
            implicit = contract(view, qf[a], qf[b]) - terms.correction(m, qf)
            npt.assert_allclose(implicit, contract(resid, qf[a], qf[b]),
                                rtol=0, atol=1e-12 * frob_norm(x))


@PROPERTY
@example(shape=(2, 9, 2), seed=0, k=2)
@example(shape=(2, 2, 9), seed=1, k=1)
@given(shapes, seeds, counts)
def test_the_updated_gram_start_is_the_start_of_the_residual(shape, seed, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    with _shared_grams(x) as view:
        init_rank_one(view, "hosvd", None)  # the start of x, memoized
        terms = random_terms(view, k, rng)
        resid = formed(view, terms)
        for mode in (2, 3):
            m = matricize(resid, mode)
            sv = np.linalg.svd(m, compute_uv=False)
            gap = sv[0] ** 2 - (sv[1] ** 2 if sv.size > 1 else 0.0)
            full = leading_singular_vectors(m, 1)[:, 0]
            peaks = np.sort(np.abs(full))[::-1]
            # an eigenvector moves by about eps ||G|| / gap; the sign rule
            # needs a clear largest entry
            scale = frob_norm(x) ** 2 + frob_norm(resid) ** 2
            assume(gap > 1e-6 * scale)
            assume(peaks.size == 1 or peaks[0] - peaks[1] > 1e-6)
            npt.assert_allclose(terms.start(mode), full, rtol=0,
                                atol=1e-12 * scale / gap)


@PROPERTY
@example(shape=(2, 9, 2), seed=0, k=2)
@given(shapes, seeds, counts)
def test_the_closed_form_norm_is_the_norm_of_the_residual(shape, seed, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    with _shared_grams(x) as view:
        terms = random_terms(view, k, rng)
        resid = formed(view, terms)
    # the closed form subtracts; keep draws where R holds enough digits
    assume(frob_norm(resid) ** 2 >= 1e-3 * frob_norm(x) ** 2)
    npt.assert_allclose(np.sqrt(terms.norm_sq()), frob_norm(resid),
                        rtol=1e-10)
    npt.assert_allclose(terms.residual(), resid, rtol=0, atol=1e-12 * (
        frob_norm(x) + float(np.sum(terms.d))))


def instance(seed, shape=(9, 7, 6)):
    """Two components with a sparse first mode, plus unit noise."""
    rng = np.random.default_rng(seed)
    u = np.zeros((shape[0], 2))
    u[:4, 0], u[3:7, 1] = rng.standard_normal(4), rng.standard_normal(4)
    u /= np.linalg.norm(u, axis=0)
    v = np.column_stack([unit(rng, shape[1]) for _ in "ab"])
    w = np.column_stack([unit(rng, shape[2]) for _ in "ab"])
    return (np.einsum("ik,jk,lk,k->ijl", u, v, w, [30.0, 15.0])
            + rng.standard_normal(shape))


def greedy_terms(model):
    """Each component's term ``d u o v o w``, in the greedy order."""
    order = list(model.diagnostics["component_order"])
    return [outer3(model.U[:, i], model.V[:, i], model.W[:, i], model.d[i])
            for i in (order.index(j) for j in range(model.K))]


def test_later_components_are_fits_of_the_formed_residual():
    cfg = SolverConfig(max_iter=200, tol=1e-10)
    pen = PenaltySpec.lasso(u="bic")
    for seed in (0, 1, 2):
        x = instance(seed)
        rng = np.random.default_rng(seed)
        q = QuadOperators(*(np.eye(n) + 0.2 * np.diag(rng.uniform(size=n))
                            for n in x.shape))
        fits = {
            "tpa": (tpa(x, 3, cfg), lambda r: tpa_rank_one(r, cfg)),
            "sparse-cp-tpa": (sparse_cp_tpa(x, 3, pen, cfg),
                              lambda r: _rank_one(r, _mode_updates(pen), cfg,
                                                  cfg.rng())),
            "gcp": (gcp(x, q, 3, cfg), lambda r: gcp_rank_one(r, q, cfg)),
        }
        for name, (model, fit_formed) in fits.items():
            terms = greedy_terms(model)
            resid = x.copy()
            for k, term in enumerate(terms):
                ref = fit_formed(resid)
                npt.assert_allclose(term, outer3(ref.u, ref.v, ref.w, ref.d),
                                    rtol=0, atol=1e-9 * frob_norm(x),
                                    err_msg=f"{name} seed {seed} comp {k}")
                resid -= term
            npt.assert_allclose(model.diagnostics["residual_norm"],
                                frob_norm(resid), rtol=1e-10)


def test_a_deflation_after_the_start_of_x_allocates_nothing_tensor_sized():
    x = instance(5, shape=(40, 40, 40))
    cfg = SolverConfig(max_iter=60)
    with _shared_grams(x) as view:
        init_rank_one(view, "hosvd", None)  # the start of x, memoized
        tracemalloc.start()
        try:
            model = sparse_cp_tpa(view, 3, PenaltySpec.lasso(u="bic"), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # three components were fit (a third of pure noise may be the zero fit)
    assert len(model.diagnostics["iterations"]) == 3
    # the block is open on view, so the fit neither checks nor copies it;
    # a formed residual or unfolding takes all of its bytes
    assert peak < x.nbytes // 4
