"""The CP-ALS sweep takes its products on reshape views of the tensor and
its residual norm in closed form.  Each sweep is checked here against
the textbook route: the mode unfolding times the Khatri-Rao product of
the other two factors, and the residual tensor formed.  A spy step in
every mode sees each product and mirrors the factor state of the loop,
on random shapes and component counts, in C and Fortran layouts."""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca.decompose import (
    _GRAM_RCOND,
    _TINY,
    CpModel,
    SolverConfig,
    _als,
    _init_cp_factors,
)
from hopca.tensor3 import frob_norm, khatri_rao, matricize

PROPERTY = settings(max_examples=40, deadline=None)


def spied_fit(x, K, sweeps, solve):
    """Run ``sweeps`` sweeps of the ALS loop with a spy step in every mode
    that takes its scaled factor from ``solve(gram, corr)``.  Returns the
    model, the (product, textbook product) pair of every update and the
    factors and weights after every sweep, mirrored as the loop sets
    them."""
    cfg = SolverConfig(max_iter=sweeps, tol=1e-300)
    factors = list(_init_cp_factors(x, K, cfg.init, cfg.rng()))
    products, states = [], []

    def spy(m):
        def step(gram, corr, warm):
            a, b = (f for o, f in enumerate(factors) if o != m)
            products.append((corr, matricize(x, m + 1) @ khatri_rao(b, a)))
            scaled = solve(gram, corr)
            d = np.linalg.norm(scaled, axis=0)
            live = d > _TINY
            factors[m] = np.where(live, scaled / np.where(live, d, 1.0), 0.0)
            if m == 2:
                states.append(([f.copy() for f in factors], d))
            return scaled, 0.0
        return lambda norm_sq, size: step

    model = _als(x, K, cfg, "spy", tuple(spy(m) for m in range(3)))
    return model, products, states


def least_squares(gram, corr):
    return np.linalg.lstsq(gram, corr.T, rcond=None)[0].T


def tensors():
    return st.tuples(st.tuples(*(st.integers(1, 8) for _ in range(3))),
                     st.integers(0, 2**32 - 1), st.sampled_from("CF"))


@PROPERTY
@given(tensors(), st.data())
def test_sweep_products_equal_the_khatri_rao_route(case, data):
    shape, seed, layout = case
    K = data.draw(st.integers(1, 2 * max(shape)))
    x = np.asarray(np.random.default_rng(seed).standard_normal(shape),
                   order=layout)
    _, products, _ = spied_fit(x, K, 2, least_squares)
    assert len(products) == 6
    # every entry is <x, unit rank-one tensor>, so ||x|| scales its error
    for corr, reference in products:
        npt.assert_allclose(corr, reference, rtol=1e-12,
                            atol=1e-12 * frob_norm(x))


@PROPERTY
@given(tensors(), st.data())
def test_closed_form_residual_equals_the_formed_one(case, data):
    shape, seed, layout = case
    K = data.draw(st.integers(1, 2 * max(shape)))
    x = np.asarray(np.random.default_rng(seed).standard_normal(shape),
                   order=layout)
    model, _, states = spied_fit(x, K, 3, least_squares)
    trace = model.diagnostics["residual_trace"]
    assert len(trace) == len(states)
    norm_sq_x = frob_norm(x) ** 2
    for resid, (factors, d) in zip(trace, states):
        formed = frob_norm(x - CpModel(*factors, d).reconstruct())
        if formed ** 2 <= _GRAM_RCOND * norm_sq_x:
            assert resid == formed
        else:
            # the identity's terms are at most (||x|| + sum d)^2
            scale = (np.sqrt(norm_sq_x) + np.sum(np.abs(d))) ** 2
            assert abs(resid ** 2 - formed ** 2) <= 1e-12 * scale


@PROPERTY
@given(st.tuples(*(st.integers(2, 8) for _ in range(3))),
       st.integers(0, 2**32 - 1), st.sampled_from("CF"), st.data())
def test_an_exact_rank_k_tensor_reaches_the_formed_residual(shape, seed,
                                                            layout, data):
    # orthonormal factors: the singular-vector start spans them, so the
    # first exact sweep leaves a residual the closed form cannot resolve
    K = data.draw(st.integers(1, min(shape)))
    rng = np.random.default_rng(seed)
    truth = [np.linalg.qr(rng.standard_normal((n, K)))[0] for n in shape]
    x = np.asarray(CpModel(*truth, rng.uniform(1.0, 3.0, K)).reconstruct(),
                   order=layout)
    model, _, states = spied_fit(x, K, 2, lambda gram, corr: np.linalg.solve(
        gram, corr.T).T)
    factors, d = states[-1]
    formed = frob_norm(x - CpModel(*factors, d).reconstruct())
    assert formed ** 2 <= _GRAM_RCOND * frob_norm(x) ** 2
    assert model.diagnostics["residual_trace"][-1] == formed
