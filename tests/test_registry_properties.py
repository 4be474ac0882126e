"""Invariances every registry method keeps, checked as properties over
small random spiked tensors.

- Permuting the indices of one mode permutes the fit: the reconstruction
  of the permuted tensor is the permuted reconstruction.  The functional
  methods are equivariant only with their smoother permuted too
  (P Omega P^T).
- Scaling the tensor, and every fixed penalty level, by ``c`` scales the
  fit by ``c``.  BIC levels are chosen on a grid anchored at each
  contraction, so a BIC fit needs no level scaled, and it scales even
  where a fourth power of the data's scale overflows or underflows.

The examples are derandomized, so every run draws the same ones: a
failure is a change in the code, not a new draw.  Each strict xfail is a
known fault, kept as the example that shows it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca.decompose import SolverConfig
from hopca.generalized import difference_penalty
from hopca.simulate import METHODS
from hopca.sparse import PenaltySpec

PROPERTY = settings(max_examples=3, deadline=None, derandomize=True)
PERMUTATION_RTOL = 1e-12
SCALE_RTOL = 1e-10

dims = st.tuples(*(st.integers(4, 7) for _ in range(3)))
seeds = st.integers(0, 2**32 - 1)


def spiked(shape, seed):
    """Two rank-one spikes (weights 12 and 7, u supported on its first
    half) plus standard normal noise, and the generator that made them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for weight in (12.0, 7.0):
        u = rng.standard_normal(shape[0])
        u[shape[0] // 2:] = 0.0
        v, w = (rng.standard_normal(n) for n in shape[1:])
        x += weight * np.einsum("i,j,k->ijk", *(f / np.linalg.norm(f)
                                                for f in (u, v, w)))
    return rng, x


def penalty(name, level):
    """A lasso on u at ``level``, by BIC when ``level`` is None; None for
    a method that takes no penalty."""
    if METHODS[name].penalty is None:
        return None
    return PenaltySpec.lasso(u="bic" if level is None else level)


def fit(name, x, pen, omegas=(None, None, None)):
    """The method's K = 2 (or ranks (2, 2, 2)) reconstruction of ``x``,
    with roughness ``omegas`` for the functional methods."""
    entry = METHODS[name]
    op = (entry.build_operator(x.shape, omegas) if entry.operator == "s"
          else None)
    return entry.fit(x, 2, SolverConfig(max_iter=30), pen, op).reconstruct()


def assert_close(a, b, rtol):
    assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def assert_permutes(name, shape, seed, mode, level):
    rng, x = spiked(shape, seed)
    perm = rng.permutation(shape[mode])
    omegas = [difference_penalty(n, 1.0, 2) for n in shape]
    pen = penalty(name, level)
    ref = fit(name, x, pen, omegas)
    omegas[mode] = omegas[mode][np.ix_(perm, perm)]  # P Omega P^T
    got = fit(name, np.take(x, perm, axis=mode), pen, omegas)
    assert_close(got, np.take(ref, perm, axis=mode), PERMUTATION_RTOL)


def assert_scales(name, c, x, level):
    """``c x``, at level ``c level`` (BIC when None), fits ``c`` times
    what ``x`` fits at ``level``."""
    scaled = None if level is None else c * level
    assert_close(fit(name, c * x, penalty(name, scaled)) / c,
                 fit(name, x, penalty(name, level)), SCALE_RTOL)


@PROPERTY
@pytest.mark.parametrize("name", sorted(METHODS))
@given(shape=dims, seed=seeds, mode=st.integers(0, 2))
def test_permuting_a_mode_permutes_the_fit(name, shape, seed, mode):
    assert_permutes(name, shape, seed, mode, 0.5)


SCALES = (1e-8, 1e-3, 7.3, 1e5)
# sparse_cp_als's coordinate descent stops on an absolute 1e-8 change, at
# every scale, and sparse_gcp's q-lasso solve on an absolute 1e-10 KKT
# residual; both are shown below, at c = 1e-8
ABSOLUTE_STOPS = {("sparse-cp-als", c) for c in SCALES} | {
    ("sparse-gcp", 1e-8)}


@PROPERTY
@pytest.mark.parametrize("name, c", [
    (name, c) for name in sorted(METHODS) for c in SCALES
    if (name, c) not in ABSOLUTE_STOPS])
@given(shape=dims, seed=seeds)
def test_scaling_the_tensor_and_its_levels_scales_the_fit(name, c, shape,
                                                          seed):
    assert_scales(name, c, spiked(shape, seed)[1], 0.5)


@pytest.mark.xfail(strict=True, reason="an absolute stopping rule")
@pytest.mark.parametrize("name", ["sparse-cp-als", "sparse-gcp"])
def test_an_absolute_stop_does_not_scale(name):
    for seed in range(4):
        assert_scales(name, 1e-8, spiked((5, 6, 4), seed)[1], 0.5)


@PROPERTY
@pytest.mark.parametrize("c", [2.0**250, 2.0**-250], ids=["2^250", "2^-250"])
@given(shape=dims, seed=seeds)
def test_a_bic_deflation_scales_at_any_scale(c, shape, seed):
    assert_scales("sparse-cp-tpa", c, spiked(shape, seed)[1], None)


def slabs_raised():
    """12 x 10 x 8 standard normals, the first four mode-1 slabs + 3."""
    x = np.random.default_rng(0).standard_normal((12, 10, 8))
    x[:4] += 3.0
    return x


@pytest.mark.parametrize("c", [2.0**e for e in (250, -250, 300, -300)],
                         ids=["2^250", "2^-250", "2^300", "2^-300"])
@pytest.mark.parametrize("name", ["sparse-cp-tpa", "sparse-hosvd",
                                  "sparse-hooi"])
def test_a_bic_fit_scales_at_any_scale(name, c):
    with np.errstate(over="raise"):
        assert_scales(name, c, slabs_raised(), None)


@pytest.mark.xfail(strict=True, reason="at level 0 BIC counts a contraction "
                   "entry of rounding noise as a nonzero, and an exact 0 not")
@pytest.mark.parametrize("check", [
    lambda: assert_permutes("sparse-hosvd", (4, 6, 4), 4041568414, 0, None),
    lambda: assert_permutes("sparse-hooi", (6, 5, 4), 523188077, 0, None),
    lambda: assert_scales("sparse-hosvd", 2.0**250,
                          spiked((4, 5, 6), 4)[1], None)],
    ids=["permuted-sparse-hosvd", "permuted-sparse-hooi",
         "scaled-sparse-hosvd"])
def test_a_bic_choice_turns_on_a_rounding_noise_entry(check):
    check()
