"""The unfoldings of a tensor are read in place.

The Gram of each mode's unfolding, on either side, comes from views of
``x`` (modes 1 and 3) or from products of slabs of ``x`` (mode 2), and
matches the Gram of :func:`hopca.tensor3.matricize`'s copy, the
reference, with the columns of a column-side Gram in the view's order.
Starts taken inside and outside a ``_shared_grams`` block are equal bit
for bit, and a block computes ``||x||`` once for every fit inside it.
Every method and the penalized PCA fit a tensor or matrix in any memory
layout to the bits of its C-ordered copy.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopca import decompose
from hopca.decompose import (SolverConfig, _shared_grams, _smaller_gram,
                             _unfolding, _unfolding_gram, _unfolding_vectors)
from hopca.evaluate import roc_sweep
from hopca.simulate import METHODS, ROC_METHODS
from hopca.sparse import ModePenalty, PenaltySpec, sparse_pca
from hopca.tensor3 import matricize

RTOL = 1e-13
LAYOUTS = ("C", "F", "transposed", "strided")


def laid_out(values, layout):
    """``values`` as an array of the same shape in another memory
    layout: C- or F-contiguous, a transposed view of a C array, or every
    other entry of a larger one."""
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "transposed":
        return np.ascontiguousarray(values.transpose(2, 0, 1)).transpose(
            1, 2, 0)
    big = np.zeros(tuple(2 * d for d in values.shape))
    big[::2, ::2, ::2] = values
    return big[::2, ::2, ::2]


def column_order(shape, mode):
    """For each column of ``_unfolding``'s mode-``mode`` unfolding, the
    column of :func:`matricize`'s that holds the same fibre."""
    idx = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
    where = {v: c for c, v in enumerate(matricize(idx, mode)[0])}
    return np.array([where[v] for v in _unfolding(idx, mode)[0]])


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * np.max(
        np.abs(want), initial=0.0)


def check_grams(x):
    """Each mode's row Gram, and its column Gram where that is the smaller
    one (a tall or square unfolding), the one the solvers form."""
    for mode in (1, 2, 3):
        m = matricize(x, mode)
        order = column_order(x.shape, mode)
        # the unfolding is matricize's, its columns reordered
        assert np.array_equal(_unfolding(x, mode), m[:, order])
        assert_close(_unfolding_gram(x, mode, True), m @ m.T)
        if m.shape[1] <= m.shape[0]:
            assert_close(_unfolding_gram(x, mode, False),
                         (m.T @ m)[np.ix_(order, order)])


# (70, 40, 30) spans two mode-2 slabs and (3, 300, 300) has one slab per
# mode-1 index; the rest have a size-one, tall or wide mode
SHAPES = [(70, 40, 30), (3, 300, 300), (40, 3, 2), (2, 40, 3), (3, 2, 40),
          (5, 4, 1), (1, 6, 5), (4, 1, 6), (1, 1, 7), (6, 6, 6)]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_each_gram_is_matricizes_gram(shape, layout):
    values = np.random.default_rng(sum(shape)).standard_normal(shape)
    check_grams(laid_out(values, layout))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.tuples(*(st.integers(1, 9) for _ in range(3))),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_each_gram_of_a_random_shape_is_matricizes_gram(shape, layout, seed):
    values = np.random.default_rng(seed).standard_normal(shape)
    check_grams(laid_out(values, layout))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", [(70, 40, 30), (40, 3, 2), (2, 40, 3),
                                   (3, 2, 40), (5, 4, 1), (6, 6, 6)], ids=str)
def test_starts_inside_and_outside_a_block_are_equal(shape, layout):
    x = laid_out(np.random.default_rng(7).standard_normal(shape), layout)
    ks = [(mode, k) for mode in (1, 2, 3)
          for k in range(1, x.shape[mode - 1] + 1)]
    outside = {key: _unfolding_vectors(x, *key) for key in ks}
    grams = {(mode, right): _smaller_gram(x, mode, right)
             for mode in (1, 2, 3) for right in (False, True)}
    with _shared_grams(x) as view:
        for key in ks:
            assert np.array_equal(_unfolding_vectors(view, *key), outside[key])
        for (mode, right), gram in grams.items():
            assert np.array_equal(_smaller_gram(view, mode, right), gram)
    for (mode, k), vecs in outside.items():
        assert vecs.flags.writeable
        # orthonormal left singular vectors of matricize's unfolding
        m = matricize(x, mode)
        assert np.allclose(vecs.T @ vecs, np.eye(k), atol=1e-12)
        if k <= min(m.shape):
            sv = np.linalg.svd(m, compute_uv=False)[:k]
            assert np.allclose(np.linalg.norm(m.T @ vecs, axis=0), sv,
                               rtol=1e-10)


def instance(seed=3, shape=(9, 7, 6)):
    """Two components with a sparse first mode, plus unit noise."""
    rng = np.random.default_rng(seed)
    u = np.zeros((shape[0], 2))
    u[:4, 0], u[3:7, 1] = rng.standard_normal(4), rng.standard_normal(4)
    u /= np.linalg.norm(u, axis=0)
    v, w = (rng.standard_normal((n, 2)) for n in shape[1:])
    v, w = v / np.linalg.norm(v, axis=0), w / np.linalg.norm(w, axis=0)
    d = np.array([30.0, 15.0])
    x = np.einsum("ik,jk,lk,k->ijl", u, v, w, d) + rng.standard_normal(shape)
    return x, SimpleNamespace(U=u, V=v, W=w, d=d)


def test_a_block_takes_the_norm_of_x_once(monkeypatch):
    """Every ROC method's sweep in one block: the block's check takes
    ``||x||``, and no fit takes it again."""
    x, truth = instance()
    sizes = []
    real = decompose.frob_norm

    def counting(a):
        sizes.append(np.size(a))
        return real(a)

    monkeypatch.setattr(decompose, "frob_norm", counting)
    cfg = decompose.SolverConfig(max_iter=30)
    with _shared_grams(x) as view:
        for method in ROC_METHODS:
            assert roc_sweep(view, truth, method, [0.0, 0.5, 2.0], cfg)
    assert sizes.count(x.size) == 1


@pytest.mark.parametrize("layout", LAYOUTS[1:])
@pytest.mark.parametrize("name", list(METHODS))
def test_every_method_fits_each_layout_to_the_bits_of_the_c_copy(name,
                                                                  layout):
    """A block opens on a C copy and the code outside one reads the same
    copy, so the layout of ``x`` moves no bit of any fit."""
    values, _ = instance()
    entry = METHODS[name]
    pen = (PenaltySpec.lasso(u=0.3) if entry.penalty == "fixed"
           else PenaltySpec.lasso(u="bic") if entry.penalty else None)
    want, got = ([model.U, model.V, model.W,
                  model.core if entry.tucker else model.d]
                 for model in (entry.fit(x, 2, SolverConfig(max_iter=50), pen)
                               for x in (values, laid_out(values, layout))))
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("layout", ["F", "transposed"])
def test_the_penalized_pca_fits_each_layout_to_the_bits_of_the_c_copy(
        layout):
    m = np.random.default_rng(11).standard_normal((30, 40))
    other = (np.asfortranarray(m) if layout == "F"
             else np.ascontiguousarray(m.T).T)
    pen = ModePenalty("lasso", None)
    want, got = (sparse_pca(a, 3, pen, SolverConfig(max_iter=50))
                 for a in (m, other))
    for a, b in zip(want[:3], got[:3]):
        assert np.array_equal(a, b)
    for a, b in zip(want[3], got[3]):
        assert np.array_equal(a.objective_trace, b.objective_trace)
