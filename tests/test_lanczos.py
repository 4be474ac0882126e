"""The top eigenpairs of a Gram matrix, by Lanczos or by one ``eigh``.

``decompose._lanczos`` runs Lanczos with full reorthogonalization from a
fixed-seed normal start, one run per pair on the Gram deflated by the
pairs found before; ``decompose._top_pairs`` takes its pairs for k = 1
and 2 above order ``_LANCZOS_STEPS``, falls back to the dense ``eigh`` where
they do not converge, and refuses pairs that have lost their accuracy
(the SVD fallback of ``leading_singular_vectors`` then runs).  The
oracle is ``numpy.linalg.eigh``.  A block on a tensor forms each of its
Gram matrices once.
"""

from collections import Counter

import numpy as np
import pytest

import hopca.decompose as decompose
from hopca.decompose import (_LANCZOS_STEPS, SolverConfig, _lanczos,
                             _shared_grams, _top_pairs, _unfolding_vectors,
                             hosvd, leading_singular_vectors)
from hopca.simulate import TABLE_METHODS, SimScenarioSpec, fit_method, simulate

TOL = 1e-12


def spiked_gram(seed, order, spikes):
    """``Q diag(lam) Q^T`` for a random orthonormal Q: the ``spikes`` on
    top of a bulk of eigenvalues spread over [0.1, 1]."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((order, order)))[0]
    lam = np.concatenate([rng.uniform(0.1, 1.0, order - len(spikes)),
                          spikes])
    return (q * lam) @ q.T


def assert_pairs(pairs, gram, k):
    """``pairs`` are ``gram``'s top ``k`` eigenpairs, largest first:
    values within TOL of the top one, vectors within TOL up to sign."""
    lam, vecs = np.linalg.eigh(gram)
    values, vectors = pairs
    assert np.all(np.abs(values - lam[::-1][:k]) <= TOL * lam[-1])
    for got, want in zip(vectors.T, vecs[:, ::-1].T):
        assert min(np.linalg.norm(got - want),
                   np.linalg.norm(got + want)) <= TOL


def count_eigh(monkeypatch):
    sizes = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_the_ritz_pairs_of_a_spiked_gram_are_eighs(seed, k, monkeypatch):
    order = 30 + 40 * seed
    gram = spiked_gram(seed, order, [3.0 + seed, 2.0 + seed / 2])
    pairs = _lanczos(gram.__matmul__, order, k)
    assert pairs is not None
    assert_pairs(pairs, gram, k)
    # _top_pairs takes them without a dense eigh
    sizes = count_eigh(monkeypatch)
    vectors, values = _top_pairs(gram, k)
    assert max(sizes, default=0) <= _LANCZOS_STEPS
    assert_pairs((values, vectors), gram, k)


def test_a_top_vector_orthogonal_to_ones_and_to_the_diagonal():
    """``G = I + 3 v v^T + 1.5 z z^T`` with ``v`` and ``z`` of entries
    ``+-1/sqrt(n)``: ``G 1 = 1`` and ``diag(G)`` is a multiple of ``1``, so
    a start from either lies in the bulk eigenspace and would return the
    eigenvalue 1 with a zero residual.  The fixed-seed start finds the
    top pairs."""
    n = 40
    v = np.tile([1.0, -1.0], n // 2) / np.sqrt(n)
    z = np.tile([1.0, 1.0, -1.0, -1.0], n // 4) / np.sqrt(n)
    gram = np.eye(n) + 3.0 * np.outer(v, v) + 1.5 * np.outer(z, z)
    ones = np.ones(n)
    assert np.allclose(gram @ ones, ones)
    assert np.allclose(np.diag(gram), np.diag(gram)[0] * ones)
    for k in (1, 2):
        pairs = _lanczos(gram.__matmul__, n, k)
        assert pairs is not None
        assert np.allclose(pairs[0], [4.0, 2.5][:k], rtol=TOL)
        assert_pairs(pairs, gram, k)


def tied_gram(seed, order, tail):
    """``m m^T`` for an ``order x (order + 10)`` ``m`` with singular values
    (5, 5, 3) over a ``tail`` of ``order - 3`` more, and the left vectors
    of the 5s."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((order, order)))[0]
    v = np.linalg.qr(rng.standard_normal((order + 10, order)))[0]
    m = (u * np.concatenate([[5.0, 5.0, 3.0], tail])) @ v.T
    return m @ m.T, u[:, :2]


def assert_span(vectors, space):
    """``vectors`` are orthonormal and span ``space`` within TOL."""
    assert np.allclose(vectors.T @ vectors, np.eye(vectors.shape[1]),
                       atol=TOL)
    assert np.linalg.norm(vectors @ vectors.T - space @ space.T) <= TOL


TAILS = {"rank-3": lambda n: np.zeros(n),
         "flat": lambda n: np.ones(n),
         "spread": lambda n: np.linspace(0.3, 1.0, n)}


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("seed", range(4))
def test_a_tied_top_value_gives_both_of_its_directions(seed, tail,
                                                       monkeypatch):
    """One Lanczos run holds one direction of the top eigenspace of a
    Gram with eigenvalues (25, 25, 9, tail).  Where its Krylov space
    closes early (no tail, or a flat one: three distinct eigenvalues) its
    two top Ritz values can pass the residual test as (25, 9), as they do
    for about half of such Grams.  A run per pair returns (25, 25) and
    that eigenspace, as ``eigh`` does, and takes no dense ``eigh``."""
    order = 30 + 20 * seed
    gram, space = tied_gram(seed, order, TAILS[tail](order - 3))
    sizes = count_eigh(monkeypatch)
    vectors, values = _top_pairs(gram, 2)
    assert max(sizes) <= _LANCZOS_STEPS
    monkeypatch.undo()
    assert np.allclose(values, [25.0, 25.0], rtol=TOL)
    assert_span(vectors, space)
    assert_span(np.linalg.eigh(gram)[1][:, -2:], space)


def test_tied_leading_singular_values_give_their_subspace():
    """A rank-3 30 x 40 ``m`` with singular values (5, 5, 3): its first
    two left vectors span the sigma = 5 space, as the SVD's do."""
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((40, 3)))[0]
    m = (u * [5.0, 5.0, 3.0]) @ v.T
    vecs, values = leading_singular_vectors(m, 2, return_values=True)
    assert np.allclose(values, [5.0, 5.0], rtol=TOL)
    assert_span(vecs, u[:, :2])
    assert_span(np.linalg.svd(m)[0][:, :2], u[:, :2])


@pytest.mark.parametrize("seed", range(4))
def test_hosvd_of_tied_orthogonal_terms_spans_their_factors(seed):
    """A noise-free 30^3 tensor of three orthogonal rank-one terms with
    weights (5, 5, 3): every unfolding has singular values (5, 5, 3),
    and ``hosvd`` at ranks (2, 2, 2) returns the factors of the two tied
    terms, up to a rotation."""
    rng = np.random.default_rng(seed)
    factors = [np.linalg.qr(rng.standard_normal((30, 3)))[0]
               for _ in range(3)]
    x = np.einsum("ik,jk,lk,k->ijl", *factors, np.array([5.0, 5.0, 3.0]))
    model = hosvd(x, (2, 2, 2))
    for got, want in zip((model.U, model.V, model.W), factors):
        assert_span(got, want[:, :2])


def test_k_above_two_takes_the_dense_eigh(monkeypatch):
    """Lanczos serves k = 1 and 2, the starts every method takes; k = 3
    on a Gram above order ``_LANCZOS_STEPS`` takes one ``eigh``."""
    order = 60
    gram = spiked_gram(1, order, [6.0, 5.0, 4.0])
    sizes = count_eigh(monkeypatch)
    vectors, values = _top_pairs(gram, 3)
    assert sizes == [order]
    monkeypatch.undo()
    assert_pairs((values, vectors), gram, 3)


def test_a_clustered_gram_falls_back_to_one_eigh(monkeypatch):
    """A top pair 1e-6 apart on a bulk within 25% of it does not converge
    in ``_LANCZOS_STEPS`` steps; ``_top_pairs`` then takes one ``eigh``."""
    order = 60
    gram = spiked_gram(3, order, [])
    lam, q = np.linalg.eigh(gram)
    lam = np.concatenate([np.linspace(3.0, 3.99, order - 2),
                          [4.0 * (1 - 1e-6), 4.0]])
    gram = (q * lam) @ q.T
    assert _lanczos(gram.__matmul__, order, 1) is None
    sizes = count_eigh(monkeypatch)
    vectors, values = _top_pairs(gram, 1)
    assert sizes.count(order) == 1
    monkeypatch.undo()
    assert_pairs((values, vectors), gram, 1)


def test_a_rank_deficient_gram_takes_the_svd(monkeypatch):
    """A rank-one ``m`` has no second pair within ``_GRAM_RCOND`` of its
    top one: the Gram route refuses k = 2 and the SVD gives the start."""
    rng = np.random.default_rng(9)
    m = np.outer(rng.standard_normal(40), rng.standard_normal(70))
    assert _top_pairs(m @ m.T, 2) is None
    svd = []
    real = np.linalg.svd

    def recording(a, *args, **kwargs):
        svd.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    vecs, values = leading_singular_vectors(m, 2, return_values=True)
    assert svd == [m.shape]
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=TOL)
    assert values[1] <= 1e-12 * values[0]
    assert abs(abs(vecs[:, 0] @ m[:, 0]) - np.linalg.norm(m[:, 0])) <= (
        TOL * np.linalg.norm(m[:, 0]))


@pytest.mark.parametrize("k", [1, 2])
def test_the_zero_gram_has_no_pairs(k):
    """No Ritz value, and no warning: the run stops at ``beta = 0``."""
    zero = np.zeros((30, 30))
    assert _top_pairs(zero, k) is None
    u = leading_singular_vectors(np.zeros((30, 50)), k)
    assert np.allclose(u.T @ u, np.eye(k))


def test_k_equal_to_the_order_takes_the_dense_eigh(monkeypatch):
    order = 30
    gram = spiked_gram(5, order, [5.0, 4.0])
    sizes = count_eigh(monkeypatch)
    vectors, values = _top_pairs(gram, order)
    assert sizes == [order]  # no Lanczos run, whose tridiagonal eighs
    monkeypatch.undo()       # would be counted too
    assert_pairs((values, vectors), gram, order)


def test_a_block_forms_each_gram_of_its_tensor_once(monkeypatch):
    """Every table method inside one block on the scenario-2 tensor: the
    memo forms each (mode, side) Gram of the block's tensor once."""
    spec = SimScenarioSpec(2, seed=2024)
    x = simulate(spec).x
    formed = []
    real = decompose._unfolding_gram

    def counting(y, mode, rows):
        formed.append((y, mode, rows))
        return real(y, mode, rows)

    monkeypatch.setattr(decompose, "_unfolding_gram", counting)
    with _shared_grams(x) as view:
        for name in TABLE_METHODS:
            fit_method(name, view, spec, SolverConfig(max_iter=100))
    of_x = Counter((mode, rows) for y, mode, rows in formed if y is view)
    assert of_x and set(of_x.values()) == {1}
    assert set(of_x) == {(1, False), (2, True), (3, True)}


def test_a_block_keys_its_starts_by_k():
    """Inside a block a k = 1 start taken after a k = 2 one is its own
    entry, bit-equal to the k = 1 start outside the block."""
    rng = np.random.default_rng(0)
    factors = [np.linalg.qr(rng.standard_normal((n, 2)))[0]
               for n in (40, 30, 30)]
    x = (np.einsum("ik,jk,lk,k->ijl", *factors, np.array([60.0, 40.0]))
         + rng.standard_normal((40, 30, 30)))
    outside = {k: _unfolding_vectors(x, 1, k, return_values=True)
               for k in (1, 2)}
    with _shared_grams(x) as view:
        inside = {k: _unfolding_vectors(view, 1, k, return_values=True)
                  for k in (2, 1)}
    for k in (1, 2):
        for got, want in zip(inside[k], outside[k]):
            assert np.array_equal(got, want)
    # one Lanczos run per pair: the k = 2 start opens with the k = 1 one
    assert np.array_equal(outside[2][0][:, :1], outside[1][0])
