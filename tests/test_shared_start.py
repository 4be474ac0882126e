"""A ROC sweep computes the SVD start of its tensor once and shares it
across its refits: every refit equals a fresh fit bit for bit, the
caller's tensor is only read, and the start is shared with nothing but
that one array object inside the sweep."""

import threading
from types import SimpleNamespace

import numpy as np

from hopca import decompose, sparse
from hopca.decompose import SolverConfig, _one_start, init_rank_one
from hopca.evaluate import roc_sweep

CFG = SolverConfig(max_iter=60)
SPARSE_CP_TPA = sparse.sparse_cp_tpa  # the unwrapped solver


def unit(vec):
    return vec / np.linalg.norm(vec)


def instance(seed=3, shape=(9, 7, 6)):
    """Two components with a sparse first mode, plus unit noise."""
    rng = np.random.default_rng(seed)
    u = np.zeros((shape[0], 2))
    u[:4, 0], u[3:7, 1] = rng.standard_normal(4), rng.standard_normal(4)
    u = u / np.linalg.norm(u, axis=0)
    v = np.column_stack([unit(rng.standard_normal(shape[1])) for _ in "ab"])
    w = np.column_stack([unit(rng.standard_normal(shape[2])) for _ in "ab"])
    d = np.array([30.0, 15.0])
    x = np.einsum("ik,jk,lk,k->ijl", u, v, w, d) + rng.standard_normal(shape)
    return x, SimpleNamespace(U=u, V=v, W=w, d=d)


GRID = [0.0, 0.3, 1.0, 2.0, 4.0, 100.0]


def sweep_capturing(monkeypatch, x, truth):
    """Run the sparse-cp-tpa sweep, recording each refit's arguments and
    model, and the inputs of every singular-vector call."""
    fits, svd_inputs = [], []

    def capture(*args, **kwargs):
        model = SPARSE_CP_TPA(*args, **kwargs)
        fits.append((args, model))
        return model

    def count_svd(m, *args, **kwargs):
        svd_inputs.append(np.array(m))
        return svd(m, *args, **kwargs)

    svd = decompose.leading_singular_vectors
    monkeypatch.setattr(sparse, "sparse_cp_tpa", capture)
    monkeypatch.setattr(decompose, "leading_singular_vectors", count_svd)
    points = roc_sweep(x, truth, "sparse-cp-tpa", GRID, CFG, modes=("u",))
    assert points
    return fits, svd_inputs


def test_each_refit_equals_a_fresh_fit(monkeypatch):
    x, truth = instance()
    fits, _ = sweep_capturing(monkeypatch, x, truth)
    assert len(fits) == len(GRID)
    for (_, k, pen, cfg), model in fits:
        fresh = SPARSE_CP_TPA(x.copy(), k, pen, cfg)
        for a, b in zip((model.U, model.V, model.W, model.d),
                        (fresh.U, fresh.V, fresh.W, fresh.d)):
            assert np.array_equal(a, b)


def test_the_start_of_x_is_computed_once(monkeypatch):
    x, truth = instance()
    fits, svd_inputs = sweep_capturing(monkeypatch, x, truth)
    # every fit reads the same read-only view of x
    views = {id(args[0]) for args, _ in fits}
    assert len(views) == 1
    assert not fits[0][0][0].flags.writeable
    # two singular-vector calls for the start of x, two per second
    # component (each on its own residual)
    second = sum(len(model.diagnostics["iterations_per_component"]) == 2
                 for _, model in fits)
    assert second >= 1
    assert len(svd_inputs) == 2 + 2 * second
    for i, a in enumerate(svd_inputs):
        assert not any(a.shape == b.shape and np.array_equal(a, b)
                       for b in svd_inputs[:i])


def test_the_callers_tensor_stays_writable_and_unchanged():
    x, truth = instance()
    before = x.tobytes()
    roc_sweep(x, truth, "sparse-cp-tpa", GRID, CFG, modes=("u",))
    assert x.flags.writeable
    assert x.tobytes() == before


def test_the_start_is_shared_inside_the_block_only():
    x, _ = instance()
    with _one_start(x):
        first = init_rank_one(x, "hosvd", None)
        again = init_rank_one(x, "hosvd", None)
        assert again[0] is first[0] and again[1] is first[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable
    after = init_rank_one(x, "hosvd", None)
    assert after[0] is not first[0] and after[0].flags.writeable
    assert np.array_equal(after[0], first[0])
    assert np.array_equal(after[1], first[1])


def test_no_other_tensor_gets_the_shared_start():
    x, _ = instance()
    other, _ = instance(seed=4)  # same shape, different values
    with _one_start(x):
        shared = init_rank_one(x, "hosvd", None)
        equal_copy = init_rank_one(x.copy(), "hosvd", None)
        assert equal_copy[0] is not shared[0]
        assert equal_copy[0].flags.writeable
        own = init_rank_one(other, "hosvd", None)
    fresh = init_rank_one(other, "hosvd", None)
    assert np.array_equal(own[0], fresh[0])
    assert np.array_equal(own[1], fresh[1])
    assert not np.array_equal(own[0], shared[0])


def test_random_starts_draw_as_outside_the_block():
    x, _ = instance()
    with _one_start(x):
        init_rank_one(x, "hosvd", None)
        inside = init_rank_one(x, "random", np.random.default_rng(8))
    outside = init_rank_one(x, "random", np.random.default_rng(8))
    assert all(np.array_equal(a, b) for a, b in zip(inside, outside))


def test_another_thread_does_not_see_the_block():
    x, _ = instance()
    seen = []
    with _one_start(x):
        shared = init_rank_one(x, "hosvd", None)
        thread = threading.Thread(
            target=lambda: seen.append(init_rank_one(x, "hosvd", None)))
        thread.start()
        thread.join()
    assert seen[0][0] is not shared[0]
    assert np.array_equal(seen[0][0], shared[0])
