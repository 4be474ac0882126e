"""Inside a ``_shared_grams`` block the Gram matrices of the
unfoldings of one tensor, and the SVD starts taken from them, are
computed once and shared: every fit equals a fresh fit bit for bit, the
caller's tensor is only read, and the memo serves nothing but that one
array object inside the block, never a residual."""

import threading
from types import SimpleNamespace

import numpy as np

from hopca import decompose, sparse
from hopca.decompose import SolverConfig, _shared_grams, init_rank_one
from hopca.evaluate import roc_sweep
from hopca.simulate import METHODS
from hopca.sparse import PenaltySpec
from hopca.tensor3 import frob_norm

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
    model, the inputs of every singular-vector call and the (mode, side)
    of every unfolding Gram formed."""
    fits, svd_inputs, grams = [], [], []

    def capture(*args, **kwargs):
        model = SPARSE_CP_TPA(*args, **kwargs)
        fits.append((args, model))
        return model

    def count_svd(m, *args, **kwargs):
        svd_inputs.append(np.array(m))
        return svd(m, *args, **kwargs)

    def count_gram(y, mode, rows):
        grams.append((mode, rows))
        return gram(y, mode, rows)

    svd, gram = decompose.leading_singular_vectors, decompose._unfolding_gram
    monkeypatch.setattr(sparse, "sparse_cp_tpa", capture)
    monkeypatch.setattr(decompose, "leading_singular_vectors", count_svd)
    monkeypatch.setattr(decompose, "_unfolding_gram", count_gram)
    points = roc_sweep(x, truth, "sparse-cp-tpa", GRID, CFG, modes=("u",))
    assert points
    return fits, svd_inputs, grams


def test_each_refit_equals_a_fresh_fit(monkeypatch):
    x, truth = instance()
    fits, _, _ = sweep_capturing(monkeypatch, x, truth)
    assert len(fits) == len(GRID)
    for (_, k, pen, cfg), model in fits:
        fresh = SPARSE_CP_TPA(x.copy(), k, pen, cfg)
        for a, b in zip((model.U, model.V, model.W, model.d),
                        (fresh.U, fresh.V, fresh.W, fresh.d)):
            assert np.array_equal(a, b)


def test_the_start_of_x_is_computed_once(monkeypatch):
    x, truth = instance()
    fits, svd_inputs, grams = sweep_capturing(monkeypatch, x, truth)
    # every fit reads the same read-only view of x
    views = {id(args[0]) for args, _ in fits}
    assert len(views) == 1
    assert not fits[0][0][0].flags.writeable
    # one Gram per mode for the (v, w) start of x and none for a second
    # component, which starts from an update of the memo's Grams of x;
    # the wide mode-2 start reads its Gram only, so one singular-vector
    # call (mode 3's, on the view of x) is left
    second = sum(len(model.diagnostics["iterations"]) == 2
                 for _, model in fits)
    assert second >= 1
    assert grams == [(2, True), (3, True)]
    assert [a.shape for a in svd_inputs] == [(x.shape[2], x.size
                                             // x.shape[2])]


def test_the_callers_tensor_stays_writable_and_unchanged():
    x, truth = instance()
    before = x.tobytes()
    roc_sweep(x, truth, "sparse-cp-tpa", GRID, CFG, modes=("u",))
    assert x.flags.writeable
    assert x.tobytes() == before


def test_the_start_is_shared_inside_the_block_only():
    x, _ = instance()
    with _shared_grams(x) as view:
        first = init_rank_one(view, "hosvd", None)
        again = init_rank_one(view, "hosvd", None)
        # the same memoized vectors, not a recomputation
        assert again[0].base is first[0].base
        assert again[1].base is first[1].base
        assert not first[0].flags.writeable and not first[1].flags.writeable
    after = init_rank_one(x, "hosvd", None)
    assert after[0].base is not first[0].base and after[0].flags.writeable
    assert np.array_equal(after[0], first[0])
    assert np.array_equal(after[1], first[1])


def test_no_other_tensor_gets_the_shared_start():
    x, _ = instance()
    other, _ = instance(seed=4)  # same shape, different values
    with _shared_grams(x) as view:
        shared = init_rank_one(view, "hosvd", None)
        for equal in (x, x.copy()):  # equal values, other array objects
            start = init_rank_one(equal, "hosvd", None)
            assert start[0].base is not shared[0].base
            assert start[0].flags.writeable
        own = init_rank_one(other, "hosvd", None)
    fresh = init_rank_one(other, "hosvd", None)
    assert np.array_equal(own[0], fresh[0])
    assert np.array_equal(own[1], fresh[1])
    assert not np.array_equal(own[0], shared[0])


def test_random_starts_draw_as_outside_the_block():
    x, _ = instance()
    with _shared_grams(x) as view:
        init_rank_one(view, "hosvd", None)
        inside = init_rank_one(view, "random", np.random.default_rng(8))
    outside = init_rank_one(x, "random", np.random.default_rng(8))
    assert all(np.array_equal(a, b) for a, b in zip(inside, outside))


def test_another_thread_does_not_see_the_block():
    x, _ = instance()
    seen = []
    with _shared_grams(x) as view:
        shared = init_rank_one(view, "hosvd", None)
        thread = threading.Thread(
            target=lambda: seen.append(init_rank_one(view, "hosvd", None)))
        thread.start()
        thread.join()
    assert seen[0][0].base is not shared[0].base
    assert np.array_equal(seen[0][0], shared[0])


def test_after_a_two_component_sweep_the_memo_holds_x_only():
    x, truth = instance()
    with _shared_grams(x) as view:
        roc_sweep(view, truth, "sparse-cp-tpa", GRID, CFG, modes=("u",))
        key, kept = decompose._GRAMS.get()
    grams = {k[1:]: v for k, v in kept.items() if k[0] == "gram"}
    vectors = {k: v for k, v in kept.items() if k != "norm" and k[0] != "gram"}
    assert key is view
    assert kept["norm"] == frob_norm(x)  # the block's check, kept
    # the (v, w) start of x: one Gram and one vector per mode; the
    # second components start from residuals, which the memo never sees
    assert set(grams) == {(2, True), (3, True)}
    assert set(vectors) == {(2, 1), (3, 1)}
    n, p, q = x.shape
    # the unfoldings' row Grams themselves, formed without matricize: mode
    # 3 on the view of x, mode 2 from x with its mode 2 first (one slab of
    # x here), and the start with its singular value from their top pair
    for mode, m in ((2, x.transpose(1, 0, 2).reshape(p, n * q)),
                    (3, x.reshape(n * p, q).T)):
        assert np.array_equal(grams[mode, True], m @ m.T)
        for got, want in zip(vectors[mode, 1],
                             decompose.leading_singular_vectors(m, 1, True)):
            assert np.array_equal(got, want)


def _penalty(entry):
    if entry.penalty == "spec":
        return PenaltySpec.lasso(u="bic")
    if entry.penalty == "fixed":
        return PenaltySpec.lasso(u=0.3)
    return None


def test_every_method_fit_inside_a_block_equals_the_fit_outside():
    # (9, 3, 3) has a square mode-1 unfolding, whose two Grams differ
    for shape in ((9, 7, 6), (9, 3, 3)):
        x, _ = instance(shape=shape)
        with _shared_grams(x) as view:
            inside = {name: entry.fit(view, 2, CFG, _penalty(entry))
                      for name, entry in METHODS.items()}
        for name, entry in METHODS.items():
            outside = entry.fit(x, 2, CFG, _penalty(entry))
            for attr in ("U", "V", "W", "core" if entry.tucker else "d"):
                assert np.array_equal(getattr(inside[name], attr),
                                      getattr(outside, attr)), (shape, name)
            assert inside[name].U.flags.writeable
