"""The Tucker loop's two savings: a block open on a tensor keeps each
HOSVD start and hands it to every later fit whose ranks, mode updates and
config are equal values, and a HOOI sweep reads the tensor twice (``x W``
for mode 1, ``U^T x`` for modes 2 and 3 and the core), with the same
projections the ``mode_mult`` form gives."""

import tracemalloc

import numpy as np
import pytest

from hopca import decompose
from hopca.decompose import (_PLAIN, SolverConfig, _mode_mult3,
                             _shared_grams, _tucker_pass, hooi, hosvd)
from hopca.simulate import SimScenarioSpec, simulate
from hopca.sparse import PenaltySpec, sparse_hooi, sparse_hosvd
from hopca.tensor3 import mode_mult

CFG = SolverConfig(max_iter=30)
BIC = PenaltySpec.lasso(u="bic")


@pytest.fixture(scope="module")
def x():
    """A scenario-2 tensor, cut to 200 x 20 x 20: a tall mode-1 unfolding
    with a sparse u."""
    return simulate(SimScenarioSpec(2, seed=5)).x[:200].copy()


def assert_same_tucker(a, b):
    for attr in ("U", "V", "W", "core"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    for key in ("lambdas", "nnz", "iterations", "converged"):
        assert a.diagnostics[key] == b.diagnostics[key], key
    traces = (a.diagnostics["objective_traces"],
              b.diagnostics["objective_traces"])
    assert len(traces[0]) == len(traces[1])
    assert all(np.array_equal(s, t) for s, t in zip(*traces))


def count_fits_of(monkeypatch, tensor):
    """Count the penalized PCAs ``_fit_unfolding`` runs on ``tensor``
    itself (the view a block is open on)."""
    calls = []
    fit = decompose._fit_unfolding

    def counted(y, *args, **kwargs):
        if y is tensor:
            calls.append(args[0])
        return fit(y, *args, **kwargs)

    monkeypatch.setattr(decompose, "_fit_unfolding", counted)
    return calls


def test_sparse_hooi_after_sparse_hosvd_takes_its_start(x, monkeypatch):
    alone = sparse_hooi(x.copy(), (2, 2, 2), BIC, CFG)
    with _shared_grams(x) as view:
        calls = count_fits_of(monkeypatch, view)
        first = sparse_hosvd(view, (2, 2, 2), BIC, CFG)
        after = sparse_hooi(view, (2, 2, 2), BIC, CFG)
    # one penalized PCA of x, mode 1's, serves both fits
    assert calls == [1]
    assert_same_tucker(after, alone)
    assert_same_tucker(first, sparse_hosvd(x.copy(), (2, 2, 2), BIC, CFG))


def test_hooi_after_hosvd_takes_its_start(x, monkeypatch):
    # with no penalized mode the start reads no config
    alone = hooi(x.copy(), (2, 2, 2), CFG)
    with _shared_grams(x) as view:
        passes = []
        run = decompose._tucker_pass
        monkeypatch.setattr(decompose, "_tucker_pass", lambda *args: (
            passes.append(len(args)), run(*args))[1])
        hosvd(view, (2, 2, 2))
        after = hooi(view, (2, 2, 2), CFG)
    # one start (four arguments) for both fits; the rest are sweeps
    assert passes.count(4) == 1 and len(passes) > 1
    assert_same_tucker(after, alone)


def test_an_unpenalized_sparse_hosvd_after_hosvd_runs_no_pass(x,
                                                               monkeypatch):
    # no penalty gives updates equal to the plain ones, so the same start
    alone = sparse_hosvd(x.copy(), (2, 2, 2), PenaltySpec.none())
    with _shared_grams(x) as view:
        passes = []
        run = decompose._tucker_pass
        first = hosvd(view, (2, 2, 2))
        monkeypatch.setattr(decompose, "_tucker_pass", lambda *args: (
            passes.append(len(args)), run(*args))[1])
        after = sparse_hosvd(view, (2, 2, 2), PenaltySpec.none())
    assert passes == []
    assert_same_tucker(after, alone)
    assert_same_tucker(after, first)


@pytest.mark.parametrize("ranks, pen, cfg", [
    ((2, 2, 2), PenaltySpec.lasso(u=0.5), CFG),  # another level
    ((2, 2, 2), PenaltySpec.lasso(u=[0.1, 0.5, 2.0]), CFG),  # a grid
    ((2, 2, 2), PenaltySpec.lasso(u="bic", kind="nonneg_lasso"), CFG),
    ((1, 2, 2), BIC, CFG),  # other ranks
    ((2, 2, 2), BIC, SolverConfig(max_iter=30, tol=1e-9)),
    ((2, 2, 2), BIC, SolverConfig(max_iter=2)),
    ((2, 2, 2), BIC, SolverConfig(max_iter=30, seed=7)),
])
def test_a_start_that_differs_in_one_value_is_its_own(x, monkeypatch, ranks,
                                                      pen, cfg):
    with _shared_grams(x) as view:
        calls = count_fits_of(monkeypatch, view)
        sparse_hosvd(view, (2, 2, 2), BIC, CFG)
        inside = sparse_hooi(view, ranks, pen, cfg)
    assert calls == [1, 1]
    monkeypatch.undo()
    assert_same_tucker(inside, sparse_hooi(x.copy(), ranks, pen, cfg))


def test_equal_penalties_from_new_specs_share_one_start(x, monkeypatch):
    with _shared_grams(x) as view:
        calls = count_fits_of(monkeypatch, view)
        for grid in ([0.1, 0.5, 2.0], np.array([0.1, 0.5, 2.0])):
            sparse_hosvd(view, (2, 2, 2), PenaltySpec.lasso(u=grid),
                         SolverConfig(max_iter=30))
    assert calls == [1]


def test_a_kept_start_is_not_the_models(x):
    with _shared_grams(x) as view:
        first = hosvd(view, (2, 2, 2))
        assert first.U.flags.writeable and first.core.flags.writeable
        first.U[:] = 0.0
        first.core[:] = 0.0
        first.diagnostics["lambdas"]["u"][0] = 9.0
        again = hosvd(view, (2, 2, 2))
    fresh = hosvd(x.copy(), (2, 2, 2))
    assert_same_tucker(again, fresh)


def mode_mult_projections(x, factors, new):
    """Each mode's projected tensor of a sweep from ``factors`` whose new
    factors are ``new``, in the ``mode_mult`` form, and the core."""
    (u, v, w), (u1, v1, w1) = factors, new
    return [mode_mult(mode_mult(x, v.T, 2), w.T, 3),
            mode_mult(mode_mult(x, u1.T, 1), w.T, 3),
            mode_mult(mode_mult(x, u1.T, 1), v1.T, 2),
            _mode_mult3(x, u1.T, v1.T, w1.T)]


def orthonormal(rng, n, r):
    return np.linalg.qr(rng.standard_normal((n, r)))[0]


@pytest.mark.parametrize("shape, ranks, layout", [
    ((9, 7, 6), (2, 3, 2), "C"),
    ((9, 7, 1), (2, 2, 1), "C"),  # a size-one mode
    ((1, 5, 4), (1, 2, 2), "C"),
    ((5, 4, 3), (5, 4, 3), "C"),  # ranks equal to the dims
    ((9, 7, 6), (2, 3, 2), "F"),  # not C-contiguous
    ((9, 7, 6), (3, 2, 2), "transposed"),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_each_sweep_projection_is_the_mode_mult_form(monkeypatch, shape,
                                                     ranks, layout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "transposed":
        x = rng.standard_normal(shape[::-1]).T
    factors = [orthonormal(rng, n, r) for n, r in zip(shape, ranks)]
    seen = []
    vectors = decompose._unfolding_vectors

    def record(y, mode, k, *args):
        seen.append(np.array(y))
        return vectors(y, mode, k, *args)

    monkeypatch.setattr(decompose, "_unfolding_vectors", record)
    new, _, _, core = _tucker_pass(x, ranks, _PLAIN, CFG, factors)
    for got, want in zip([*seen, core],
                         mode_mult_projections(x, factors, new)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())


def test_a_sweep_allocates_nothing_the_size_of_x():
    x = np.random.default_rng(3).standard_normal((60, 60, 60))
    start = _tucker_pass(x, (2, 2, 2), _PLAIN, CFG)[0]
    tracemalloc.start()
    try:
        _tucker_pass(x, (2, 2, 2), _PLAIN, CFG, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 10
