"""Traced memory peaks of the analyst path (simulate -> .t3 -> varex),
of the solvers' SVD starts and of the table's signal MSE: each step holds
one tensor at a time, and no start or penalized PCA copies an unfolding
of it."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hopca import fileio
from hopca.decompose import (CpModel, TuckerModel, _shared_grams,
                             _smaller_gram, _unfolding_vectors)
from hopca.evaluate import signal_mse, variance_explained
from hopca.simulate import SimScenarioSpec, simulate
from hopca.sparse import PenaltySpec, sparse_hosvd


def traced(func, *args):
    """``func(*args)`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(2).standard_normal((60, 60, 60))


def test_variance_explained_peaks_below_a_quarter_tensor(x):
    # orthonormal bases of the k columns, not n x n projections of x
    rng = np.random.default_rng(3)
    model = CpModel(*(rng.standard_normal((60, 2)) for _ in range(3)),
                    np.ones(2))
    report, peak = traced(variance_explained, x, model, 2)
    assert report.cumulative.shape == (2,)
    assert peak < x.nbytes / 4


def test_read_tensor3_peaks_at_one_tensor(x, tmp_path):
    # the result is filled block by block: no block list, no flat copy
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    back, peak = traced(fileio.read_tensor3, path)
    assert back.tobytes() == x.tobytes()
    assert peak < 1.25 * x.nbytes


def test_write_tensor3_peaks_below_a_quarter_tensor(x, tmp_path):
    # slabs of planes are put in file order, not the whole tensor
    _, peak = traced(fileio.write_tensor3, tmp_path / "x.t3", x)
    assert peak < x.nbytes / 4


def test_simulate_peaks_at_the_signal_and_the_tensor():
    truth, peak = traced(simulate, SimScenarioSpec(1, seed=5))
    assert peak <= 2.25 * truth.x.nbytes


def test_the_memos_grams_and_starts_copy_no_unfolding(x):
    # views of x for modes 1 and 3, slabs of x for mode 2's Gram; the
    # wide mode-2 start reads that Gram only
    def memo():
        with _shared_grams(x) as view:
            for mode in (1, 2, 3):
                _smaller_gram(view, mode)
                _unfolding_vectors(view, mode, 2)

    _, peak = traced(memo)
    assert peak < x.nbytes / 2


def test_a_sparse_hosvd_penalized_in_modes_1_and_3_copies_no_unfolding(x):
    # the penalized PCAs of modes 1 and 3 run on views of x
    model, peak = traced(sparse_hosvd, x, (2, 2, 2),
                         PenaltySpec.lasso(u="bic", w="bic"))
    assert model.diagnostics["nnz"]["u"][0] < x.shape[0]
    assert peak < x.nbytes / 2


def test_signal_mse_peaks_at_the_reconstruction(x):
    # the difference is taken and squared in the reconstruction's array
    rng = np.random.default_rng(4)
    truth = SimpleNamespace(x_signal=x)
    for model in (CpModel(*(rng.standard_normal((60, 2)) for _ in range(3)),
                          np.ones(2)),
                  TuckerModel(*(rng.standard_normal((60, 2))
                                for _ in range(3)),
                              rng.standard_normal((2, 2, 2)))):
        mse, peak = traced(signal_mse, model, truth)
        diff = model.reconstruct() - x
        assert mse == pytest.approx(np.sum(diff * diff) / x.size, rel=1e-13)
        assert peak < 1.5 * x.nbytes
