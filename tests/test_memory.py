"""Traced memory peaks of the analyst path (simulate -> .t3 -> varex):
each step holds one tensor at a time, not copies of it."""

import tracemalloc

import numpy as np
import pytest

from hopca import fileio
from hopca.decompose import CpModel
from hopca.evaluate import variance_explained
from hopca.simulate import SimScenarioSpec, simulate


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
