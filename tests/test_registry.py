"""The method registry: every caller reaches solvers through module
attributes, so wrappers patched there (as the benchmark tracer does)
see each fit; plus the replicate pool behind the experiment drivers."""

import concurrent.futures
import importlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from hopca import fileio
from hopca.cli import main
from hopca.evaluate import roc_sweep
from hopca.simulate import (
    METHODS,
    SimScenarioSpec,
    fit_method,
    run_roc_experiment,
    run_table_experiment,
)

sim = importlib.import_module("hopca.simulate")

SOLVERS = {
    "cp-als": ("decompose", "cp_als"),
    "tpa": ("decompose", "tpa"),
    "hosvd": ("decompose", "hosvd"),
    "hooi": ("decompose", "hooi"),
    "sparse-cp-tpa": ("sparse", "sparse_cp_tpa"),
    "sparse-cp-als": ("sparse", "sparse_cp_als"),
    "sparse-hosvd": ("sparse", "sparse_hosvd"),
    "sparse-hooi": ("sparse", "sparse_hooi"),
    "gcp": ("generalized", "gcp"),
    "sparse-gcp": ("generalized", "sparse_gcp"),
    "fpca": ("generalized", "fpca"),
    "fpca-halfsmooth": ("generalized", "fpca_half_smoothing"),
}
ROC_SOLVERS = {"cp-naive": "cp-als", "tucker-naive": "hooi",
               **{name: name for name, entry in METHODS.items()
                  if entry.penalty}}


def hopca_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "hopca"
                                    or name.startswith("hopca."))]


def wrap_everywhere(monkeypatch, method):
    """Patch every hopca module attribute bound to the method's solver
    with a wrapper that counts calls, as the benchmark tracer does."""
    module, attr = SOLVERS[method]
    original = getattr(importlib.import_module(f"hopca.{module}"), attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    for mod in hopca_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, wrapper)
    return calls


def small_tensor():
    rng = np.random.default_rng(5)
    return rng.standard_normal((6, 5, 4))


def test_registry_names_every_solver():
    assert set(METHODS) == set(SOLVERS)


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_fit_method_calls_through_module_attribute(monkeypatch, method):
    calls = wrap_everywhere(monkeypatch, method)
    # a scalar grid fixes the level, which sparse-gcp requires
    fit_method(method, small_tensor(), SimScenarioSpec(scenario=1, k=1),
               lam_grid=0.1)
    assert calls


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_cli_decompose_calls_through_module_attribute(monkeypatch, tmp_path,
                                                      method):
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, small_tensor())
    calls = wrap_everywhere(monkeypatch, method)
    code = main(["decompose", "--method", method, "--rank", "1",
                 "--input", str(path), "--out", str(tmp_path / "model")])
    assert code == 0
    assert calls


@pytest.mark.parametrize("roc_method", sorted(ROC_SOLVERS))
def test_roc_sweep_calls_through_module_attribute(monkeypatch, roc_method):
    rng = np.random.default_rng(6)
    u = np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
    truth = SimpleNamespace(U=u[:, None], V=rng.standard_normal((5, 1)),
                            W=rng.standard_normal((4, 1)), d=np.ones(1))
    calls = wrap_everywhere(monkeypatch, ROC_SOLVERS[roc_method])
    points = roc_sweep(small_tensor(), truth, roc_method, [0.0, 0.5],
                       modes=("u",))
    assert calls
    assert points


def test_unknown_roc_method_rejected():
    truth = SimpleNamespace(U=np.ones((6, 1)), V=np.ones((5, 1)),
                            W=np.ones((4, 1)), d=np.ones(1))
    with pytest.raises(ValueError, match="unknown ROC method"):
        roc_sweep(small_tensor(), truth, "tpa", [0.0])


def test_no_function_is_listed_in_two_modules():
    owners = {}
    for mod in hopca_modules():
        for name in getattr(mod, "__all__", ()):
            value = getattr(mod, name)
            if callable(value) and not isinstance(value, type):
                owners.setdefault(id(value), []).append(
                    f"{mod.__name__}.{name}")
    assert [names for names in owners.values() if len(names) > 1] == []


# ---------------------------------------------------------------------------
# replicate pool


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    runs the map in this process, starting no worker."""

    created = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.created = []
    # simulate imports the pool where it starts one, so patch its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    return RecordingPool.created


SPEC = SimScenarioSpec(scenario=2, k=1)


def test_workers_capped_at_cpu_count(pool):
    result = run_table_experiment(SPEC, (), 8, jobs=10**6)
    assert pool == [4]
    assert result.rows == []


def test_workers_capped_at_replicates(pool):
    run_roc_experiment(SPEC, (), 3, grid=[0.0], jobs=10**6)
    assert pool == [3]


def test_one_job_runs_in_process(pool):
    run_table_experiment(SPEC, (), 2, jobs=1)
    assert pool == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_non_positive_jobs_rejected(pool, jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_table_experiment(SPEC, (), 2, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        run_roc_experiment(SPEC, (), 2, grid=[0.0], jobs=jobs)
    assert pool == []


@pytest.mark.parametrize("command", ["table", "roc"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_non_positive_jobs(tmp_path, command, jobs):
    code = main([command, "--scenario", "2", "--methods", "sparse-cp-tpa",
                 "--replicates", "1", "--jobs", jobs,
                 "--out", str(tmp_path)])
    assert code == 1
