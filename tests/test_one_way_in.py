"""Every shared loop enters through ``_shared_grams``, which checks its
tensor when it opens a block on a new one.  A fit inside a block open on
its own tensor therefore never checks (and never rescans) it again: a
table replicate and a ROC replicate each check their tensor once."""

import sys

import numpy as np
import pytest

from hopca import fileio, tensor3
from hopca.cli import main
from hopca.decompose import SolverConfig, _shared_grams
from hopca.generalized import (SmootherSet, _half_smooth, fpca_half_smoothing,
                               fpca_rank_one)
from hopca.simulate import (METHODS, TABLE_METHODS, SimScenarioSpec,
                            _roc_replicate, _table_replicate)
from hopca.sparse import ModePenalty, sparse_pca


@pytest.fixture
def checks(monkeypatch):
    """The calls of ``check_tensor3``, counted wherever a package module
    binds it."""
    original, calls = tensor3.check_tensor3, []

    def counted(x):
        calls.append(np.shape(x))
        return original(x)

    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hopca" or name.startswith("hopca.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counted)
    return calls


def test_a_table_replicate_checks_its_tensor_once(checks):
    spec = SimScenarioSpec(scenario=2, k=2, seed=2024)
    out, _, failures = _table_replicate(spec, TABLE_METHODS, 0,
                                        SolverConfig(max_iter=100), None)
    assert failures == [] and sorted(out) == sorted(TABLE_METHODS)
    assert len(checks) == 1


def test_a_roc_replicate_checks_its_tensor_once(checks):
    spec = SimScenarioSpec(scenario=1, k=2, seed=2024)
    out = _roc_replicate(spec, ("sparse-cp-tpa", "cp-naive"), 0,
                         SolverConfig(max_iter=60), None, 20)
    assert all(out.values())
    assert len(checks) == 1


def test_a_fit_in_a_block_on_another_tensor_checks_its_own(checks):
    x = np.random.default_rng(1).standard_normal((5, 4, 3))
    with _shared_grams(x) as view:
        METHODS["tpa"].fit(view, 2, SolverConfig())
        METHODS["tpa"].fit(view + 1.0, 2, SolverConfig())
    assert checks == [x.shape, x.shape]


FPCA_ENTRIES = {
    "fpca_rank_one": lambda x, s: fpca_rank_one(x, s, SolverConfig()),
    "fpca_half_smoothing": lambda x, s: fpca_half_smoothing(
        x, s, (2, 2, 2), SolverConfig()),
}
# the half-smoothed tensor is a new tensor, checked by its own block
SMOOTHED_CHECKS = {"fpca_rank_one": 0, "fpca_half_smoothing": 1}


@pytest.mark.parametrize("name", sorted(FPCA_ENTRIES))
def test_an_fpca_fit_in_a_block_on_its_tensor_does_not_rescan_it(checks,
                                                                  name):
    x = np.random.default_rng(4).standard_normal((6, 5, 4))
    s = SmootherSet.second_difference(x.shape, 1.0)
    with _shared_grams(x) as view:
        FPCA_ENTRIES[name](view, s)
    # the block's own check on opening, then the smoothed tensor's
    assert checks == [x.shape] * (1 + SMOOTHED_CHECKS[name])


@pytest.mark.parametrize("name", sorted(FPCA_ENTRIES))
def test_an_fpca_fit_checks_its_tensor_once(checks, name):
    x = np.random.default_rng(4).standard_normal((6, 5, 4))
    FPCA_ENTRIES[name](x, SmootherSet.second_difference(x.shape, 1.0))
    assert checks == [x.shape] * (1 + SMOOTHED_CHECKS[name])


def with_nan(shape=(5, 4, 3)):
    x = np.random.default_rng(2).standard_normal(shape)
    x[1, 2, 0] = np.nan
    return x


@pytest.mark.parametrize("bad", [with_nan(), np.ones((4, 3)),
                                 np.ones((2, 2, 2, 2))],
                         ids=["nan", "ndim2", "ndim4"])
def test_opening_a_block_checks_the_tensor(bad):
    with pytest.raises(ValueError):
        with _shared_grams(bad):
            pytest.fail("the block opened on a bad tensor")


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_method_rejects_a_non_finite_tensor(name, value):
    x = np.random.default_rng(3).standard_normal((5, 4, 3))
    x[2, 1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        METHODS[name].fit(x, 2, SolverConfig())


def huge():
    """A finite 6 x 5 x 4 tensor whose squared norm overflows float64."""
    return np.random.default_rng(0).standard_normal((6, 5, 4)) * 1e160


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_method_rejects_a_tensor_whose_squared_norm_overflows(name):
    with pytest.raises(ValueError, match="finite entries, but the squared "
                       "norm overflows"):
        METHODS[name].fit(huge(), 2, SolverConfig())


def test_the_penalized_pca_tells_an_overflow_from_a_non_finite_entry():
    m = huge()[:, :, 0]
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="overflows"):
        sparse_pca(m, 2, ModePenalty("lasso", 0.1))
    m[0, 0] = np.inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="must be finite"):
        sparse_pca(m, 2, ModePenalty("lasso", 0.1))


def test_the_cli_exits_three_on_a_tensor_whose_squared_norm_overflows(
        tmp_path, capsys):
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, huge())  # reading and writing stay permissive
    assert np.array_equal(fileio.read_tensor3(path), huge())
    assert main(["decompose", "--method", "tpa", "--rank", "1", "--input",
                 str(path), "--out", str(tmp_path / "out")]) == 3
    assert "overflows" in capsys.readouterr().err


def test_half_smoothing_rejects_a_finite_tensor_that_smooths_to_inf():
    # S^{-1/2} has spectral norm at most one, but a row's entries of
    # either sign sum in absolute value to more than one
    shape = (6, 5, 4)
    s = SmootherSet.second_difference(shape, 1.0)
    impulse = np.zeros(shape)
    impulse[0, 0, 0] = 1.0
    _, (half_u, _, _) = _half_smooth(impulse, s)
    row = np.abs(half_u).sum(axis=1).argmax()
    x = np.zeros(shape)
    x[:, 0, 0] = np.sign(half_u[row]) * 1.7e308
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="finite"):
        fpca_half_smoothing(x, s, (1, 1, 1), SolverConfig())
