"""File format checks: .t3 round trips, CSV matrices, model directories."""

import numpy as np
import numpy.testing as npt
import pytest

from hopca import fileio
from hopca.decompose import SolverConfig, hosvd, tpa
from hopca.sparse import PenaltySpec, sparse_cp_tpa


def test_t3_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5)) * np.exp(rng.uniform(-20, 20, (3, 4, 5)))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    npt.assert_array_equal(fileio.read_tensor3(path), x)


def test_t3_header_and_layout(tmp_path):
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, np.arange(8.0).reshape((2, 2, 2), order="F"))
    lines = path.read_text().splitlines()
    assert lines[0] == "tensor3 2 2 2"
    values = [float(tok) for line in lines[1:] for tok in line.split()]
    assert values == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def test_t3_accepts_scientific_notation(tmp_path):
    path = tmp_path / "x.t3"
    path.write_text("tensor3 1 1 2\n1.5e-3 -2E+4\n")
    npt.assert_array_equal(fileio.read_tensor3(path).ravel(order="F"),
                           [1.5e-3, -2e4])


def test_t3_malformed_header(tmp_path):
    path = tmp_path / "bad.t3"
    path.write_text("tensor 2 2\n1 2 3 4\n")
    with pytest.raises(ValueError):
        fileio.read_tensor3(path)


def test_t3_wrong_count(tmp_path):
    path = tmp_path / "bad.t3"
    path.write_text("tensor3 2 2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        fileio.read_tensor3(path)


@pytest.mark.parametrize("body", ["1 2 oops 4\n", "1 2 3 oops\n"])
def test_t3_bad_token_names_it(tmp_path, body):
    path = tmp_path / "bad.t3"
    path.write_text("tensor3 2 2 1\n" + body)
    with pytest.raises(ValueError, match="oops"):
        fileio.read_tensor3(path)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    fileio.write_matrix_csv(path, m)
    npt.assert_array_equal(fileio.read_matrix_csv(path), m)


def test_cp_model_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4, 3))
    model = tpa(x, 2, SolverConfig(max_iter=50))
    fileio.save_cp_model(tmp_path / "model", model)
    loaded = fileio.load_cp_model(tmp_path / "model")
    npt.assert_array_equal(loaded.U, model.U)
    npt.assert_array_equal(loaded.d, model.d)
    assert (tmp_path / "model" / "diagnostics.txt").exists()
    assert (tmp_path / "model" / "trace.csv").exists()


def test_sparse_model_writes_supports_and_lambdas(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5, 4))
    model = sparse_cp_tpa(x, 1, PenaltySpec.lasso(u=0.5))
    fileio.save_cp_model(tmp_path / "model", model)
    mask = np.loadtxt(tmp_path / "model" / "support_u.csv", delimiter=",",
                      ndmin=2)
    npt.assert_array_equal(mask.ravel(), (model.U != 0).astype(int).ravel())
    text = (tmp_path / "model" / "lambdas.csv").read_text()
    assert text.splitlines()[0] == "mode,component,lambda"


def test_tucker_model_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 4, 3))
    model = hosvd(x, (2, 2, 2))
    fileio.save_tucker_model(tmp_path / "model", model)
    loaded = fileio.load_tucker_model(tmp_path / "model")
    npt.assert_array_equal(loaded.core, model.core)
    npt.assert_array_equal(loaded.V, model.V)


def test_diagnostics_round_trip(tmp_path):
    path = tmp_path / "diag.txt"
    fileio.write_diagnostics(path, {"iterations": 12, "converged": True,
                                    "residual_norm": 0.25,
                                    "skipped_array": np.ones(3)})
    out = fileio.read_diagnostics(path)
    assert out["iterations"] == "12"
    assert out["converged"] == "true"
    assert float(out["residual_norm"]) == 0.25
    assert "skipped_array" not in out
