"""Command-line surface checks: subcommands, exit codes, determinism."""

import filecmp

import numpy as np
import pytest

from hopca import fileio
from hopca.cli import main
from hopca.tensor3 import outer3


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.fixture
def rank_one_file(tmp_path):
    rng = np.random.default_rng(0)
    u, v, w = unit(rng, 8), unit(rng, 7), unit(rng, 6)
    x = outer3(u, v, w, 42.0)
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    return path, 42.0


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--scenario", "2", "--k", "1", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("x.t3", "U.csv", "d.csv", "support_u.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False)


def test_decompose_tpa_rank_one(rank_one_file, tmp_path):
    path, weight = rank_one_file
    out = tmp_path / "model"
    code = main(["decompose", "--method", "tpa", "--rank", "1",
                 "--input", str(path), "--out", str(out)])
    assert code == 0
    d = fileio.read_vector_csv(out / "d.csv")
    assert d[0] == pytest.approx(weight, rel=1e-6)


def test_decompose_sparse_writes_supports(rank_one_file, tmp_path):
    path, _ = rank_one_file
    out = tmp_path / "model"
    code = main(["decompose", "--method", "sparse-cp-tpa", "--rank", "1",
                 "--lambda-u", "0.5", "--input", str(path),
                 "--out", str(out)])
    assert code == 0
    assert (out / "support_u.csv").exists()
    assert (out / "lambdas.csv").exists()


def test_decompose_tucker_writes_core(rank_one_file, tmp_path):
    path, weight = rank_one_file
    out = tmp_path / "model"
    code = main(["decompose", "--method", "hosvd", "--rank", "1,1,1",
                 "--input", str(path), "--out", str(out)])
    assert code == 0
    core = fileio.read_tensor3(out / "core.t3")
    assert abs(core[0, 0, 0]) == pytest.approx(weight, rel=1e-10)


def test_varex_full_rank_tucker_reaches_one(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5, 6))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    model_dir = tmp_path / "model"
    assert main(["decompose", "--method", "hosvd", "--rank", "4,5,6",
                 "--input", str(path), "--out", str(model_dir)]) == 0
    out = tmp_path / "varex"
    assert main(["varex", "--input", str(path), "--model", str(model_dir),
                 "--out", str(out)]) == 0
    rows = (out / "varex.csv").read_text().splitlines()
    assert rows[0] == "k,cumulative_varex"
    assert float(rows[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-10)


def test_bic_command_writes_path(rank_one_file, tmp_path):
    path, _ = rank_one_file
    out = tmp_path / "bic"
    code = main(["bic", "--input", str(path), "--mode", "u",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "bic.csv").read_text().splitlines()
    assert lines[0] == "lambda,bic,nnz"
    assert len(lines) > 2


def test_table_command_schema(tmp_path):
    out = tmp_path / "table"
    code = main(["table", "--scenario", "2", "--k", "1", "--noise", "0",
                 "--methods", "tpa", "--replicates", "1", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "method,component,mode,tp,fp,mse"
    assert (out / "timings.csv").read_text().splitlines()[0] == (
        "method,replicate,seconds")


def test_roc_command_schema(tmp_path):
    out = tmp_path / "roc"
    code = main(["roc", "--scenario", "2", "--k", "1", "--noise", "0",
                 "--methods", "sparse-cp-tpa", "--replicates", "1",
                 "--points", "4", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = (out / "roc.csv").read_text().splitlines()
    assert lines[0] == "method,grid_index,lam,mode,component,tp,fp"


def test_unknown_flag_exits_one(capsys):
    assert main(["simulate", "--scenario", "1", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_missing_input_exits_two(tmp_path, capsys):
    code = main(["decompose", "--method", "tpa", "--rank", "1",
                 "--input", str(tmp_path / "missing.t3"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_malformed_input_exits_two(tmp_path):
    bad = tmp_path / "bad.t3"
    bad.write_text("not a tensor\n")
    code = main(["decompose", "--method", "tpa", "--rank", "1",
                 "--input", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("body", ["1 2 oops 4\n", "1 2 3 oops\n"])
def test_bad_token_in_body_exits_two(tmp_path, capsys, body):
    bad = tmp_path / "bad.t3"
    bad.write_text("tensor3 2 2 1\n" + body)
    code = main(["decompose", "--method", "tpa", "--rank", "1",
                 "--input", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "oops" in capsys.readouterr().err


def test_numerical_failure_exits_three(tmp_path):
    # a non-PSD quadratic operator is a numerical failure, not an I/O one
    rng = np.random.default_rng(2)
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, rng.standard_normal((3, 3, 3)))
    bad_q = tmp_path / "q1.csv"
    fileio.write_matrix_csv(bad_q, -np.eye(3))
    code = main(["decompose", "--method", "gcp", "--rank", "1",
                 "--q1", str(bad_q), "--input", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_varex_zero_tensor_exits_three(tmp_path):
    path = tmp_path / "zero.t3"
    fileio.write_tensor3(path, np.zeros((3, 3, 3)))
    model_dir = tmp_path / "model"
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3, 3))
    nz_path = tmp_path / "x.t3"
    fileio.write_tensor3(nz_path, x)
    assert main(["decompose", "--method", "tpa", "--rank", "1",
                 "--input", str(nz_path), "--out", str(model_dir)]) == 0
    code = main(["varex", "--input", str(path), "--model", str(model_dir),
                 "--out", str(tmp_path / "varex")])
    assert code == 3


def test_decompose_gcp_with_operator_files(rank_one_file, tmp_path):
    path, _ = rank_one_file
    q1 = 2.0 * np.eye(8)
    q1_path = tmp_path / "q1.csv"
    fileio.write_matrix_csv(q1_path, q1)
    out = tmp_path / "model"
    code = main(["decompose", "--method", "gcp", "--rank", "1",
                 "--q1", str(q1_path), "--input", str(path),
                 "--out", str(out)])
    assert code == 0
    u = fileio.read_matrix_csv(out / "U.csv")
    assert float(u[:, 0] @ q1 @ u[:, 0]) == pytest.approx(1.0, abs=1e-8)


def test_decompose_fpca_halfsmooth(rank_one_file, tmp_path):
    path, _ = rank_one_file
    out = tmp_path / "model"
    code = main(["decompose", "--method", "fpca-halfsmooth", "--rank", "1",
                 "--alpha", "0.5", "--input", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "core.t3").exists()


def test_decompose_group_penalty(rank_one_file, tmp_path):
    path, _ = rank_one_file
    out = tmp_path / "model"
    code = main(["decompose", "--method", "sparse-cp-tpa", "--rank", "1",
                 "--penalty", "group", "--group-size", "4",
                 "--lambda-u", "0.4", "--input", str(path),
                 "--out", str(out)])
    assert code == 0
    u = fileio.read_matrix_csv(out / "U.csv")
    # zeros arrive in whole blocks of the configured group size
    mask = (u[:, 0] != 0).reshape(2, 4)
    assert all(row.all() or not row.any() for row in mask)
