"""Command-line surface checks: subcommands, exit codes, determinism."""

import filecmp

import numpy as np
import pytest

from hopca import cli, decompose, fileio
from hopca.cli import main
from hopca.decompose import CpModel, SolverConfig
from hopca.simulate import METHODS, SimScenarioSpec, simulate
from hopca.sparse import PenaltySpec
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


@pytest.mark.parametrize("k", [1, 2])
def test_simulate_writes_the_truth_as_a_model(tmp_path, k):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "2", "--k", str(k), "--seed", "7",
                 "--out", str(out)]) == 0
    model = fileio.load_model(out)
    assert isinstance(model, CpModel)
    spec = SimScenarioSpec(scenario=2, k=k, seed=7)
    assert (model.reconstruct().tobytes()
            == simulate(spec).x_signal.tobytes())
    assert model.diagnostics == {
        "scenario": "2", "k": str(k), "sparsity": "0.5", "signal": "high",
        "seed": "7", "noise": "1", "dims": "1000x20x20", "sparse": "true"}
    assert main(["varex", "--input", str(out / "x.t3"), "--model", str(out),
                 "--out", str(tmp_path / "eval")]) == 0
    assert not (out / "signal.t3").exists()
    assert not (out / "spec.txt").exists()


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


def test_non_integer_dims_in_the_header_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.t3"
    bad.write_text("tensor3 2 two 1\n1 2 3 4\n")
    code = main(["decompose", "--method", "tpa", "--input", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "non-integer dims" in capsys.readouterr().err


def test_a_matrix_file_holding_nan_exits_two(rank_one_file, tmp_path,
                                             capsys):
    path, _ = rank_one_file
    q1 = tmp_path / "q1.csv"
    q1.write_text("nan\n")
    code = main(["decompose", "--method", "gcp", "--q1", str(q1),
                 "--input", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def calls_of(monkeypatch, module, name) -> list:
    """Record the calls of ``module.name`` (looked up at call time)."""
    calls, func = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append(a) or func(*a, **kw))
    return calls


def test_an_out_path_naming_a_file_exits_two(rank_one_file, tmp_path,
                                             capsys, monkeypatch):
    # the model directory cannot be made, which is found before the work
    reads = calls_of(monkeypatch, fileio, "read_tensor3")
    fits = calls_of(monkeypatch, decompose, "tpa")
    path, _ = rank_one_file
    out = tmp_path / "taken"
    out.write_text("a file\n")
    code = main(["decompose", "--method", "tpa", "--input", str(path),
                 "--out", str(out)])
    assert code == 2
    assert "I/O error" in capsys.readouterr().err
    assert out.read_text() == "a file\n"
    assert reads == [] and fits == []


# every subcommand that takes --out, and the first work it would do
WORK_OF_EVERY_OUT = pytest.mark.parametrize("argv, module, name", [
    (["simulate", "--scenario", "1"], cli, "simulate"),
    (["table", "--scenario", "1", "--methods", "tpa"], cli,
     "run_table_experiment"),
    (["roc", "--scenario", "1", "--methods", "sparse-cp-tpa"], cli,
     "run_roc_experiment"),
    (["varex", "--input", "x.t3", "--model", "model"], fileio,
     "read_tensor3"),
    (["bic", "--input", "x.t3", "--mode", "u"], fileio, "read_tensor3"),
    (["decompose", "--method", "tpa", "--input", "x.t3"], fileio,
     "read_tensor3"),
], ids=["simulate", "table", "roc", "varex", "bic", "decompose"])


@WORK_OF_EVERY_OUT
def test_every_out_naming_a_file_exits_two_before_the_work(
        tmp_path, capsys, monkeypatch, argv, module, name):
    work = calls_of(monkeypatch, module, name)
    out = tmp_path / "taken"
    out.write_text("a file\n")
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"hopca: I/O error: --out {out} is "
                                       "not a directory\n")
    assert out.read_text() == "a file\n"
    assert work == []


@WORK_OF_EVERY_OUT
def test_every_out_under_a_file_exits_two_before_the_work(
        tmp_path, capsys, monkeypatch, argv, module, name):
    # --out names no existing path; its nearest existing ancestor is a file
    work = calls_of(monkeypatch, module, name)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "sub" / "dir"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"hopca: I/O error: --out {out} lies "
                                       f"under {taken}, which is not a "
                                       "directory\n")
    assert taken.read_text() == "a file\n"
    assert work == []


def test_an_unwritable_out_exits_two_on_the_first_write(tmp_path, capsys,
                                                        monkeypatch):
    # --out passes the check before the work (its parent is a directory),
    # but its first write is refused, as in a read-only directory
    out = tmp_path / "out"

    def refused(dirpath, model):
        raise PermissionError(13, "Permission denied", str(dirpath))

    monkeypatch.setattr(fileio, "save_model", refused)
    assert main(["simulate", "--scenario", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("hopca: I/O error: [Errno 13] "
                                       f"Permission denied: '{out}'\n")


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


@pytest.mark.parametrize("method", ["sparse-cp-tpa", "cp-als", "hooi",
                                    "hosvd"])
def test_orthogonalize_outside_tpa_exits_one(rank_one_file, tmp_path,
                                             capsys, method):
    # only tpa projects new components against the previous ones
    path, _ = rank_one_file
    code = main(["decompose", "--method", method, "--rank", "1",
                 "--orthogonalize", "--input", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--orthogonalize" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["hosvd", "hooi", "sparse-hosvd",
                                    "sparse-hooi", "fpca-halfsmooth"])
def test_random_init_on_tucker_method_exits_one(rank_one_file, tmp_path,
                                                capsys, method):
    # the Tucker methods start from singular vectors whatever --init says
    path, _ = rank_one_file
    code = main(["decompose", "--method", method, "--rank", "1",
                 "--init", "random", "--input", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--init" in capsys.readouterr().err


def test_orthogonalize_and_random_init_still_reach_tpa(rank_one_file,
                                                       tmp_path):
    path, weight = rank_one_file
    out = tmp_path / "model"
    code = main(["decompose", "--method", "tpa", "--rank", "1",
                 "--orthogonalize", "--init", "random", "--input", str(path),
                 "--out", str(out)])
    assert code == 0
    d = fileio.read_vector_csv(out / "d.csv")
    assert d[0] == pytest.approx(weight, rel=1e-6)


_DECOMPOSE = ["decompose", "--method", "tpa"]


@pytest.mark.parametrize("argv", [
    _DECOMPOSE + ["--max-iter", "0"],
    _DECOMPOSE + ["--tol", "0"],
    _DECOMPOSE + ["--rank", "0"],
    _DECOMPOSE + ["--rank", "a"],
    _DECOMPOSE + ["--rank", "1,2"],
    ["decompose", "--rank", "1,2", "--method", "hooi"],
    ["decompose", "--method", "sparse-cp-tpa", "--lambda-u", "abc"],
    ["decompose", "--method", "sparse-cp-tpa", "--lambda-u", ","],
    ["decompose", "--method", "fpca", "--alpha", "-1"],
    ["decompose", "--method", "sparse-cp-tpa", "--penalty", "group",
     "--lambda-u", "0.4", "--group-size", "0"],
    ["table", "--scenario", "2", "--methods", "tpa", "--replicates", "0"],
    ["table", "--scenario", "2", "--methods", "tpa,nope"],
    ["table", "--scenario", "2", "--methods", ""],
    ["table", "--scenario", "2", "--methods", ","],
    ["roc", "--scenario", "2", "--methods", ""],
    ["roc", "--scenario", "2", "--methods", "sparse-cp-tpa",
     "--points", "0"],
    ["simulate", "--scenario", "2", "--sparsity", "1.5"],
    ["simulate", "--scenario", "2", "--noise", "-1"],
    # refused before the truth files are written, not when x.t3 is
    ["simulate", "--scenario", "2", "--noise", "nan"],
    ["simulate", "--scenario", "2", "--noise", "inf"],
    ["bic", "--mode", "u", "--grid", "x"],
    ["varex", "--k", "0"],
    # refused by the tensor's shape (8 x 7 x 6) or the model's one
    # component, before any fit or before the tensor is read
    ["decompose", "--method", "hosvd", "--rank", "7"],
    ["decompose", "--method", "sparse-hooi", "--rank", "2,8,2"],
    ["varex", "--k", "3"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_flag_value_exits_one(rank_one_file, tmp_path, capsys, argv):
    # a flag value the library rejects is a usage error, not a numerical
    # failure, and it is caught before anything is read or written
    path, _ = rank_one_file
    out = tmp_path / "out"
    if argv[0] == "varex":
        model = tmp_path / "model"
        assert main(["decompose", "--method", "tpa", "--input", str(path),
                     "--out", str(model)]) == 0
        argv = argv + ["--model", str(model)]
    if argv[0] in ("decompose", "bic", "varex"):
        argv = argv + ["--input", str(path)]
    code = main(argv + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip()
    assert not out.exists()


_GRID_COMMANDS = {
    "table": ["table", "--scenario", "2", "--k", "1", "--methods",
              "sparse-cp-tpa", "--replicates", "1"],
    "roc": ["roc", "--scenario", "2", "--k", "1", "--methods",
            "sparse-cp-tpa", "--replicates", "1"],
    # an input that does not exist: the grid is checked before it is read
    "bic": ["bic", "--mode", "u", "--input", "no-such-file.t3"],
}


@pytest.mark.parametrize("grid", ["--grid=-1,0.1", "--grid=0.5,0.1",
                                  "--grid=-1", "--grid=nan"])
@pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
def test_bad_grid_exits_one_before_any_work(tmp_path, capsys, command, grid):
    # a negative or non-increasing grid breaks the library's rule for
    # penalty grids: a usage error, not a numerical failure per replicate
    out = tmp_path / "out"
    code = main(_GRID_COMMANDS[command] + [grid, "--out", str(out)])
    assert code == 1
    assert "lambda" in capsys.readouterr().err
    assert not out.exists()


def _fail_method(fails):
    """``setattr`` arguments for a fit_method that raises for the named
    methods."""
    import importlib

    simulate = importlib.import_module("hopca.simulate")
    fit = simulate.fit_method

    def fit_method(name, *args, **kwargs):
        if name in fails:
            raise FloatingPointError(f"{name} diverged")
        return fit(name, *args, **kwargs)

    return simulate, "fit_method", fit_method


def test_table_where_every_replicate_failed_exits_three(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(*_fail_method({"tpa", "hosvd"}))
    out = tmp_path / "table"
    code = main(["table", "--scenario", "2", "--k", "1", "--methods",
                 "tpa,hosvd", "--replicates", "2", "--out", str(out)])
    assert code == 3
    assert "failed" in capsys.readouterr().err
    assert (out / "metrics.csv").read_text().splitlines() == [
        "method,component,mode,tp,fp,mse"]
    assert len((out / "failures.csv").read_text().splitlines()) == 1 + 4


def test_table_with_one_working_method_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(*_fail_method({"tpa"}))
    out = tmp_path / "table"
    code = main(["table", "--scenario", "2", "--k", "1", "--methods",
                 "tpa,hosvd", "--replicates", "1", "--out", str(out)])
    assert code == 0
    assert (out / "failures.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["--method", "cp-als", "--lambda-u", "0.3"], "--lambda-u"),
    (["--method", "hooi", "--lambda-w", "bic"], "--lambda-w"),
    (["--method", "tpa", "--penalty", "nonneg"], "--penalty"),
    (["--method", "cp-als", "--penalty", "group"], "--penalty"),
    (["--method", "sparse-hooi", "--penalty", "group"], "--penalty"),
    (["--method", "sparse-gcp", "--lambda-u", "0.3", "--penalty", "nonneg"],
     "--penalty"),
    (["--method", "tpa", "--q1", "nofile.csv"], "--q1"),
    (["--method", "hosvd", "--q3", "nofile.csv"], "--q3"),
    (["--method", "gcp", "--alpha", "2"], "--alpha"),
    (["--method", "tpa", "--diff-order", "4"], "--diff-order"),
    (["--method", "fpca", "--q1", "nofile.csv", "--diff-order", "4"],
     "--diff-order"),
    (["--method", "sparse-cp-tpa", "--lambda-u", "0.4", "--group-size", "3"],
     "--group-size"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_flag_the_method_does_not_read_exits_one(tmp_path, capsys, argv,
                                                 flag):
    # the registry entry's penalty and operator fields decide, before the
    # input (here missing) or a matrix file (never opened) is read
    out = tmp_path / "out"
    code = main(["decompose", *argv, "--input", str(tmp_path / "none.t3"),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{argv[1]} does not read {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--method", "sparse-cp-tpa", "--rank", "1", "--lambda-u", "nan"],
    ["--method", "sparse-cp-tpa", "--lambda-v", "0.1,nan"],
    ["--method", "sparse-gcp", "--rank", "1", "--lambda-u", "nan"],
    ["--method", "fpca", "--alpha", "nan"],
    ["--method", "fpca", "--alpha", "inf"],
], ids=lambda argv: " ".join(argv[1:2] + argv[-2:]))
def test_a_non_finite_level_or_weight_exits_one_before_the_input(
        tmp_path, capsys, argv):
    # the input does not exist: reading it would exit 2
    out = tmp_path / "out"
    code = main(["decompose", *argv, "--input", str(tmp_path / "none.t3"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip()
    assert not out.exists()


def test_sparse_gcp_with_a_bic_level_exits_one(tmp_path, capsys):
    # sparse-gcp takes fixed levels: the library's fixed_level rule decides
    out = tmp_path / "out"
    code = main(["decompose", "--method", "sparse-gcp", "--lambda-u", "bic",
                 "--input", str(tmp_path / "none.t3"), "--out", str(out)])
    assert code == 1
    assert "takes fixed scalar lambdas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--method", "gcp", "--q2", "Q2"],
    ["--method", "fpca", "--alpha", "0.5", "--diff-order", "4"],
    ["--method", "fpca-halfsmooth", "--q2", "Q2", "--alpha", "0.5"],
    ["--method", "sparse-cp-tpa", "--penalty", "nonneg", "--lambda-u", "0.1"],
    ["--method", "sparse-hooi", "--lambda-v", "bic"],
], ids=" ".join)
def test_flags_the_method_reads_are_accepted(rank_one_file, tmp_path, argv):
    path, _ = rank_one_file
    fileio.write_matrix_csv(tmp_path / "Q2", 2.0 * np.eye(7))
    argv = [str(tmp_path / "Q2") if arg == "Q2" else arg for arg in argv]
    out = tmp_path / "model"
    assert main(["decompose", *argv, "--input", str(path),
                 "--out", str(out)]) == 0
    assert (out / "U.csv").exists()


def _noisy_rank_one_file(tmp_path):
    rng = np.random.default_rng(9)
    u, v, w = unit(rng, 8), unit(rng, 7), unit(rng, 6)
    x = outer3(u, v, w, 30.0) + 0.1 * rng.standard_normal((8, 7, 6))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    return path


@pytest.mark.parametrize("method, extra, loop", [
    pytest.param("sparse-cp-tpa", ["--lambda-u", "bic"], 0,
                 id="sparse-cp-tpa-extra0-component 0"),
    pytest.param("tpa", [], 1, id="tpa-extra1-component 1"),
    pytest.param("cp-als", [], 0, id="cp-als-extra2-the fit"),
    pytest.param("sparse-cp-als", ["--lambda-u", "0.1"], 0,
                 id="sparse-cp-als-extra3-the fit"),
    pytest.param("hooi", [], 0, id="hooi-extra4-the fit"),
    pytest.param("fpca-halfsmooth", [], 0,
                 id="fpca-halfsmooth-extra5-the fit"),
])
def test_unconverged_fit_is_named_on_stderr(tmp_path, capsys, method, extra,
                                            loop):
    # a deflation fit runs a loop per component; ALS and HOOI fits run one
    out = tmp_path / "model"
    code = main(["decompose", "--method", method, "--rank", "2",
                 "--max-iter", "1", *extra,
                 "--input", str(_noisy_rank_one_file(tmp_path)),
                 "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert f"hopca: {method}: loop {loop} did not converge within " \
        "--max-iter 1" in err
    assert (out / "U.csv").exists()


@pytest.mark.parametrize("method", sorted(METHODS))
def test_no_loop_ends_silently(tmp_path, capsys, method):
    # one sweep converges no loop, so every loop of the fit is named
    entry = METHODS[method]
    lam = {"spec": "bic", "fixed": 0.1}.get(entry.penalty)
    path = _noisy_rank_one_file(tmp_path)
    model = entry.fit(fileio.read_tensor3(path), 2, SolverConfig(max_iter=1),
                      None if lam is None else PenaltySpec.lasso(u=lam))
    diag = model.diagnostics
    loops = len(diag["converged"])
    assert len(diag["iterations"]) == len(diag["objective_traces"]) == loops
    assert diag["converged"] == [False] * loops
    assert (loops == 0) == (method == "hosvd")
    extra = [] if lam is None else ["--lambda-u", str(lam)]
    assert main(["decompose", "--method", method, "--rank", "2",
                 "--max-iter", "1", *extra, "--input", str(path),
                 "--out", str(tmp_path / "model")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"hopca: {method}: loop {k} did not converge within --max-iter 1"
        for k in range(loops)]


@pytest.mark.parametrize("method, extra", [
    ("tpa", []), ("sparse-cp-tpa", ["--lambda-u", "0.5"]), ("cp-als", []),
    ("hooi", []), ("hosvd", []), ("sparse-hosvd", ["--lambda-u", "bic"]),
])
def test_converged_fit_prints_nothing_on_stderr(rank_one_file, tmp_path,
                                                capsys, method, extra):
    path, _ = rank_one_file
    code = main(["decompose", "--method", method, "--rank", "1", *extra,
                 "--input", str(path), "--out", str(tmp_path / "model")])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_sparse_cp_als_with_a_nonneg_penalty_exits_one(tmp_path, capsys):
    # the solver's lasso-only rule decides before the (missing) input is read
    out = tmp_path / "out"
    code = main(["decompose", "--method", "sparse-cp-als", "--penalty",
                 "nonneg", "--lambda-u", "0.1",
                 "--input", str(tmp_path / "none.t3"), "--out", str(out)])
    assert code == 1
    assert "supports only lasso penalties" in capsys.readouterr().err
    assert not out.exists()
