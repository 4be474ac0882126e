"""File format checks: .t3 round trips, CSV matrices, model directories."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopca import fileio
from hopca.cli import main
from hopca.decompose import CpModel, SolverConfig, hosvd, tpa
from hopca.generalized import QuadOperators, SmootherSet
from hopca.simulate import METHODS, SimScenarioSpec, simulate
from hopca.sparse import PenaltySpec, sparse_cp_tpa, sparse_hosvd


def test_t3_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 5)) * np.exp(rng.uniform(-20, 20, (3, 4, 5)))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    npt.assert_array_equal(fileio.read_tensor3(path), x)


@pytest.mark.parametrize("order", ["C", "F"])
def test_t3_read_is_c_contiguous_and_bit_equal(tmp_path, order):
    # the solvers' contractions take reshape views of a C-contiguous tensor
    x = np.asarray(np.random.default_rng(1).standard_normal((3, 4, 5)),
                   order=order)
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    back = fileio.read_tensor3(path)
    assert back.flags.c_contiguous and not back.flags.f_contiguous
    assert back.shape == x.shape and back.tobytes() == x.tobytes()


@st.composite
def finite_tensors(draw):
    shape = draw(st.tuples(*(st.integers(1, 6) for _ in range(3))))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=100, deadline=None)
@given(finite_tensors())
@example(np.array([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.0,
                   2.2250738585072014e-308, 1.0]).reshape(2, 2, 2))
def test_t3_round_trip_is_bit_exact_over_shapes_and_magnitudes(
        tmp_path_factory, x):
    path = tmp_path_factory.mktemp("t3") / "x.t3"
    fileio.write_tensor3(path, x)
    back = fileio.read_tensor3(path)
    # byte comparison: assert_array_equal would take -0.0 for 0.0
    assert back.shape == x.shape
    assert back.tobytes() == x.tobytes()


def reference_t3_text(x):
    """The .t3 text with every value formatted on its own, eight a line."""
    flat = x.ravel(order="F")
    lines = [f"tensor3 {x.shape[0]} {x.shape[1]} {x.shape[2]}"]
    lines += [" ".join(f"{v:.17g}" for v in flat[i:i + 8])
              for i in range(0, flat.size, 8)]
    return "\n".join(lines) + "\n"


EXTREMES = [-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1e300, -1e-300, 0.0,
            2.2250738585072014e-308, 1.0, -1e300]


@pytest.mark.parametrize("x", [
    np.random.default_rng(1).standard_normal((3, 5, 7)),  # 105 = 13*8 + 1
    np.random.default_rng(4).standard_normal((9, 1025, 1)),  # several blocks
    np.random.default_rng(2).standard_normal((3, 5, 7))
    * 10.0 ** np.random.default_rng(3).integers(-300, 301, (3, 5, 7)),
    np.array([-2.5]).reshape(1, 1, 1),
    np.array(EXTREMES).reshape(1, 1, 11),
    np.array(EXTREMES[:8]).reshape(2, 2, 2),
], ids=["short-last-line", "9225-values", "exponents-300", "1x1x1",
        "extremes-11",
        "extremes-8"])
def test_t3_writer_bytes_match_per_value_format(tmp_path, x):
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    assert path.read_bytes() == reference_t3_text(x).encode()


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


@pytest.mark.parametrize("fit, written", [
    (lambda x, cfg: tpa(x, 2, cfg),
     {"orthogonalized", "residual_norm", "truncated_at"}),
    (lambda x, cfg: sparse_hosvd(x, (2, 2, 2), PenaltySpec.lasso(u="bic"),
                                 cfg), {"sparse"}),
], ids=["tpa", "sparse-hosvd"])
def test_diagnostics_txt_carries_the_loop_lists(tmp_path, fit, written):
    x = np.random.default_rng(8).standard_normal((6, 5, 4))
    model = fit(x, SolverConfig(max_iter=1))
    fileio.save_model(tmp_path / "model", model)
    out = fileio.read_diagnostics(tmp_path / "model" / "diagnostics.txt")
    diag = model.diagnostics
    assert len(diag["iterations"]) == 2
    assert out["iterations"] == ",".join(map(str, diag["iterations"]))
    assert out["converged"] == ",".join("true" if c else "false"
                                        for c in diag["converged"])
    # traces, per-mode dicts and arrays stay out of diagnostics.txt
    assert set(out) == {"method", "iterations", "converged", *written}


def fit_entry(name, x):
    """Fit one registry method at rank 2 as ``hopca decompose`` would:
    BIC levels for the penalty specs, a fixed level for sparse-gcp."""
    entry = METHODS[name]
    pen = {"spec": PenaltySpec.lasso("bic"),
           "fixed": PenaltySpec.lasso(0.3), None: None}[entry.penalty]
    op = {"q": lambda: QuadOperators.identity(x.shape),
          "s": lambda: SmootherSet.second_difference(x.shape, 1.0),
          None: lambda: None}[entry.operator]()
    return entry.fit(x, (2, 2, 2) if entry.tucker else 2, SolverConfig(),
                     pen, op)


@pytest.mark.parametrize("name", list(METHODS))
def test_every_method_round_trips_and_writes_its_levels(tmp_path, name):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 6, 5))
    model = fit_entry(name, x)
    tucker = METHODS[name].tucker
    save, load, weights = ((fileio.save_tucker_model,
                            fileio.load_tucker_model, "core") if tucker else
                           (fileio.save_cp_model, fileio.load_cp_model, "d"))
    save(tmp_path / "model", model)
    loaded = load(tmp_path / "model")
    for attr in ("U", "V", "W", weights):
        assert np.array_equal(getattr(loaded, attr), getattr(model, attr))
    lines = (tmp_path / "model" / "lambdas.csv").read_text().splitlines()
    assert lines[0] == "mode,component,lambda"
    rows = [(mode, int(k), float(lam))
            for mode, k, lam in (line.split(",") for line in lines[1:])]
    levels = model.diagnostics["lambdas"]
    assert rows == [(mode, k, lam) for mode in ("u", "v", "w")
                    for k, lam in enumerate(levels[mode])]


def test_simulate_writes_true_supports(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "2", "--k", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    truth = simulate(SimScenarioSpec(scenario=2, k=2, seed=5))
    for mode in ("u", "v", "w"):
        mask = np.loadtxt(out / f"support_{mode}.csv", delimiter=",",
                          ndmin=2)
        assert np.array_equal(mask, truth.supports[mode].astype(int))


def reference_trace_and_lambdas(diag):
    """trace.csv and lambdas.csv with every value formatted on its own."""
    trace = ["component,update,objective"]
    trace += [f"{k},{t},{v:.17g}"
              for k, values in enumerate(diag["objective_traces"])
              for t, v in enumerate(np.asarray(values, dtype=float))]
    lambdas = ["mode,component,lambda"]
    lambdas += [f"{mode},{k},{lam:.17g}" for mode in ("u", "v", "w")
                for k, lam in enumerate(diag["lambdas"][mode])]
    return "\n".join(trace) + "\n", "\n".join(lambdas) + "\n"


def _extremes_model():
    return CpModel(np.eye(2), np.eye(2), np.eye(2), np.ones(2), {
        "objective_traces": [np.array(EXTREMES[:6]), np.array(EXTREMES[6:])],
        "lambdas": {"u": [0.1, 1e-300], "v": [-0.0, 0.0],
                    "w": [1.7e308, 2.2250738585072014e-308]}})


@pytest.mark.parametrize("model", [
    lambda: sparse_cp_tpa(np.random.default_rng(6).standard_normal((8, 7, 6)),
                          2, PenaltySpec.lasso("bic", "bic")),
    _extremes_model,
], ids=["sparse-cp-tpa", "extremes"])
def test_trace_and_lambdas_bytes_match_per_value_format(tmp_path, model):
    model = model()
    fileio.save_cp_model(tmp_path / "model", model)
    trace, lambdas = reference_trace_and_lambdas(model.diagnostics)
    assert (tmp_path / "model" / "trace.csv").read_text() == trace
    assert (tmp_path / "model" / "lambdas.csv").read_text() == lambdas
