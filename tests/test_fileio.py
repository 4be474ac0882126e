"""File format checks: .t3 round trips, CSV matrices, model directories."""

import contextlib
import os
import signal
import subprocess
import sys
import tracemalloc

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
    # slabs of 292 planes of 7 values: 2044 a slab, 4 carried on
    np.random.default_rng(5).standard_normal((7, 1, 700)),
    # planes of 9225 values, each formatted in five blocks, 1 carried on
    np.random.default_rng(6).standard_normal((9, 1025, 3)),
], ids=["short-last-line", "9225-values", "exponents-300", "1x1x1",
        "extremes-11",
        "extremes-8", "carried-lines", "planes-over-a-block"])
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
    # a short body fails the size check; long tokens pass it and fail the
    # count after parsing
    for body, match in (("1 2 3", "body holds at most 3"),
                        ("1.000000000 2.000000000 3.000000000", "got 3")):
        path.write_text(f"tensor3 2 2 2\n{body}\n")
        with pytest.raises(ValueError, match=match):
            fileio.read_tensor3(path)


def test_t3_too_many_values(tmp_path):
    path = tmp_path / "bad.t3"
    path.write_text("tensor3 2 2 1\n1 2 3 4\n5\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        fileio.read_tensor3(path)


@pytest.mark.parametrize("dims", ["0 2 2", "2 -1 2", "2 2 0"])
def test_t3_non_positive_dims(tmp_path, dims):
    path = tmp_path / "bad.t3"
    path.write_text(f"tensor3 {dims}\n1 2 3 4\n")
    with pytest.raises(ValueError, match="header dims"):
        fileio.read_tensor3(path)


def test_t3_header_beyond_the_body_is_refused_before_allocating(tmp_path):
    # 10^15 values cannot fit in a 6-byte body (each takes 2 bytes but
    # the last); the reader refuses before it asks for 8 PB
    path = tmp_path / "huge.t3"
    path.write_text("tensor3 100000 100000 100000\n1 2 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000000000000000 values"):
            fileio.read_tensor3(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert main(["decompose", "--method", "tpa", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_t3_body_without_a_final_newline_is_read(tmp_path):
    # three values in five bytes: the guard allows the last value's
    # missing separator
    path = tmp_path / "x.t3"
    path.write_text("tensor3 1 1 3\n1 2 3")
    npt.assert_array_equal(fileio.read_tensor3(path).ravel(), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("body", ["1 2 oops 4\n", "1 2 3 oops\n"])
def test_t3_bad_token_names_it(tmp_path, body):
    path = tmp_path / "bad.t3"
    path.write_text("tensor3 2 2 1\n" + body)
    with pytest.raises(ValueError, match="oops"):
        fileio.read_tensor3(path)


@contextlib.contextmanager
def in_parts(read_block=None, scan_bytes=None):
    """Read every .t3 body of two bytes and more in two parts, on two
    usable cores.  Yields the list of parts forked."""
    forks, fork_part = [], fileio._fork_part
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_PART_BYTES", 1)
        mp.setattr(fileio.os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(fileio, "_fork_part",
                   lambda *a: forks.append(a) or fork_part(*a))
        if read_block:
            mp.setattr(fileio, "_READ_BLOCK", read_block)
        if scan_bytes:
            mp.setattr(fileio, "_SCAN_BYTES", scan_bytes)
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SEPARATORS = [" ", "\n", "\t", "\r\n", "\x0b", "\x0c", "  \n "]


@settings(max_examples=60, deadline=None)
@given(finite_tensors(), st.data(), st.sampled_from([8, 64, 1 << 14]),
       st.sampled_from([1, 4, 64]))
@example(np.array([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.0,
                   2.2250738585072014e-308, 1.0]).reshape(2, 2, 2),
         None, 8, 1)
def test_t3_read_in_parts_is_bit_equal_to_a_one_part_read(
        tmp_path_factory, x, data, read_block, scan_bytes):
    # parts and blocks end at any ASCII whitespace byte, never in a token
    seps = (data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=x.size,
                               max_size=x.size)) if data else [" "] * x.size)
    text = "".join("%.17g" % v + sep
                   for v, sep in zip(x.ravel(order="F").tolist(), seps))
    path = tmp_path_factory.mktemp("t3") / "x.t3"
    path.write_bytes(f"tensor3 {x.shape[0]} {x.shape[1]} {x.shape[2]}\n"
                     .encode() + text.encode())
    one = fileio.read_tensor3(path)
    with in_parts(read_block, scan_bytes) as forks:
        back = fileio.read_tensor3(path)
    assert_no_child_left()
    assert len(forks) == 1
    assert back.flags.c_contiguous and back.shape == x.shape
    assert back.tobytes() == one.tobytes() == x.tobytes()


@pytest.mark.parametrize("dims, body", [
    ((2, 2, 2), "1 2 3 4 5 6 7 oops\n"),
    ((2, 2, 2), "oops 2 3 4 5 6 7 8\n"),
    ((2, 2, 1), "1 2 3 4 5 6 7 8\n"),
    ((1, 1, 2), "1.00000000000000000000 2 3 4\n"),
    ((2, 2, 2), "1.000000000 2.000000000 3.000000000\n"),
], ids=["bad-token-in-the-last-part", "bad-token-in-part-0",
        "too-many-values", "too-many-in-one-later-part", "too-few-values"])
def test_t3_errors_in_parts_read_as_in_one_part(tmp_path, dims, body):
    path = tmp_path / "bad.t3"
    path.write_text("tensor3 %d %d %d\n" % dims + body)
    with pytest.raises(ValueError) as one:
        fileio.read_tensor3(path)
    with in_parts() as forks, pytest.raises(ValueError) as parts:
        fileio.read_tensor3(path)
    assert len(forks) == 1
    assert str(parts.value) == str(one.value)
    assert_no_child_left()


def test_t3_surplus_and_a_bad_token_in_part_1_raise_a_value_error(tmp_path):
    # one part counts the surplus first; the child of two parts converts
    # its own tokens, which are not too many for it, and names the bad one
    path = tmp_path / "bad.t3"
    path.write_text("tensor3 2 2 1\n1 2 3 4 5 oops\n")
    with pytest.raises(ValueError, match="got more"):
        fileio.read_tensor3(path)
    with in_parts() as forks, pytest.raises(ValueError, match="oops"):
        fileio.read_tensor3(path)
    assert len(forks) == 1
    assert_no_child_left()


def test_t3_many_usable_cores_still_read_in_two_parts(tmp_path):
    # more than two parts were never measured: one child, whatever the
    # number of usable cores
    x = np.random.default_rng(8).standard_normal((6, 5, 4))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    with in_parts() as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio.os, "sched_getaffinity", lambda pid: set(range(64)))
        back = fileio.read_tensor3(path)
    assert len(forks) == 1 and back.tobytes() == x.tobytes()
    assert_no_child_left()


def test_t3_one_part_forks_nothing(tmp_path, monkeypatch):
    # a body below two part sizes, one usable core or a platform without
    # os.fork reads in the caller alone
    x = np.random.default_rng(7).standard_normal((6, 5, 4))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    assert os.path.getsize(path) < 2 * fileio._PART_BYTES
    monkeypatch.setattr(fileio, "_fork_part", None)
    assert fileio.read_tensor3(path).tobytes() == x.tobytes()
    monkeypatch.setattr(fileio, "_PART_BYTES", 1)
    monkeypatch.setattr(fileio.os, "sched_getaffinity", lambda pid: {0})
    assert fileio.read_tensor3(path).tobytes() == x.tobytes()
    monkeypatch.setattr(fileio.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(fileio.os, "fork")
    assert fileio.read_tensor3(path).tobytes() == x.tobytes()


def test_t3_a_killed_part_is_parsed_by_the_caller(tmp_path):
    # a second part killed before it writes leaves its values and their
    # count unwritten: the caller parses that part itself
    x = np.random.default_rng(9).standard_normal((6, 5, 4))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    caller, parse = os.getpid(), fileio._parse

    def parse_or_die(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse(*args)

    with in_parts() as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_parse", parse_or_die)
        back = fileio.read_tensor3(path)
    assert len(forks) == 1
    assert back.tobytes() == fileio.read_tensor3(path).tobytes()
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork")
                    or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="a body is read in two parts on two usable cores")
def test_t3_two_part_read_raises_the_peak_rss_by_one_tensor(tmp_path):
    # tracemalloc does not see the shared mapping the parts fill, so a
    # fresh process reports the growth of its peak resident set
    x = np.random.default_rng(10).standard_normal((100, 100, 100))
    path = tmp_path / "x.t3"
    fileio.write_tensor3(path, x)
    script = """
import resource, sys
from hopca import fileio
forks, fork_part = [], fileio._fork_part
fileio._fork_part = lambda *a: forks.append(a) or fork_part(*a)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
x = fileio.read_tensor3(sys.argv[1])
grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(len(forks), 1024 * grew / x.nbytes)
"""
    src = os.path.dirname(os.path.dirname(fileio.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script, str(path)],
                         env=env, capture_output=True, text=True, check=True)
    forks, tensors = out.stdout.split()
    assert forks == "1"
    assert float(tensors) <= 1.2


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
