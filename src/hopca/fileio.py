"""File formats: ``.t3`` tensors, CSV matrices, and model directories.

The ``.t3`` text format stores a third-order tensor as a header line
``tensor3 n p q`` followed by whitespace-separated values in
mode-1-fastest order.  Writers emit 17 significant digits so round trips
are bit-exact; readers accept scientific notation.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from .tensor3 import check_tensor3, tensor3

__all__ = [
    "read_tensor3",
    "write_tensor3",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_vector_csv",
    "write_vector_csv",
    "write_diagnostics",
    "read_diagnostics",
    "save_cp_model",
    "load_cp_model",
    "save_tucker_model",
    "load_tucker_model",
    "write_table_csv",
]

_VALUES_PER_LINE = 8
_WRITE_BLOCK = _VALUES_PER_LINE * 1024  # values formatted at a time
_READ_BLOCK = 1 << 16  # bytes of .t3 body parsed at a time


def write_tensor3(path, x) -> None:
    """Write a tensor to a ``.t3`` text file."""
    x = check_tensor3(x)
    n, p, q = x.shape
    flat = x.ravel(order="F")
    full = flat.size - flat.size % _VALUES_PER_LINE
    # one %-format per line of eight gives the text of f"{v:.17g}" per
    # value; converting a block at a time bounds the Python floats alive
    # (tolist() of a whole 100^3 tensor holds 32 MB of them)
    row = " ".join(["%.17g"] * _VALUES_PER_LINE) + "\n"
    with open(path, "w") as fh:
        fh.write(f"tensor3 {n} {p} {q}\n")
        for start in range(0, full, _WRITE_BLOCK):
            values = flat[start:min(start + _WRITE_BLOCK, full)].tolist()
            fh.write("".join([row % tuple(values[i:i + _VALUES_PER_LINE])
                              for i in range(0, len(values),
                                             _VALUES_PER_LINE)]))
        if full < flat.size:
            fh.write(" ".join("%.17g" % v for v in flat[full:].tolist())
                     + "\n")


def read_tensor3(path) -> np.ndarray:
    """Read a tensor from a ``.t3`` text file."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().split()
        if len(header) != 4 or header[0] != "tensor3":
            raise ValueError(f"{path}: malformed .t3 header {header!r}")
        try:
            n, p, q = (int(t) for t in header[1:])
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer dims in header") from exc
        # the body is parsed in blocks of whole lines: a token list of all
        # of it would hold one object per value (about 70 MB at 100^3);
        # float() names a bad token, and bytes split faster than str
        blocks = [np.zeros(0)]
        while block := fh.read(_READ_BLOCK):
            tokens = (block + fh.readline()).split()
            blocks.append(np.fromiter(map(float, tokens), float, len(tokens)))
    return tensor3(np.concatenate(blocks), (n, p, q))


def write_matrix_csv(path, m) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    np.savetxt(path, m, fmt="%.17g", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return m


def write_vector_csv(path, v) -> None:
    np.savetxt(path, np.asarray(v, dtype=float).ravel(), fmt="%.17g")


def read_vector_csv(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=1)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_diagnostics(path, diagnostics: dict[str, Any]) -> None:
    """Write scalar diagnostics as flat ``key=value`` lines.

    Container values (traces, per-component lists) are skipped here;
    callers serialize those to dedicated CSVs.
    """
    with open(path, "w") as fh:
        for key in sorted(diagnostics):
            value = diagnostics[key]
            if isinstance(value, (dict, list, tuple, np.ndarray)):
                continue
            fh.write(f"{key}={_format_value(value)}\n")


def read_diagnostics(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, _, value = line.partition("=")
                out[key] = value
    return out


def _write_trace_csv(path, traces) -> None:
    with open(path, "w") as fh:
        fh.write("component,update,objective\n")
        for k, trace in enumerate(traces):
            for t, value in enumerate(np.asarray(trace, dtype=float).ravel()):
                fh.write(f"{k},{t},{value:.17g}\n")


def _write_lambdas_csv(path, lambdas: dict[str, list[float]]) -> None:
    with open(path, "w") as fh:
        fh.write("mode,component,lambda\n")
        for mode in ("u", "v", "w"):
            for k, lam in enumerate(lambdas.get(mode, [])):
                fh.write(f"{mode},{k},{lam:.17g}\n")


def save_cp_model(dirpath, model) -> None:
    """Serialize a CP-style model to ``U.csv``/``V.csv``/``W.csv``/``d.csv``.

    Sparse solvers additionally get 0/1 support masks per mode, an
    objective ``trace.csv`` and the chosen ``lambdas.csv``.
    """
    os.makedirs(dirpath, exist_ok=True)
    write_matrix_csv(os.path.join(dirpath, "U.csv"), model.U)
    write_matrix_csv(os.path.join(dirpath, "V.csv"), model.V)
    write_matrix_csv(os.path.join(dirpath, "W.csv"), model.W)
    write_vector_csv(os.path.join(dirpath, "d.csv"), model.d)
    diag = dict(model.diagnostics)
    write_diagnostics(os.path.join(dirpath, "diagnostics.txt"), diag)
    if "objective_traces" in diag:
        _write_trace_csv(os.path.join(dirpath, "trace.csv"),
                         diag["objective_traces"])
    if "lambdas" in diag:
        _write_lambdas_csv(os.path.join(dirpath, "lambdas.csv"),
                           diag["lambdas"])
    if diag.get("sparse", False):
        for mode, factor in (("u", model.U), ("v", model.V), ("w", model.W)):
            mask = (factor != 0).astype(int)
            np.savetxt(os.path.join(dirpath, f"support_{mode}.csv"),
                       mask, fmt="%d", delimiter=",")


def load_cp_model(dirpath):
    from .decompose import CpModel

    model = CpModel(
        U=read_matrix_csv(os.path.join(dirpath, "U.csv")),
        V=read_matrix_csv(os.path.join(dirpath, "V.csv")),
        W=read_matrix_csv(os.path.join(dirpath, "W.csv")),
        d=read_vector_csv(os.path.join(dirpath, "d.csv")),
    )
    diag_path = os.path.join(dirpath, "diagnostics.txt")
    if os.path.exists(diag_path):
        model.diagnostics.update(read_diagnostics(diag_path))
    return model


def save_tucker_model(dirpath, model) -> None:
    """Serialize a Tucker-style model: factor CSVs plus ``core.t3``."""
    os.makedirs(dirpath, exist_ok=True)
    write_matrix_csv(os.path.join(dirpath, "U.csv"), model.U)
    write_matrix_csv(os.path.join(dirpath, "V.csv"), model.V)
    write_matrix_csv(os.path.join(dirpath, "W.csv"), model.W)
    write_tensor3(os.path.join(dirpath, "core.t3"), model.core)
    write_diagnostics(os.path.join(dirpath, "diagnostics.txt"),
                      dict(model.diagnostics))
    if model.diagnostics.get("sparse", False):
        for mode, factor in (("u", model.U), ("v", model.V), ("w", model.W)):
            mask = (factor != 0).astype(int)
            np.savetxt(os.path.join(dirpath, f"support_{mode}.csv"),
                       mask, fmt="%d", delimiter=",")


def load_tucker_model(dirpath):
    from .decompose import TuckerModel

    model = TuckerModel(
        U=read_matrix_csv(os.path.join(dirpath, "U.csv")),
        V=read_matrix_csv(os.path.join(dirpath, "V.csv")),
        W=read_matrix_csv(os.path.join(dirpath, "W.csv")),
        core=read_tensor3(os.path.join(dirpath, "core.t3")),
    )
    diag_path = os.path.join(dirpath, "diagnostics.txt")
    if os.path.exists(diag_path):
        model.diagnostics.update(read_diagnostics(diag_path))
    return model


def write_table_csv(path, header: list[str], rows) -> None:
    """Write a schema-stable CSV with a fixed header order."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")
