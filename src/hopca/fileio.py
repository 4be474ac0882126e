"""File formats: ``.t3`` tensors, CSV matrices, and model directories.

The ``.t3`` text format stores a third-order tensor as a header line
``tensor3 n p q`` followed by whitespace-separated values in
mode-1-fastest order.  Writers emit 17 significant digits so round trips
are bit-exact; readers accept scientific notation.  The file order is
not the memory order: :func:`read_tensor3` returns a C-contiguous array,
the layout on which every contraction of the solvers takes reshape views
of the tensor instead of copying it.

A model directory, CP or Tucker alike, holds ``U.csv``, ``V.csv`` and
``W.csv`` (one column per component), the weights (``d.csv`` for a CP
model, ``core.t3`` for a Tucker model), the ``key=value`` lines of
``diagnostics.txt`` (scalars, and per-loop lists as comma-separated
values), ``trace.csv`` (component, update, objective; one ``component``
per loop, in run order) when the fit ran a loop, ``lambdas.csv`` (mode,
component, lambda) when it records penalty levels, and 0/1
``support_u.csv``, ``support_v.csv`` and ``support_w.csv`` masks for
sparse fits.
:func:`save_model` writes either kind and :func:`load_model` reads it
back by the weights file it finds.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from .decompose import CpModel, TuckerModel
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
    "save_model",
    "load_model",
    "save_cp_model",
    "load_cp_model",
    "save_tucker_model",
    "load_tucker_model",
    "write_table_csv",
]

_VALUES_PER_LINE = 8
_WRITE_BLOCK = _VALUES_PER_LINE * 1024  # values formatted at a time
_READ_BLOCK = 1 << 16  # bytes of .t3 body parsed at a time
_MODES = ("u", "v", "w")
_FACTOR_FILES = ("U.csv", "V.csv", "W.csv")


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
    """Read a tensor from a ``.t3`` text file, as a C-contiguous array."""
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
    x = tensor3(np.concatenate(blocks), (n, p, q))
    del blocks  # the one copy below then peaks at two tensors, not three
    return np.ascontiguousarray(x)


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
    """Write scalar diagnostics as flat ``key=value`` lines, and lists of
    scalars (a value per loop) as comma-separated values.

    Dicts, arrays, empty lists and lists holding containers (traces,
    per-mode levels) are skipped here; callers serialize those to
    dedicated CSVs.
    """
    with open(path, "w") as fh:
        for key in sorted(diagnostics):
            value = diagnostics[key]
            items = value if isinstance(value, (list, tuple)) else [value]
            if not items or any(isinstance(v, (dict, list, tuple, np.ndarray))
                                for v in items):
                continue
            fh.write(f"{key}={','.join(map(_format_value, items))}\n")


def read_diagnostics(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, _, value = line.partition("=")
                out[key] = value
    return out


def _save_model(dirpath, model, weights_file, write_weights, weights) -> None:
    os.makedirs(dirpath, exist_ok=True)
    factors = (model.U, model.V, model.W)
    for name, factor in zip(_FACTOR_FILES, factors):
        write_matrix_csv(os.path.join(dirpath, name), factor)
    write_weights(os.path.join(dirpath, weights_file), weights)
    diag = model.diagnostics
    write_diagnostics(os.path.join(dirpath, "diagnostics.txt"), diag)
    if diag.get("objective_traces"):
        rows = ((k, t, value)
                for k, trace in enumerate(diag["objective_traces"])
                for t, value in enumerate(
                    np.asarray(trace, dtype=float).ravel().tolist()))
        write_table_csv(os.path.join(dirpath, "trace.csv"),
                        ["component", "update", "objective"], rows)
    if "lambdas" in diag:
        rows = ((mode, k, float(lam)) for mode in _MODES
                for k, lam in enumerate(diag["lambdas"].get(mode, [])))
        write_table_csv(os.path.join(dirpath, "lambdas.csv"),
                        ["mode", "component", "lambda"], rows)
    if diag.get("sparse", False):
        for mode, factor in zip(_MODES, factors):
            np.savetxt(os.path.join(dirpath, f"support_{mode}.csv"),
                       (np.asarray(factor) != 0).astype(int), fmt="%d",
                       delimiter=",")


def _load_model(dirpath, cls, weights_file, read_weights):
    factors = [read_matrix_csv(os.path.join(dirpath, name))
               for name in _FACTOR_FILES]
    model = cls(*factors, read_weights(os.path.join(dirpath, weights_file)))
    diag_path = os.path.join(dirpath, "diagnostics.txt")
    if os.path.exists(diag_path):
        model.diagnostics.update(read_diagnostics(diag_path))
    return model


def save_cp_model(dirpath, model: CpModel) -> None:
    """Write a CP-style model to ``dirpath``; its weights go to ``d.csv``."""
    _save_model(dirpath, model, "d.csv", write_vector_csv, model.d)


def load_cp_model(dirpath) -> CpModel:
    return _load_model(dirpath, CpModel, "d.csv", read_vector_csv)


def save_tucker_model(dirpath, model: TuckerModel) -> None:
    """Write a Tucker-style model to ``dirpath``; its core goes to
    ``core.t3``."""
    _save_model(dirpath, model, "core.t3", write_tensor3, model.core)


def load_tucker_model(dirpath) -> TuckerModel:
    return _load_model(dirpath, TuckerModel, "core.t3", read_tensor3)


def save_model(dirpath, model: CpModel | TuckerModel) -> None:
    """Write a CP or a Tucker model to ``dirpath`` (see
    :func:`save_cp_model` and :func:`save_tucker_model`)."""
    tucker = isinstance(model, TuckerModel)
    (save_tucker_model if tucker else save_cp_model)(dirpath, model)


def load_model(dirpath) -> CpModel | TuckerModel:
    """Read the model :func:`save_model` wrote to ``dirpath``: a Tucker
    model when it holds ``core.t3``, else a CP model."""
    tucker = os.path.exists(os.path.join(dirpath, "core.t3"))
    return (load_tucker_model if tucker else load_cp_model)(dirpath)


def write_table_csv(path, header: list[str], rows) -> None:
    """Write a schema-stable CSV with a fixed header order."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")
