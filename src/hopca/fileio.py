"""File formats: ``.t3`` tensors, CSV matrices, and model directories.

The ``.t3`` text format stores a third-order tensor as a header line
``tensor3 n p q`` followed by whitespace-separated values in
mode-1-fastest order.  Writers emit 17 significant digits so round trips
are bit-exact; readers accept scientific notation.  The file order is
not the memory order: :func:`read_tensor3` returns a C-contiguous array,
the layout on which every contraction of the solvers takes reshape views
of the tensor instead of copying it.  Each side holds one tensor: the
writer puts a slab of mode-3 planes at a time into file order, and the
reader checks the header against the body's size, allocates the result
once and fills it block by block as it parses.  A body of 512 KiB
(``2 * _PART_BYTES``) and more is parsed in two halves at the same time
when more than one core is usable: the first in the caller, the second
in a forked child that writes its values in place, into a result that
lies on an anonymous shared mapping.  Every part and every block ends
at an ASCII whitespace byte, so no token is split and the values are
bit-exact, in one part or two and however the body is laid out on
lines.

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

import mmap
import os
import re
import signal
import warnings
from typing import Any

import numpy as np

from .decompose import CpModel, TuckerModel
from .tensor3 import check_tensor3

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
_WRITE_BLOCK = _VALUES_PER_LINE * 256  # values formatted at a time
_READ_BLOCK = 1 << 14  # bytes of .t3 body parsed at a time
# least .t3 body bytes per part: a second part costs about 2.5 ms to fork
# and reap, and two parts first beat one at a body of 300-550 kB
# (measured on a 2-core x86-64 box); more than two parts were not measured
_PART_BYTES = 1 << 18
_SCAN_BYTES = 64  # bytes read at a time to find a whitespace byte
_SPACE = re.compile(rb"\s")  # the ASCII whitespace bytes.split() splits at
_MODES = ("u", "v", "w")
_FACTOR_FILES = ("U.csv", "V.csv", "W.csv")


def write_tensor3(path, x) -> None:
    """Write a tensor to a ``.t3`` text file; a tensor with a zero-length
    mode is refused before the file is made."""
    x = check_tensor3(x)
    if not x.size:  # a .t3 header names positive dims only
        raise ValueError(f"no .t3 file holds a tensor of shape {x.shape}")
    n, p, q = x.shape
    # a slab of whole mode-3 planes (about _WRITE_BLOCK values) is copied
    # into file order at a time, not the whole tensor; one %-format per
    # line of eight gives the text of f"{v:.17g}" per value, and
    # converting a block at a time bounds the Python floats alive
    # (tolist() of a whole 100^3 tensor holds 32 MB of them); the values
    # of a partial line carry over to the next block
    planes = max(1, _WRITE_BLOCK // (n * p))
    row = " ".join(["%.17g"] * _VALUES_PER_LINE) + "\n"
    carry = []
    with open(path, "w") as fh:
        fh.write(f"tensor3 {n} {p} {q}\n")
        for k in range(0, q, planes):
            slab = x[:, :, k:k + planes].ravel(order="F")
            for start in range(0, slab.size, _WRITE_BLOCK):
                values = carry + slab[start:start + _WRITE_BLOCK].tolist()
                full = len(values) - len(values) % _VALUES_PER_LINE
                fh.write("".join([row % tuple(values[i:i + _VALUES_PER_LINE])
                                  for i in range(0, full, _VALUES_PER_LINE)]))
                carry = values[full:]
        if carry:
            fh.write(" ".join("%.17g" % v for v in carry) + "\n")


def _second_part_at(fd: int, start: int, end: int) -> int:
    """The offset of body ``[start, end)`` of file ``fd`` at which a second
    part starts: the first ASCII whitespace byte from the middle on, when
    the body holds two ``_PART_BYTES`` and more than one core is usable;
    else ``end`` (one part)."""
    if (end - start < 2 * _PART_BYTES or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return end
    return _space_at_or_after(fd, (start + end) // 2, end)


def _space_at_or_after(fd: int, pos: int, end: int) -> int:
    """The first offset in ``[pos, end)`` of file ``fd`` that holds an ASCII
    whitespace byte, or ``end``."""
    while pos < end:
        chunk = os.pread(fd, min(_SCAN_BYTES, end - pos), pos)
        if not chunk:
            break
        if found := _SPACE.search(chunk):
            return pos + found.start()
        pos += len(chunk)
    return end


def _parse(fd: int, lo: int, hi: int, room: int, more: str):
    """Yield the values of bytes ``[lo, hi)`` of file ``fd``, an array per
    block; more than ``room`` values raise ``more``.

    The bytes are read by ``os.pread`` (a forked child shares the file
    offset, not its reads) in blocks that end at whitespace, since a
    token list of the whole range would hold one object per value (about
    70 MB at 100^3); float() names a bad token, and bytes split faster
    than str.
    """
    while lo < hi:
        end = _space_at_or_after(fd, min(lo + _READ_BLOCK, hi), hi)
        tokens = os.pread(fd, end - lo, lo).split()
        room -= len(tokens)
        if room < 0:
            raise ValueError(more)
        yield np.fromiter(map(float, tokens), float, len(tokens))
        lo = end


def _parse_last(fd: int, lo: int, hi: int, more: str, flat) -> int:
    """Parse bytes ``[lo, hi)`` of file ``fd`` into the last values of
    ``flat``, in file order; their count.  More values than ``flat``
    holds raise ``more``."""
    blocks = list(_parse(fd, lo, hi, len(flat), more))
    got = sum(map(len, blocks))
    at = len(flat) - got
    for values in blocks:
        flat[at:at + len(values)] = values
        at += len(values)
    return got


def _fork_part(fd: int, lo: int, hi: int, more: str, flat, got) -> int:
    """Fork a child that parses bytes ``[lo, hi)`` of file ``fd`` into the
    last values of ``flat`` (:func:`_parse_last`), writes their count into
    ``got[0]`` and exits 0, or exits 1 on any error; the child's pid.
    Both arrays lie on a shared mapping, so the caller reads what the
    child wrote."""
    # CPython 3.12+ warns when a process with threads (here OpenBLAS's)
    # forks; the child runs only the parse loop, takes no lock another
    # thread can hold, and leaves by os._exit
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            got[0] = _parse_last(fd, lo, hi, more, flat)
            status = 0
        finally:
            os._exit(status)
    return pid


def read_tensor3(path) -> np.ndarray:
    """Read a tensor from a ``.t3`` text file, as a C-contiguous array.

    A body of two ``_PART_BYTES`` and more is parsed in two parts at the
    same time when more than one core is usable (``os.sched_getaffinity``):
    the first half in the caller, the second in a forked child.  Any
    other body (small, on one usable core, or on a platform without
    ``os.fork`` or ``os.sched_getaffinity``) is one part, and forks
    nothing.  The second part starts at an ASCII whitespace byte, so no
    token is split, and both parts run the same block loop
    (:func:`_parse`): the values are bit-exact, the bits a one-part read
    gives, and a bad token or a wrong count raises a ``ValueError``.
    Two parts fill an anonymous shared mapping: the caller puts its
    values first, the child its values last and their count in the slot
    after the tensor.  The caller reaps the child before it returns or
    raises; when the child failed or was killed, the caller parses that
    part itself, which raises the child's error or fills in its values.
    The result is the one tensor the caller holds.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().split()
        if len(header) != 4 or header[0] != "tensor3":
            raise ValueError(f"{path}: malformed .t3 header {header!r}")
        try:
            n, p, q = (int(t) for t in header[1:])
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer dims in header") from exc
        count, fd = n * p * q, fh.fileno()
        start, end = fh.tell(), os.fstat(fd).st_size
        # each value takes a digit and a separator, the last one a digit
        room = (end - start + 1) // 2
        if min(n, p, q) < 1 or count > room:
            raise ValueError(f"{path}: header dims {n} {p} {q} ask for "
                             f"{count} values; the body holds at most {room}")
        more = (f"{path}: expected {count} values for dims {(n, p, q)}, "
                "got more")
        mid = _second_part_at(fd, start, end)
        # two parts share their result and, in the slot after it, the
        # child's value count
        shared = (np.frombuffer(mmap.mmap(-1, 8 * (count + 1)), float)
                  if mid < end else np.empty(count + 1))
        x = shared[:count].reshape(n, p, q)
        # the file order is the C order of x.T
        flat, filled = x.T.flat, 0
        child = (_fork_part(fd, mid, end, more, flat, shared[count:])
                 if mid < end else None)
        try:
            for values in _parse(fd, start, mid, count, more):
                flat[filled:filled + len(values)] = values
                filled += len(values)
        except BaseException:
            if child:
                os.kill(child, signal.SIGKILL)
            raise
        finally:
            status = child and os.waitpid(child, 0)[1]
        if child:  # the part of a child that failed is parsed again here
            filled += (int(shared[count]) if status == 0
                       else _parse_last(fd, mid, end, more, flat))
    if filled != count:
        raise ValueError(more if filled > count else f"{path}: expected "
                         f"{count} values for dims {(n, p, q)}, got {filled}")
    return check_tensor3(x)


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
    if isinstance(value, (float, np.floating)):
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
