"""Dense third-order tensor container and the multilinear algebra primitives.

A third-order tensor is represented as a ``numpy.ndarray`` of shape
``(n, p, q)``.  The linear layout convention used everywhere in this
package (matricization fibers, the ``.t3`` file format, Khatri-Rao
products) is mode-1-fastest: the value at index ``(i, j, k)`` lives at
flat offset ``i + n*j + n*p*k``, i.e. Fortran order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tensor3",
    "check_tensor3",
    "matricize",
    "fold",
    "mode_mult",
    "contract_vec",
    "khatri_rao",
    "outer3",
    "frob_norm",
    "qnorm3",
]

_MODES = (1, 2, 3)


def tensor3(values, dims=None) -> np.ndarray:
    """Build a validated third-order tensor.

    Parameters
    ----------
    values : array_like
        Either an array of shape ``(n, p, q)`` or a flat sequence of
        ``n*p*q`` values in mode-1-fastest order.
    dims : tuple of int, optional
        ``(n, p, q)``; required when ``values`` is flat.

    Returns
    -------
    numpy.ndarray of shape ``(n, p, q)``, dtype float64; C-contiguous
    when built from a flat sequence, the layout on which the solvers'
    contractions take reshape views instead of copies.
    """
    x = np.asarray(values, dtype=float)
    if dims is not None:
        n, p, q = (int(d) for d in dims)
        if min(n, p, q) < 1:
            raise ValueError(f"dims must be positive, got {dims}")
        if x.size != n * p * q:
            raise ValueError(
                f"expected {n * p * q} values for dims {dims}, got {x.size}"
            )
        x = np.ascontiguousarray(x.reshape((n, p, q), order="F"))
    return check_tensor3(x)


def check_tensor3(x) -> np.ndarray:
    """Validate a third-order tensor: 3 axes, all entries finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise ValueError(f"expected a 3-way array, got ndim={x.ndim}")
    # min and max propagate a NaN and reach an infinity, and unlike
    # np.isfinite(x) they need no temporary the size of x
    if not (np.isfinite(x.min(initial=0.0))
            and np.isfinite(x.max(initial=0.0))):
        raise ValueError("tensor entries must be finite (no NaN/Inf)")
    return x


def _check_mode(mode: int) -> int:
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return mode - 1


def matricize(x: np.ndarray, mode: int) -> np.ndarray:
    """Unfold a tensor into a matrix along one mode.

    Mode 1 yields shape ``(n, p*q)`` with entry ``(i, j + p*k) = x[i, j, k]``;
    modes 2 and 3 cycle the remaining indices in the same fiber order
    (mode 2: ``(j, i + n*k)``, mode 3: ``(k, i + n*j)``).  On the
    C-contiguous tensors :func:`tensor3` returns this is a copy of ``x``.
    The solvers' Grams, SVD starts and penalized PCAs do not depend on the
    column order, so they read modes 1 and 3 through reshape views with
    the columns in another order (``hopca.decompose._unfolding``); this
    layout stays the reference, and mode 2's unfolding where one is
    formed.
    """
    ax = _check_mode(mode)
    x = np.asarray(x)
    return np.moveaxis(x, ax, 0).reshape(x.shape[ax], -1, order="F")


def fold(m: np.ndarray, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`matricize` for the given mode and target dims."""
    ax = _check_mode(mode)
    n, p, q = (int(d) for d in dims)
    m = np.asarray(m, dtype=float)
    rest = [d for i, d in enumerate((n, p, q)) if i != ax]
    if m.shape != ((n, p, q)[ax], rest[0] * rest[1]):
        raise ValueError(
            f"matrix shape {m.shape} inconsistent with mode {mode} and dims {dims}"
        )
    t = m.reshape(((n, p, q)[ax], rest[0], rest[1]), order="F")
    return np.moveaxis(t, 0, ax)


def mode_mult(x: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply a matrix along one tensor mode.

    The result replaces ``dims[mode]`` by ``m.shape[0]`` and equals
    ``fold(m @ matricize(x, mode), mode, ...)``.
    """
    ax = _check_mode(mode)
    x = np.asarray(x)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != x.shape[ax]:
        raise ValueError(
            f"matrix shape {m.shape} does not match mode-{mode} dim {x.shape[ax]}"
        )
    return np.moveaxis(np.tensordot(m, x, axes=(1, ax)), 0, ax)


def _mode_mult3(x: np.ndarray, a: np.ndarray, b: np.ndarray,
                c: np.ndarray) -> np.ndarray:
    """``x x1 a x2 b x3 c``: :func:`mode_mult` by mode 1, then 2, then 3."""
    return mode_mult(mode_mult(mode_mult(x, a, 1), b, 2), c, 3)


def contract_vec(x: np.ndarray, v: np.ndarray, mode: int) -> np.ndarray:
    """Contract a vector along one mode, reducing the order by one."""
    ax = _check_mode(mode)
    x = np.asarray(x)
    v = np.asarray(v, dtype=float).ravel()
    if v.size != x.shape[ax]:
        raise ValueError(
            f"vector length {v.size} does not match mode-{mode} dim {x.shape[ax]}"
        )
    return np.tensordot(x, v, axes=(ax, 0))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product: column k is ``kron(a[:, k], b[:, k])``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], -1)


def outer3(u, v, w, weight: float = 1.0) -> np.ndarray:
    """Rank-one tensor with entries ``weight * u[i] * v[j] * w[k]``."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    return weight * u[:, None, None] * v[None, :, None] * w[None, None, :]


def frob_norm(x: np.ndarray) -> float:
    """Frobenius norm: square root of the sum of squared entries."""
    flat = np.asarray(x, dtype=float).ravel(order="K")
    return float(np.sqrt(np.dot(flat, flat)))


def qnorm3(x: np.ndarray, q1: np.ndarray, q2: np.ndarray, q3: np.ndarray) -> float:
    """Quadratic norm weighted by one PSD operator per mode.

    Computes ``sqrt(<x~, x>)`` with ``x~ = x ×1 q1 ×2 q2 ×3 q3``; equal to
    :func:`frob_norm` when all operators are identities.  A materially
    negative inner value signals a non-PSD operator and raises.
    """
    x = check_tensor3(x)
    xt = _mode_mult3(x, q1, q2, q3)
    inner = float(np.sum(xt * x))
    tol = 1e-10 * max(1.0, float(np.sum(x * x)))
    if inner < -tol:
        raise ValueError(
            f"quadratic form is negative ({inner:g}); operators are not PSD"
        )
    return float(np.sqrt(max(inner, 0.0)))
