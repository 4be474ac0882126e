"""Variance explained, BIC penalty selection, and feature-recovery
metrics (true/false positive rates, signal MSE, ROC sweeps).

The variance-explained computation projects the tensor onto the span of
the first k factor columns per mode, which handles correlated (and even
zero) factor columns; for orthonormal factors it reduces to the squared
core norm over the squared tensor norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor3 import frob_norm, mode_mult

__all__ = [
    "VarianceReport",
    "variance_explained",
    "default_lambda_grid",
    "bic_path",
    "BicSelection",
    "bic_select",
    "RecoveryMetrics",
    "support_metrics",
    "signal_mse",
    "RocPoint",
    "roc_sweep",
    "roc_dominance_fraction",
]

_MODES = ("u", "v", "w")


# ---------------------------------------------------------------------------
# cumulative proportion of variance explained


@dataclass
class VarianceReport:
    """Cumulative variance-explained curve."""

    cumulative: np.ndarray


def _projection_matrix(cols: np.ndarray) -> np.ndarray:
    """Projection onto the column span, via an eigen-floored pseudo-inverse.

    Zero or collinear columns make the Gram matrix singular, so small
    eigenvalues are dropped rather than inverted.
    """
    if cols.size == 0 or not np.any(cols):
        return np.zeros((cols.shape[0], cols.shape[0]))
    gram = cols.T @ cols
    vals, vecs = np.linalg.eigh(gram)
    cutoff = 1e-12 * max(float(vals[-1]), 1.0)
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    pinv = (vecs * inv) @ vecs.T
    return cols @ pinv @ cols.T


def variance_explained(x, model, upto_k: int | None = None) -> VarianceReport:
    """Cumulative proportion of variance explained by the first k components.

    For each k the tensor is projected per mode onto the span of the
    first k factor columns and the squared-norm ratio is reported.  Works
    for any model exposing ``U``, ``V``, ``W`` (CP or Tucker style); for a
    Tucker model with unequal ranks each mode is capped at its own width.
    """
    norm_sq = frob_norm(x) ** 2
    if norm_sq == 0.0:
        raise ValueError("variance explained is undefined for a zero tensor")
    factors = (model.U, model.V, model.W)
    max_k = max(f.shape[1] for f in factors)
    upto_k = max_k if upto_k is None else int(upto_k)
    if not 1 <= upto_k <= max_k:
        raise ValueError(f"upto_k must be in [1, {max_k}], got {upto_k}")
    cumulative = np.zeros(upto_k)
    for k in range(1, upto_k + 1):
        pu, pv, pw = (_projection_matrix(f[:, :min(k, f.shape[1])])
                      for f in factors)
        projected = mode_mult(mode_mult(mode_mult(x, pu, 1), pv, 2), pw, 3)
        cumulative[k - 1] = frob_norm(projected) ** 2 / norm_sq
    return VarianceReport(cumulative)


# ---------------------------------------------------------------------------
# BIC selection of the regularization level


def default_lambda_grid(lam_max: float, num: int = 50,
                        floor: float = 1e-3) -> np.ndarray:
    """Zero plus a log-spaced grid from ``floor * lam_max`` to ``lam_max``.

    The zero entry lets noiseless instances select the unpenalized exact
    fit; on noisy data the nonzero-count term keeps it from winning.
    """
    if lam_max <= 0.0:
        return np.zeros(1)
    return np.concatenate([[0.0], np.geomspace(floor * lam_max, lam_max, num)])


def bic_path(norm_sq: float, size: int, contraction: np.ndarray,
             grid: np.ndarray, threshold: Callable | None = None,
             others_sq: float = 1.0):
    """BIC values along a penalty grid for one factor update.

    ``norm_sq`` is the squared norm of the (residual) tensor being fit
    and ``contraction`` the vector the update thresholds.  The implied
    rank-one fit collapses to ``norm_sq - (f @ c)^2 / others_sq`` for the
    normalized thresholded factor ``f``, where ``others_sq`` is the
    product of the squared norms of the two fixed factors.

    Returns ``(bic_values, nnz)`` arrays aligned with ``grid``.
    """
    if threshold is None:
        from .sparse import soft_threshold as threshold
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("penalty grid is empty")
    if np.any(grid < 0):
        raise ValueError("penalty values must be non-negative")
    values = np.zeros(grid.size)
    nnz = np.zeros(grid.size, dtype=int)
    log_size = np.log(size)
    for i, lam in enumerate(grid):
        f = threshold(contraction, lam)
        nn = int(np.count_nonzero(f))
        nnz[i] = nn
        if nn == 0 or others_sq <= 0.0:
            resid_sq = norm_sq
        else:
            f = f / np.linalg.norm(f)
            resid_sq = norm_sq - float(f @ contraction) ** 2 / others_sq
        values[i] = (np.log(max(resid_sq, 1e-300) / size)
                     + log_size / size * nn)
    return values, nnz


@dataclass
class BicSelection:
    lam: float
    bic_values: np.ndarray
    nnz: np.ndarray
    grid: np.ndarray


def bic_select(x_residual, contraction, grid, threshold: Callable | None = None,
               others_sq: float = 1.0) -> BicSelection:
    """Pick the penalty level minimizing BIC for one factor update.

    Ties are broken toward the larger (sparser) penalty.
    """
    norm_sq = frob_norm(x_residual) ** 2
    values, nnz = bic_path(norm_sq, int(np.asarray(x_residual).size),
                           np.asarray(contraction, dtype=float),
                           np.asarray(grid, dtype=float), threshold, others_sq)
    grid = np.asarray(grid, dtype=float)
    best = np.flatnonzero(values == values.min())[-1]
    return BicSelection(float(grid[best]), values, nnz, grid)


# ---------------------------------------------------------------------------
# support recovery and signal error


@dataclass
class RecoveryMetrics:
    """Per-component, per-mode support recovery plus signal error.

    ``tp``/``fp`` have shape (3, matched) with mode rows ordered u, v, w;
    a rate is NaN when its denominator is empty (a dense truth factor has
    no true zeros).  ``permutation[k]`` is the truth component matched to
    estimated component k and ``signs`` holds the per-mode cosine signs
    of each matched pair.
    """

    tp: np.ndarray
    fp: np.ndarray
    mse: float
    permutation: np.ndarray
    signs: np.ndarray
    matched: int
    k_mismatch: bool = False


def _safe_cosine(a, b) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def _greedy_match(est_factors, true_factors, k_est, k_true):
    score = np.zeros((k_est, k_true))
    for i in range(k_est):
        for j in range(k_true):
            score[i, j] = np.mean([abs(_safe_cosine(e[:, i], t[:, j]))
                                   for e, t in zip(est_factors, true_factors)])
    pairs = []
    available = score.copy()
    for _ in range(min(k_est, k_true)):
        i, j = np.unravel_index(np.argmax(available), available.shape)
        pairs.append((int(i), int(j)))
        available[i, :] = -np.inf
        available[:, j] = -np.inf
    pairs.sort()
    return pairs


def _true_supports(truth):
    supports = getattr(truth, "supports", None)
    if supports is not None:
        return [np.asarray(supports[m], dtype=bool) for m in _MODES]
    return [np.asarray(f != 0) for f in (truth.U, truth.V, truth.W)]


def support_metrics(estimated, truth) -> RecoveryMetrics:
    """TP/FP rates of the estimated supports after greedy cosine matching.

    TP is the fraction of truly nonzero entries estimated nonzero and FP
    the fraction of truly zero entries estimated nonzero, per matched
    component and mode.  Rates are invariant to component permutation and
    sign flips of the estimate.
    """
    metrics = _support_rates(estimated, truth)
    if getattr(truth, "x_signal", None) is not None and hasattr(
            estimated, "reconstruct"):
        metrics.mse = signal_mse(estimated, truth)
    return metrics


def _support_rates(estimated, truth) -> RecoveryMetrics:
    """``support_metrics`` without the reconstruction error (``mse`` NaN)."""
    est_factors = (estimated.U, estimated.V, estimated.W)
    true_factors = (truth.U, truth.V, truth.W)
    for e, t in zip(est_factors, true_factors):
        if e.shape[0] != t.shape[0]:
            raise ValueError("estimated and true factor dims differ")
    k_est = est_factors[0].shape[1]
    k_true = true_factors[0].shape[1]
    pairs = _greedy_match(est_factors, true_factors, k_est, k_true)
    supports = _true_supports(truth)
    matched = len(pairs)
    tp = np.full((3, matched), np.nan)
    fp = np.full((3, matched), np.nan)
    signs = np.zeros((3, matched))
    permutation = np.array([j for _, j in pairs], dtype=int)
    for col, (i, j) in enumerate(pairs):
        for m, (est, sup) in enumerate(zip(est_factors, supports)):
            est_nz = est[:, i] != 0
            true_nz = sup[:, j]
            n_true = int(np.sum(true_nz))
            n_zero = int(np.sum(~true_nz))
            if n_true:
                tp[m, col] = float(np.sum(est_nz & true_nz)) / n_true
            if n_zero:
                fp[m, col] = float(np.sum(est_nz & ~true_nz)) / n_zero
            signs[m, col] = np.sign(_safe_cosine(
                est_factors[m][:, i], true_factors[m][:, j])) or 1.0
    return RecoveryMetrics(tp, fp, np.nan, permutation, signs, matched,
                           k_mismatch=(k_est != k_true))


def signal_mse(estimated, truth) -> float:
    """Mean squared error of the reconstruction against the noise-free signal."""
    x_signal = truth.x_signal
    diff = estimated.reconstruct() - x_signal
    return float(np.sum(diff * diff)) / x_signal.size


# ---------------------------------------------------------------------------
# ROC sweeps over the regularization path


@dataclass
class RocPoint:
    lam: float
    mode: str
    component: int
    tp: float
    fp: float


def _thresholded_copy(model, modes: Sequence[str], fraction: float):
    import copy

    out = copy.deepcopy(model)
    for mode in modes:
        factor = getattr(out, {"u": "U", "v": "V", "w": "W"}[mode])
        for k in range(factor.shape[1]):
            col = factor[:, k]
            top = np.max(np.abs(col)) if np.any(col) else 0.0
            col[np.abs(col) <= fraction * top] = 0.0
    return out


# unregularized fits that the naive baselines threshold
_NAIVE_BASE = {"cp-naive": "cp-als", "tucker-naive": "hooi"}


def roc_sweep(x, truth, method: str, grid, cfg=None,
              modes: Sequence[str] | None = None) -> list[RocPoint]:
    """TP/FP pairs along a penalty grid for one method on one instance.

    Sparse methods are refit at every grid value (the grid is in penalty
    units); the naive baselines ``cp-naive`` and ``tucker-naive`` fit an
    unregularized model once and zero factor entries below each grid
    fraction of the column maximum.  Points are emitted for each
    penalized mode and component where both rates are defined.
    """
    from .decompose import SolverConfig
    from .simulate import METHODS
    from .sparse import PenaltySpec

    cfg = cfg or SolverConfig()
    grid = np.asarray(grid, dtype=float)
    k = int(np.asarray(truth.d).size)
    if modes is None:
        modes = [m for m, sup in zip(_MODES, _true_supports(truth))
                 if not np.all(sup)]
        modes = modes or list(_MODES)
    points: list[RocPoint] = []

    def collect(lam, model):
        metrics = _support_rates(model, truth)
        for m_idx, mode in enumerate(_MODES):
            if mode not in modes:
                continue
            for comp in range(metrics.matched):
                tp, fp = metrics.tp[m_idx, comp], metrics.fp[m_idx, comp]
                if np.isnan(fp):
                    continue
                points.append(RocPoint(float(lam), mode, comp,
                                       float(tp), float(fp)))

    if method in _NAIVE_BASE:
        base = METHODS[_NAIVE_BASE[method]].fit(x, k, cfg)
        for fraction in grid:
            collect(fraction, _thresholded_copy(base, modes, fraction))
        return points

    entry = METHODS.get(method)
    if entry is None or entry.penalty is None:
        raise ValueError(f"unknown ROC method {method!r}")
    for lam in grid:
        pen = PenaltySpec.lasso(**{m: (lam if m in modes else 0.0)
                                   for m in _MODES})
        collect(lam, entry.fit(x, k, cfg, pen))
    return points


def roc_dominance_fraction(fp_a, tp_a, fp_b, tp_b, slack: float = 1e-9) -> float:
    """Fraction of curve-a points whose TP is at least curve b's TP at the
    same FP (curve b linearly interpolated over FP)."""
    fp_a = np.asarray(fp_a, dtype=float)
    tp_a = np.asarray(tp_a, dtype=float)
    order = np.argsort(fp_b)
    fp_b = np.asarray(fp_b, dtype=float)[order]
    tp_b = np.asarray(tp_b, dtype=float)[order]
    wins = 0
    for fp, tp in zip(fp_a, tp_a):
        rival = np.interp(fp, fp_b, tp_b)
        if tp >= rival - slack:
            wins += 1
    return wins / max(fp_a.size, 1)
