"""Variance explained, BIC penalty selection, and feature-recovery
metrics (true/false positive rates, signal MSE, ROC sweeps).

The variance-explained computation projects the tensor onto the span of
the first k factor columns per mode, which handles correlated (and even
zero) factor columns; for orthonormal factors it reduces to the squared
core norm over the squared tensor norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .tensor3 import _mode_mult3, frob_norm

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
        projected = _mode_mult3(x, pu, pv, pw)
        cumulative[k - 1] = frob_norm(projected) ** 2 / norm_sq
    return VarianceReport(cumulative)


# ---------------------------------------------------------------------------
# BIC selection of the regularization level


def default_lambda_grid(lam_max: float, num: int = 50) -> np.ndarray:
    """Zero plus a log-spaced grid from ``1e-3 * lam_max`` to ``lam_max``.

    The zero entry lets noiseless instances select the unpenalized exact
    fit; on noisy data the nonzero-count term keeps it from winning.
    """
    if lam_max <= 0.0:
        return np.zeros(1)
    return np.concatenate([[0.0], np.geomspace(1e-3 * lam_max, lam_max, num)])


def bic_path(norm_sq: float, size: int, contraction: np.ndarray,
             grid: np.ndarray, threshold: Callable):
    """BIC values along a penalty grid for one factor update.

    ``norm_sq`` is the squared norm of the (residual) tensor being fit
    and ``contraction`` the vector ``c`` the update thresholds with
    ``threshold(c, lam)``: the lasso's soft threshold or the non-negative
    lasso's positive threshold, whose entry i is ``max(a_i - lam, 0)``
    in the sign of ``c_i`` for ``a = |threshold(c, 0)|``.  With the two
    fixed factors of unit norm the implied rank-one fit collapses to
    ``norm_sq - (f @ c)^2`` for the normalized thresholded factor ``f``.

    The path is in closed form.  Over the ``nnz`` entries of ``a`` above
    ``lam``, with ``S2`` their sum of squares and ``M2`` their scatter
    about their mean ``mu``, Lagrange's identity gives ``(f @ c)^2 = S2 -
    lam^2 nnz M2 / ||f||^2`` with ``||f||^2 = M2 + nnz (mu - lam)^2``.
    One sort and three suffix sums give every level at once; the sums
    are taken of the entries' distances below the largest one, so
    entries just above a level lose no digits.  The sums and ``lam^2 nnz
    M2 / ||f||^2`` (a fourth power of the entries' scale) are formed on
    the entries and levels scaled by the power of two of the largest
    entry, and unscaled after.  Scaling by a power of two is exact: the
    bits are the unscaled form's wherever that neither overflows nor
    underflows, and no scale of ``c`` with a finite ``||c||^2`` does.

    Returns ``(bic_values, nnz)`` arrays aligned with ``grid``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("penalty grid is empty")
    if np.any(grid < 0):
        raise ValueError("penalty values must be non-negative")
    a = np.sort(np.abs(threshold(contraction, 0.0)))
    start = np.searchsorted(a, grid, side="right")
    exp = np.frexp(a[-1])[1]
    a, grid = np.ldexp(a, -exp), np.ldexp(grid, -exp)
    below = a[-1] - a
    # suffix sums of a^2, below and below^2; the last column is "none above"
    sums = np.zeros((3, a.size + 1))
    sums[:, :-1] = np.cumsum(np.stack([a * a, below, below * below])[:, ::-1],
                             axis=1)[:, ::-1]
    nnz = a.size - start
    s2, b1, b2 = sums[:, start]
    live = nnz > 0
    n = np.maximum(nnz, 1)
    scatter = np.maximum(b2 - b1 * b1 / n, 0.0)
    gap = a[-1] - grid - b1 / n  # mean entry above the level, less the level
    f_sq = np.where(live, scatter + n * gap * gap, 1.0)
    # (f @ c)^2, unscaled
    fc_sq = np.ldexp(s2 - grid * grid * n * scatter / f_sq, 2 * exp)
    resid_sq = np.where(live, norm_sq - fc_sq, norm_sq)
    return _bic(resid_sq, nnz, size), nnz


def _bic(resid_sq, nnz, size: int):
    """BIC of a fit with residual sum of squares ``resid_sq`` and ``nnz``
    free parameters on ``size`` observations (scalars or arrays)."""
    return (np.log(np.maximum(resid_sq, 1e-300) / size)
            + np.log(size) / size * nnz)


def _bic_argmin(values: np.ndarray) -> int:
    """Index of the least BIC value; ties go to the last index, which on
    an increasing grid is the larger (sparser) penalty."""
    return int(np.flatnonzero(values == values.min())[-1])


@dataclass
class BicSelection:
    lam: float
    bic_values: np.ndarray
    nnz: np.ndarray
    grid: np.ndarray


def bic_select(x_residual, contraction, grid) -> BicSelection:
    """Pick the soft-threshold level minimizing BIC for one factor update.

    Ties are broken toward the larger (sparser) penalty.
    """
    from .sparse import soft_threshold

    norm_sq = frob_norm(x_residual) ** 2
    values, nnz = bic_path(norm_sq, int(np.asarray(x_residual).size),
                           np.asarray(contraction, dtype=float),
                           np.asarray(grid, dtype=float), soft_threshold)
    grid = np.asarray(grid, dtype=float)
    return BicSelection(float(grid[_bic_argmin(values)]), values, nnz, grid)


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


def _cosines(est, true) -> np.ndarray:
    """Cosine of every (estimated, true) column pair of one mode, 0 where
    a column is zero.  Each entry is a sum over rows in row order, so it
    moves with its column and flips exactly with its sign."""
    dots = np.sum(est[:, :, None] * true[:, None, :], axis=0)
    norms = np.outer(np.linalg.norm(est, axis=0), np.linalg.norm(true, axis=0))
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0)


def _greedy_match(score, est_factors):
    """One-to-one (estimated, true) pairs by the ``score`` matrix, best
    first, as two index arrays in estimated order."""
    # an exact tie goes to the estimated column whose absolute entries
    # come first, a key that moves with the column and ignores signs
    keys = [tuple(col) for col in np.abs(np.concatenate(est_factors)).T]
    pairs, rows, cols = [], set(), set()
    for i, j in sorted(np.ndindex(score.shape),
                       key=lambda ij: (-score[ij], keys[ij[0]], ij[1])):
        if i not in rows and j not in cols:
            pairs.append((i, j))
            rows.add(i)
            cols.add(j)
    return np.array(sorted(pairs), dtype=int).reshape(-1, 2).T


def _rate(hits, pool) -> np.ndarray:
    """Per column, the fraction of ``pool`` entries that are ``hits``;
    NaN for an empty pool."""
    total = np.sum(pool, axis=0)
    return np.divide(np.sum(hits, axis=0), total,
                     out=np.full(total.shape, np.nan), where=total > 0)


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
    k_est = estimated.U.shape[1]
    est_factors = [f[:, :k_est] for f in (estimated.U, estimated.V,
                                          estimated.W)]
    true_factors = (truth.U, truth.V, truth.W)
    for e, t in zip(est_factors, true_factors):
        if e.shape[0] != t.shape[0]:
            raise ValueError("estimated and true factor dims differ")
    cosines = [_cosines(e, t) for e, t in zip(est_factors, true_factors)]
    rows, cols = _greedy_match(np.mean(np.abs(cosines), axis=0), est_factors)
    est_nz = [e[:, rows] != 0 for e in est_factors]
    true_nz = [sup[:, cols] for sup in _true_supports(truth)]
    tp = np.array([_rate(e & t, t) for e, t in zip(est_nz, true_nz)])
    fp = np.array([_rate(e & ~t, ~t) for e, t in zip(est_nz, true_nz)])
    signs = np.array([cos[rows, cols] for cos in cosines])
    return RecoveryMetrics(tp, fp, np.nan, cols,
                           np.where(signs == 0, 1.0, np.sign(signs)),
                           rows.size, k_mismatch=(k_est != truth.U.shape[1]))


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
    """A shallow copy of ``model`` whose factors in ``modes`` are zero
    where an entry is at most ``fraction`` of its column's largest
    magnitude."""
    factors = {}
    for name in map(str.upper, modes):
        mag = np.abs(getattr(model, name))
        factors[name] = np.where(mag <= fraction * np.max(mag, axis=0), 0.0,
                                 getattr(model, name))
    return replace(model, **factors)


# unregularized fits that the naive baselines threshold
_NAIVE_BASE = {"cp-naive": "cp-als", "tucker-naive": "hooi"}


def roc_sweep(x, truth, method: str, grid, cfg=None,
              modes: Sequence[str] | None = None) -> list[RocPoint]:
    """TP/FP pairs along a penalty grid for one method on one instance.

    Sparse methods are refit at every grid value (the grid is in penalty
    units); the naive baselines ``cp-naive`` and ``tucker-naive`` fit an
    unregularized model once and zero factor entries below each grid
    fraction of the column maximum.  All fits run in one
    :func:`hopca.decompose._shared_grams` block (the caller's, when
    ``x`` is the view of one), so the Gram eigendecompositions of the
    unfoldings of ``x`` and the SVD starts taken from them are computed
    once per sweep; the fits only read ``x``.  Points are emitted for
    each penalized mode and component where both rates are defined.
    """
    from .decompose import SolverConfig, _shared_grams
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

    with _shared_grams(x) as view:
        if method in _NAIVE_BASE:
            base = METHODS[_NAIVE_BASE[method]].fit(view, k, cfg)
            for fraction in grid:
                collect(fraction, _thresholded_copy(base, modes, fraction))
            return points
        entry = METHODS.get(method)
        if entry is None or entry.penalty is None:
            raise ValueError(f"unknown ROC method {method!r}")
        for lam in grid:
            pen = PenaltySpec.lasso(**{m: (lam if m in modes else 0.0)
                                       for m in _MODES})
            collect(lam, entry.fit(view, k, cfg, pen))
    return points


def roc_dominance_fraction(fp_a, tp_a, fp_b, tp_b) -> float:
    """Fraction of curve-a points whose TP is at least curve b's TP, less
    1e-9, at the same FP (curve b linearly interpolated over FP)."""
    fp_a = np.asarray(fp_a, dtype=float)
    tp_a = np.asarray(tp_a, dtype=float)
    order = np.argsort(fp_b)
    fp_b = np.asarray(fp_b, dtype=float)[order]
    tp_b = np.asarray(tp_b, dtype=float)[order]
    wins = np.count_nonzero(tp_a >= np.interp(fp_a, fp_b, tp_b) - 1e-9)
    return int(wins) / max(fp_a.size, 1)
