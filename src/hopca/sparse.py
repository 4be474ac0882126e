"""Sparse decompositions: the deflation-based soft-thresholding scheme
(sparse rank-one fits with guaranteed monotone ascent), plus the three
algorithmic baselines built from penalized PCA updates (sparse ALS,
sparse HOSVD, sparse HOOI).

The baselines run the one ALS loop and the one Tucker loop of
:mod:`hopca.decompose` with a penalized step (lasso, penalized PCA) in
each penalized mode; at zero penalty they are CP-ALS, HOSVD and HOOI.

Penalty levels may be fixed per mode or selected per component and per
update by BIC over a grid.  Factors returned by every routine either
have unit norm or are exactly zero; a zero factor ends its component
with weight zero and deflation subtracts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decompose import (
    CpModel,
    PenaltyFn,
    RankOneFit,
    SolverConfig,
    TuckerModel,
    _NO_PENALTY,
    _als,
    _engine_fit,
    _ModeUpdate,
    _rank_one,
    _tucker,
    deflate,
    leading_singular_vectors,
    normalize_or_zero,
)
from .evaluate import bic_path, default_lambda_grid
from .tensor3 import check_tensor3, frob_norm

__all__ = [
    "soft_threshold",
    "ModePenalty",
    "PenaltySpec",
    "SparseDiagnostics",
    "sparse_cp_tpa_rank_one",
    "sparse_cp_tpa",
    "lasso_coordinate_descent",
    "sparse_cp_als",
    "SparsePcaFit",
    "sparse_pca_rank_one",
    "sparse_pca",
    "sparse_hosvd",
    "sparse_hooi",
]

_TINY = 1e-300


def soft_threshold(x, lam: float):
    """Elementwise ``sign(x) * max(|x| - lam, 0)``."""
    if lam < 0:
        raise ValueError("threshold level must be non-negative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def positive_threshold(x, lam: float):
    """Elementwise ``max(x - lam, 0)``: sparsity plus non-negativity."""
    if lam < 0:
        raise ValueError("threshold level must be non-negative")
    return np.maximum(np.asarray(x, dtype=float) - lam, 0.0)


def l1_penalty() -> PenaltyFn:
    return PenaltyFn("l1", lambda x: float(np.sum(np.abs(x))), soft_threshold)


def nonneg_l1_penalty() -> PenaltyFn:
    def evaluate(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            return np.inf
        return float(np.sum(x))

    return PenaltyFn("nonneg_l1", evaluate, positive_threshold)


_KIND_PENALTY = {"none": _NO_PENALTY, "lasso": l1_penalty(),
                 "nonneg_lasso": nonneg_l1_penalty()}


@dataclass
class ModePenalty:
    """Regularization for one mode: a kind plus a fixed level or a grid.

    ``lam`` may be a non-negative scalar (fixed level), a strictly
    increasing grid (BIC-selected per component), or None, which selects
    over the default grid anchored at the update's zeroing level.
    """

    kind: str = "none"
    lam: float | Sequence[float] | None = None

    def __post_init__(self):
        if self.kind not in _KIND_PENALTY:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "none":
            self.lam = None
            return
        if self.lam is None:
            return
        if np.isscalar(self.lam):
            if self.lam < 0:
                raise ValueError("lambda must be non-negative")
            self.lam = float(self.lam)
        else:
            grid = np.asarray(self.lam, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("lambda grid must be a non-empty vector")
            if np.any(grid < 0):
                raise ValueError("lambda grid must be non-negative")
            if grid.size > 1 and not np.all(np.diff(grid) > 0):
                raise ValueError("lambda grid must be strictly increasing")
            self.lam = grid

    @property
    def is_adaptive(self) -> bool:
        return self.kind != "none" and not np.isscalar(self.lam)

    def fixed_level(self) -> float:
        return 0.0 if self.kind == "none" else float(self.lam)

    def grid_for(self, contraction: np.ndarray) -> np.ndarray:
        if self.lam is not None:
            return np.asarray(self.lam, dtype=float)
        lam_max = float(np.max(np.abs(contraction))) if np.any(contraction) else 0.0
        return default_lambda_grid(lam_max)


@dataclass
class PenaltySpec:
    """Per-mode regularization description for the sparse solvers."""

    u: ModePenalty = field(default_factory=ModePenalty)
    v: ModePenalty = field(default_factory=ModePenalty)
    w: ModePenalty = field(default_factory=ModePenalty)

    @classmethod
    def none(cls) -> "PenaltySpec":
        return cls()

    @classmethod
    def lasso(cls, u=None, v=None, w=None, kind: str = "lasso") -> "PenaltySpec":
        """Lasso penalties per mode.

        A value of None leaves the mode unpenalized, a scalar fixes the
        level, a grid (or the string ``"bic"``) selects by BIC.
        """
        def make(value):
            if value is None:
                return ModePenalty("none")
            if isinstance(value, str):
                if value != "bic":
                    raise ValueError(f"unknown penalty value {value!r}")
                return ModePenalty(kind, None)
            return ModePenalty(kind, value)

        return cls(make(u), make(v), make(w))

    def by_mode(self) -> dict[str, ModePenalty]:
        return {"u": self.u, "v": self.v, "w": self.w}


@dataclass
class SparseDiagnostics:
    """Structured per-component audit data from a sparse solve."""

    iterations: list[int]
    objective_traces: list[np.ndarray]
    nnz: dict[str, list[int]]
    lambdas: dict[str, list[float]]

    @classmethod
    def from_model(cls, model) -> "SparseDiagnostics":
        diag = model.diagnostics
        return cls(list(diag.get("iterations_per_component", [])),
                   list(diag.get("objective_traces", [])),
                   dict(diag.get("nnz", {})),
                   dict(diag.get("lambdas", {})))


# ---------------------------------------------------------------------------
# deflation scheme: thresholded rank-one fits


def _mode_updates(pen: PenaltySpec):
    """Engine updates for a penalty spec: the kind's prox at the fixed
    level, or at the level BIC selects on every update."""
    return tuple(_ModeUpdate(_KIND_PENALTY[p.kind],
                             0.0 if p.is_adaptive else p.fixed_level(),
                             p.grid_for if p.is_adaptive else None)
                 for p in (pen.u, pen.v, pen.w))


def sparse_cp_tpa_rank_one(x, lam=(0.0, 0.0, 0.0),
                           cfg: SolverConfig | None = None) -> RankOneFit:
    """Single sparse rank-one fit at fixed soft-threshold levels.

    With all levels zero this reproduces the unregularized power scheme
    update for update.  An all-zero thresholded factor at a positive level
    terminates the component with weight zero (a defined outcome, not an
    error); at level zero it restarts the fit from a random start.
    """
    x = check_tensor3(x)
    cfg = cfg or SolverConfig()
    lam_u, lam_v, lam_w = (float(v) for v in lam)
    pen = PenaltySpec(ModePenalty("lasso", lam_u), ModePenalty("lasso", lam_v),
                      ModePenalty("lasso", lam_w))
    return _rank_one(x, _mode_updates(pen), cfg, cfg.rng())


def sparse_cp_tpa(x, K: int, pen: PenaltySpec | None = None,
                  cfg: SolverConfig | None = None) -> CpModel:
    """Deflation scheme: K sparse rank-one fits on running residuals.

    Penalty levels come from ``pen`` per mode: fixed scalars are shared
    across components, grids (or None with kind set) are re-selected per
    component and update by BIC.  A zero component truncates the model
    with the remaining columns zero-filled and flagged.
    """
    cfg = cfg or SolverConfig()
    model = deflate(x, K, _engine_fit(_mode_updates(pen or PenaltySpec.none()),
                                      cfg), cfg, "sparse-cp-tpa")
    model.diagnostics["sparse"] = True
    return model


# ---------------------------------------------------------------------------
# sparse alternating least squares


def lasso_coordinate_descent(gram, corr, lam: float, tol: float = 1e-8,
                             max_iter: int = 1000,
                             warm: np.ndarray | None = None) -> np.ndarray:
    """Row-separable lasso on the Gram form by cyclic coordinate descent.

    Solves ``min 0.5 ||Y - C @ H.T||_F^2 + lam * ||C||_1`` given
    ``gram = H.T @ H`` and ``corr = Y @ H``, sweeping columns until the
    largest coefficient change is below ``tol``.  A zero Gram diagonal
    (dead regressor) pins its column to zero.
    """
    gram = np.asarray(gram, dtype=float)
    corr = np.asarray(corr, dtype=float)
    k = gram.shape[0]
    coef = np.zeros_like(corr) if warm is None else np.array(warm, dtype=float)
    diag = np.diag(gram)
    for _sweep in range(max_iter):
        delta = 0.0
        for j in range(k):
            r = corr[:, j] - coef @ gram[:, j] + coef[:, j] * diag[j]
            new = (soft_threshold(r, lam) / diag[j] if diag[j] > _TINY
                   else np.zeros_like(r))
            step = float(np.max(np.abs(new - coef[:, j]))) if new.size else 0.0
            delta = max(delta, step)
            coef[:, j] = new
        if delta <= tol:
            break
    return coef


def _mode_steps(pen: PenaltySpec, make):
    """Per-mode steps of a shared loop: ``make(mode_penalty)`` for each
    penalized mode, None (the exact unpenalized step) for the rest."""
    return tuple(None if p.kind == "none" else make(p)
                 for p in (pen.u, pen.v, pen.w))


def _lasso_step(mode_pen: ModePenalty, norm_sq: float, size: int):
    """ALS step for one penalized mode: the whole-factor lasso at the fixed
    level, or at the level BIC selects over the mode's grid (descending,
    each solve warm-started from the previous one)."""
    if not mode_pen.is_adaptive:
        level = mode_pen.fixed_level()
        return lambda gram, corr, warm: (
            lasso_coordinate_descent(gram, corr, level, warm=warm), level)
    log_size = np.log(size)

    def step(gram, corr, warm):
        grid = mode_pen.grid_for(corr)
        best = (np.inf, 0.0, None)
        coef = warm
        for lam in np.sort(grid)[::-1]:
            lam = float(lam)
            coef = lasso_coordinate_descent(gram, corr, lam, warm=coef)
            resid_sq = (norm_sq - 2.0 * float(np.sum(coef * corr))
                        + float(np.sum((coef @ gram) * coef)))
            bic = (np.log(max(resid_sq, 1e-300) / size)
                   + log_size / size * np.count_nonzero(coef))
            # descending grid: strict improvement keeps ties at larger lam
            if bic < best[0]:
                best = (bic, lam, coef.copy())
        return best[2], best[1]

    return step


def sparse_cp_als(x, K: int, pen: PenaltySpec | None = None,
                  cfg: SolverConfig | None = None) -> CpModel:
    """Alternating lasso updates of the CP factors.

    Each penalized mode minimizes the Khatri-Rao least squares loss with
    an l1 penalty on the scaled factor, then rescales columns to unit norm
    (zero columns allowed); an unpenalized mode takes the exact
    least-squares update of :func:`cp_als`.  This recipe optimizes no
    joint objective, so iteration is capped and a stall criterion applied;
    the penalized objective trace is reported without any monotonicity
    claim.
    """
    x = check_tensor3(x)
    pen = pen or PenaltySpec.none()
    for mode_pen in pen.by_mode().values():
        if mode_pen.kind == "nonneg_lasso":
            raise ValueError("sparse_cp_als supports only lasso penalties")
    norm_sq = frob_norm(x) ** 2
    model = _als(x, K, cfg or SolverConfig(), "sparse-cp-als", _mode_steps(
        pen, lambda p: _lasso_step(p, norm_sq, x.size)))
    model.diagnostics["sparse"] = True
    return model


# ---------------------------------------------------------------------------
# penalized rank-one SVD and the sparse Tucker baselines


@dataclass
class SparsePcaFit:
    """Penalized rank-one SVD result from alternating soft-thresholding."""

    u: np.ndarray
    v: np.ndarray
    d: float
    iterations: int = 0
    converged: bool = False
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lam_left: float = 0.0
    lam_right: float = 0.0


def _sparse_pca_engine(m, left_pen: ModePenalty, lam_right, cfg,
                       norm_sq=None) -> SparsePcaFit:
    threshold = _KIND_PENALTY[left_pen.kind].prox
    adaptive = left_pen.is_adaptive
    if adaptive and norm_sq is None:
        norm_sq = float(np.sum(m * m))
    lam_left = 0.0 if adaptive else left_pen.fixed_level()
    v = leading_singular_vectors(m.T, 1)[:, 0]
    u = np.zeros(m.shape[0])
    trace = []
    prev = None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        c = m @ v
        if adaptive:
            grid = left_pen.grid_for(c)
            values, _ = bic_path(norm_sq, m.size, c, grid, threshold)
            lam_left = float(grid[np.flatnonzero(values == values.min())[-1]])
        u, nrm = normalize_or_zero(threshold(c, lam_left))
        if nrm == 0.0:
            return SparsePcaFit(np.zeros(m.shape[0]), np.zeros(m.shape[1]),
                                0.0, iterations, True, np.asarray(trace),
                                lam_left, lam_right)
        trace.append(float(u @ c) - lam_left * float(np.sum(np.abs(u)))
                     - lam_right * float(np.sum(np.abs(v))))
        cv = m.T @ u
        v, nrm = normalize_or_zero(soft_threshold(cv, lam_right))
        if nrm == 0.0:
            return SparsePcaFit(np.zeros(m.shape[0]), np.zeros(m.shape[1]),
                                0.0, iterations, True, np.asarray(trace),
                                lam_left, lam_right)
        objective = (float(v @ cv) - lam_left * float(np.sum(np.abs(u)))
                     - lam_right * float(np.sum(np.abs(v))))
        trace.append(objective)
        if prev is not None and abs(objective - prev) <= cfg.tol * max(
                abs(prev), _TINY):
            converged = True
            break
        prev = objective
    d = float(u @ m @ v)
    return SparsePcaFit(u, v, d, iterations, converged, np.asarray(trace),
                        lam_left, lam_right)


def sparse_pca_rank_one(m, lam_left: float = 0.0, lam_right: float = 0.0,
                        cfg: SolverConfig | None = None) -> SparsePcaFit:
    """Rank-one penalized SVD by alternating soft-thresholding.

    With both levels zero this converges to the leading singular pair; a
    fully thresholded factor terminates with weight zero.
    """
    m = np.asarray(m, dtype=float)
    cfg = cfg or SolverConfig()
    return _sparse_pca_engine(m, ModePenalty("lasso", float(lam_left)),
                              float(lam_right), cfg)


def sparse_pca(m, k: int, left_pen: ModePenalty, lam_right: float = 0.0,
               cfg: SolverConfig | None = None):
    """First k penalized principal components with rank-one deflation.

    Returns (left factors, right factors, weights, per-component lambdas).
    """
    m = np.asarray(m, dtype=float).copy()
    cfg = cfg or SolverConfig()
    left = np.zeros((m.shape[0], k))
    right = np.zeros((m.shape[1], k))
    d = np.zeros(k)
    lams = []
    for comp in range(k):
        fit = _sparse_pca_engine(m, left_pen, lam_right, cfg,
                                 float(np.sum(m * m)))
        lams.append(fit.lam_left)
        if fit.d == 0.0:
            break
        left[:, comp], right[:, comp], d[comp] = fit.u, fit.v, fit.d
        m = m - fit.d * np.outer(fit.u, fit.v)
    return left, right, d, lams


def _pca_step(mode_pen: ModePenalty, cfg: SolverConfig):
    """Tucker step for one penalized mode: the left factors of
    :func:`sparse_pca` with the chosen level per component."""
    def step(m, k):
        left, _, _, lams = sparse_pca(m, k, mode_pen, 0.0, cfg)
        return left, lams

    return step


def sparse_hosvd(x, ranks, pen: PenaltySpec | None = None,
                 cfg: SolverConfig | None = None) -> TuckerModel:
    """Tucker-style factors from penalized PCA of each unfolding.

    Factor columns of a penalized mode are the left vectors of successive
    penalized rank-one SVDs (deflated), so they are sparse and generally
    not orthonormal; an unpenalized mode takes the leading singular
    vectors, as :func:`hosvd` does.
    """
    cfg = cfg or SolverConfig()
    model = _tucker(x, ranks, "sparse-hosvd", _mode_steps(
        pen or PenaltySpec.none(), lambda p: _pca_step(p, cfg)))
    model.diagnostics["sparse"] = True
    return model


def sparse_hooi(x, ranks, pen: PenaltySpec | None = None,
                cfg: SolverConfig | None = None) -> TuckerModel:
    """Orthogonal-iteration variant with penalized PCA inside each sweep.

    Convergence is not guaranteed, so iteration is capped and the sweep
    with the largest core norm is returned along with the full trace.
    """
    cfg = cfg or SolverConfig()
    model = _tucker(x, ranks, "sparse-hooi", _mode_steps(
        pen or PenaltySpec.none(), lambda p: _pca_step(p, cfg)), cfg)
    model.diagnostics["sparse"] = True
    return model
