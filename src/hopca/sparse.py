"""Sparse decompositions: the deflation-based soft-thresholding scheme
(sparse rank-one fits whose objective ascends monotonically at fixed
levels), plus the three algorithmic baselines built from penalized
updates (sparse ALS, sparse HOSVD, sparse HOOI).

Every solver is one call of a shared loop of :mod:`hopca.decompose`,
which checks the tensor, defaults the config and labels the fit.  The
rank-one fit and the deflation scheme give the rank-one engine one
soft-thresholding update per mode (:func:`_mode_update`).  The baselines
run the one ALS loop and the one Tucker loop with a penalized step
(lasso, penalized PCA) in each penalized mode; at zero penalty they are
CP-ALS, HOSVD and HOOI.  The penalized PCA is the matrix case of the
engine: a (left, right) pair of the same updates, whose levels and
penalties the engine's own helpers pick and score, and whose deflation
is implicit as the engine's is (:class:`_Deflated`).

Penalty levels may be fixed per mode or selected per component and per
update by BIC over a grid.  Factors returned by every routine either
have unit norm or are exactly zero; a zero factor ends its component
with weight zero and deflation subtracts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .decompose import (
    CpModel,
    PenaltyFn,
    RankOneFit,
    SolverConfig,
    TuckerModel,
    _NO_PENALTY,
    _GRAM_RCOND,
    _als,
    _column_signs,
    _cp_norm_sq,
    _fit_greedy,
    _fit_rank_one,
    _level,
    _Loop,
    _ModeUpdate,
    _gram,
    _penalty,
    _reject_unread,
    _tucker,
    _updated_top,
    leading_singular_vectors,
    normalize_or_zero,
)
from .evaluate import _bic, _bic_argmin, default_lambda_grid

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
_EPS = np.finfo(float).eps


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
        """The mode's level (0 when unpenalized); ValueError for a grid."""
        if self.is_adaptive:
            raise ValueError("this method takes fixed penalty levels, "
                             "not a grid")
        return 0.0 if self.kind == "none" else float(self.lam)

    def grid_for(self, contraction: np.ndarray) -> np.ndarray:
        """The levels to select over: the given level or grid, or the
        default grid anchored at the zeroing level of ``contraction``."""
        if self.lam is not None:
            return np.atleast_1d(np.asarray(self.lam, dtype=float))
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
        return cls(list(diag.get("iterations", [])),
                   list(diag.get("objective_traces", [])),
                   dict(diag.get("nnz", {})),
                   dict(diag.get("lambdas", {})))


# ---------------------------------------------------------------------------
# deflation scheme: thresholded rank-one fits


def _mode_update(p: ModePenalty) -> _ModeUpdate:
    """The engine update of one mode's penalty: the kind's prox at the
    fixed level, or at the level BIC selects on every update."""
    return _ModeUpdate(_KIND_PENALTY[p.kind],
                       0.0 if p.is_adaptive else p.fixed_level(),
                       p.grid_for if p.is_adaptive else None)


def _mode_updates(pen: PenaltySpec):
    """Engine updates for a penalty spec, one per mode."""
    return tuple(_mode_update(p) for p in (pen.u, pen.v, pen.w))


def sparse_cp_tpa_rank_one(x, lam=(0.0, 0.0, 0.0),
                           cfg: SolverConfig | None = None) -> RankOneFit:
    """Single sparse rank-one fit at fixed soft-threshold levels.

    With all levels zero this reproduces the unregularized power scheme
    update for update.  An all-zero thresholded factor at a positive level
    terminates the component with weight zero (a defined outcome, not an
    error); at level zero it restarts the fit from a random start.
    """
    lam_u, lam_v, lam_w = (float(v) for v in lam)
    pen = PenaltySpec.lasso(lam_u, lam_v, lam_w)
    return _fit_rank_one(x, _mode_updates(pen), cfg)


def sparse_cp_tpa(x, K: int, pen: PenaltySpec | None = None,
                  cfg: SolverConfig | None = None) -> CpModel:
    """Deflation scheme: K sparse rank-one fits on running residuals.

    Penalty levels come from ``pen`` per mode: fixed scalars are shared
    across components, grids (or None with kind set) are re-selected per
    component and update by BIC.  A zero component truncates the model
    with the remaining columns zero-filled and flagged.
    """
    return _fit_greedy(x, K, _mode_updates(pen or PenaltySpec.none()), cfg,
                       "sparse-cp-tpa", sparse=True)


# ---------------------------------------------------------------------------
# sparse alternating least squares


def lasso_coordinate_descent(gram, corr, lam: float,
                             warm: np.ndarray | None = None) -> np.ndarray:
    """Row-separable lasso on the Gram form by cyclic coordinate descent.

    Solves ``min 0.5 ||Y - C @ H.T||_F^2 + lam * ||C||_1`` given
    ``gram = H.T @ H`` and ``corr = Y @ H``, sweeping columns (at most
    1000 times) until the largest coefficient change is below 1e-8.  A
    zero Gram diagonal (dead regressor) pins its column to zero.
    """
    gram = np.asarray(gram, dtype=float)
    corr = np.asarray(corr, dtype=float)
    k = gram.shape[0]
    coef = np.zeros_like(corr) if warm is None else np.array(warm, dtype=float)
    diag = np.diag(gram)
    for _sweep in range(1000):
        delta = 0.0
        for j in range(k):
            r = corr[:, j] - coef @ gram[:, j] + coef[:, j] * diag[j]
            new = (soft_threshold(r, lam) / diag[j] if diag[j] > _TINY
                   else np.zeros_like(r))
            step = float(np.max(np.abs(new - coef[:, j]))) if new.size else 0.0
            delta = max(delta, step)
            coef[:, j] = new
        if delta <= 1e-8:
            break
    return coef


def _mode_steps(pen: PenaltySpec, make):
    """Per-mode steps of a shared loop: ``make(mode_penalty)`` for each
    penalized mode, None (the exact unpenalized step) for the rest."""
    return tuple(None if p.kind == "none" else make(p)
                 for p in (pen.u, pen.v, pen.w))


def _lasso_step(mode_pen: ModePenalty, norm_sq: float, size: int):
    """ALS step for one penalized mode: the whole-factor lasso at the fixed
    level, or at the level BIC selects over the mode's grid (solved in
    descending order, each solve warm-started from the previous one)."""
    if not mode_pen.is_adaptive:
        level = mode_pen.fixed_level()
        return lambda gram, corr, warm: (
            lasso_coordinate_descent(gram, corr, level, warm=warm), level)

    def step(gram, corr, warm):
        grid = np.sort(mode_pen.grid_for(corr))
        coefs, values = [None] * grid.size, np.empty(grid.size)
        coef = warm
        for i in reversed(range(grid.size)):
            coef = coefs[i] = lasso_coordinate_descent(gram, corr,
                                                       float(grid[i]), coef)
            values[i] = _bic(norm_sq - 2.0 * float(np.sum(coef * corr))
                             + float(np.sum((coef @ gram) * coef)),
                             np.count_nonzero(coef), size)
        best = _bic_argmin(values)
        return coefs[best], float(grid[best])

    return step


def _require_lasso(pen: PenaltySpec) -> None:
    """Raise ValueError for a penalty kind :func:`sparse_cp_als` cannot
    solve: its coordinate descent takes only lasso penalties."""
    if any(p.kind == "nonneg_lasso" for p in pen.by_mode().values()):
        raise ValueError("sparse_cp_als supports only lasso penalties")


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
    pen = pen or PenaltySpec.none()
    _require_lasso(pen)
    return _als(x, K, cfg, "sparse-cp-als",
                _mode_steps(pen, lambda p: partial(_lasso_step, p)),
                sparse=True)


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


class _Deflated:
    """The matrix ``m' = m - L diag(d) R^T`` a penalized PCA leaves of
    ``m`` after accepting the unit columns (L, R, d), formed only where
    the implicit algebra loses its digits.

    Its products are ``m'v = m v - L(d * R^T v)`` and ``m'^T u = m^T u -
    R(d * L^T u)``; ``||m'||^2`` is :func:`_cp_norm_sq` with a third
    factor of ones and ``inner_j = u_j^T m v_j``.  ``eig`` is ``eigh`` of
    the Gram that :func:`leading_singular_vectors` takes of ``m^T``
    (computed when not given): ``G = m^T m`` when ``m`` has no more
    columns than rows, else ``m m^T``.  ``m`` is only read.
    """

    def __init__(self, m, eig=None):
        self.count = 0  # columns accepted, also before a rebase
        self._rebase(m, eig)
        # a formed m' of norm at most eps max(m.shape) ||m|| is rounding noise
        self.noise_sq = (_EPS * max(m.shape)) ** 2 * self.norm_sq_m

    def _rebase(self, m, eig=None):
        rows, cols = m.shape
        self.m, self.eig = m, eig or np.linalg.eigh(_gram(m.T))
        self.tall = cols <= rows  # G is m^T m, the kept C = m^T L
        self.norm_sq_m = float(np.sum(m * m))
        self.left, self.right = np.zeros((rows, 0)), np.zeros((cols, 0))
        self.kept = np.zeros((cols if self.tall else rows, 0))
        self.d = self.inner = np.zeros(0)

    def accept(self, fit: SparsePcaFit) -> None:
        c = self.m.T @ fit.u if self.tall else self.m @ fit.v
        self.inner = np.append(self.inner, c @ (fit.v if self.tall else fit.u))
        self.kept = np.column_stack([self.kept, c])
        self.left = np.column_stack([self.left, fit.u])
        self.right = np.column_stack([self.right, fit.v])
        self.d = np.append(self.d, fit.d)
        self.count += 1

    def times(self, v):
        """``m' v``."""
        return self.m @ v - self.left @ (self.d * (self.right.T @ v))

    def times_t(self, u):
        """``m'^T u``."""
        return self.m.T @ u - self.right @ (self.d * (self.left.T @ u))

    def weight(self, u, v) -> float:
        """``u^T m' v``."""
        return float(u @ self.m @ v
                     - self.d @ ((self.left.T @ u) * (self.right.T @ v)))

    def norm_sq(self) -> float:
        """``||m'||^2`` in closed form."""
        return _cp_norm_sq(self.norm_sq_m, (self.left, self.right, np.ones(
            (1, self.d.size))), self.d, self.inner)

    def start(self):
        """The leading right singular vector of ``m'``, signed as
        :func:`leading_singular_vectors` signs it; None once ``m``'s rank
        is used up (as many columns accepted as ``min(m.shape)``, or a
        formed ``m'`` at the rounding level of ``m``).

        With columns accepted it is the top eigenvector of the deflated
        Gram ``G - A D C^T - C D A^T + A D (B^T B) D A^T`` (A, B = R, L for
        ``G = m^T m``, else L, R and the vector mapped through ``m'^T``),
        from :func:`_updated_top`.  When ``||m'||^2`` is at most
        ``_GRAM_RCOND ||m||^2``, or that top pair is not found, ``m'`` is
        formed and becomes the ``m`` of the components that follow.
        """
        if self.count >= min(self.m.shape):
            return None
        if self.d.size and self.norm_sq() > _GRAM_RCOND * self.norm_sq_m:
            a, b = ((self.right, self.left) if self.tall
                    else (self.left, self.right))
            top = _updated_top(self.eig, a, self.kept, self.d, b.T @ b)
            if top is not None:
                top = normalize_or_zero(top if self.tall
                                        else self.times_t(top))[0]
                return top * _column_signs(top[:, None])[0]
        if self.d.size:
            formed = self.m - (self.left * self.d) @ self.right.T
            if float(np.sum(formed * formed)) <= self.noise_sq:
                return None
            self._rebase(formed)
        return leading_singular_vectors(self.m.T, 1, eig=self.eig)[:, 0]


def _sparse_pca_engine(rest: _Deflated, updates, cfg) -> SparsePcaFit:
    """Penalized rank-one SVD of the matrix ``rest`` stands for by
    alternating updates, the matrix case of the rank-one engine's.

    ``updates`` is the (left, right) pair of engine updates
    (:class:`_ModeUpdate`).  Each side is the normalized prox of its
    contraction (``m'v`` or ``m'^T u``, taken implicitly) at the level
    :func:`_level` picks (BIC reads ``||m'||^2`` in closed form), and the
    objective ``<u, m' v> - sum level * P(factor)`` is recorded after
    every update.  The right factor starts from ``rest.start()``.  A
    fully thresholded factor, or no start, ends the fit with the zero fit.
    """
    _reject_unread(cfg, svd_start=True)
    start = rest.start()
    factors = [None, start]
    lam = [upd.level for upd in updates]
    pens = [0.0, 0.0 if start is None else _penalty(updates[1], lam[1], start)]
    norm_sq = (rest.norm_sq() if any(upd.grid is not None for upd in updates)
               else None)
    loop = _Loop(cfg)
    loop.converged = start is None  # m's rank is used up: no sweep
    nrm = 0.0
    for _ in loop.sweeps():
        for side, upd in enumerate(updates):
            c = (rest.times(factors[1]) if side == 0
                 else rest.times_t(factors[0]))
            level = lam[side] = _level(upd, c, norm_sq, rest.m.size)
            factors[side], nrm = normalize_or_zero(upd.prox.prox(c, level))
            if nrm == 0.0:
                break
            pens[side] = _penalty(upd, level, factors[side])
            objective = float(factors[side] @ c) - pens[0] - pens[1]
            loop.objective_trace.append(objective)
        if nrm == 0.0:
            break
        loop.stop(objective)
    if nrm == 0.0:  # a fully thresholded factor or no start: the zero fit
        factors = [np.zeros(rest.m.shape[0]), np.zeros(rest.m.shape[1])]
        loop.converged = True
    u, v = factors
    d = rest.weight(u, v) if nrm else 0.0
    return SparsePcaFit(u, v, d, loop.iterations, loop.converged,
                        np.asarray(loop.objective_trace), *lam)


def sparse_pca_rank_one(m, lam_left: float = 0.0, lam_right: float = 0.0,
                        cfg: SolverConfig | None = None) -> SparsePcaFit:
    """Rank-one penalized SVD by alternating soft-thresholding.

    With both levels zero this converges to the leading singular pair; a
    fully thresholded factor terminates with weight zero.
    """
    cfg = cfg or SolverConfig()
    return _sparse_pca_engine(_Deflated(np.asarray(m, dtype=float)), tuple(
        _mode_update(ModePenalty("lasso", float(lam)))
        for lam in (lam_left, lam_right)), cfg)


def sparse_pca(m, k: int, left_pen: ModePenalty,
               cfg: SolverConfig | None = None, eig=None):
    """First k penalized principal components with rank-one deflation;
    only the left factors are penalized.  The first component starts
    from the leading right singular vector of ``m``; ``eig``, when
    given, is ``eigh`` of the Gram matrix it is taken from (see
    :func:`hopca.decompose.leading_singular_vectors` on ``m.T``).

    The deflation is implicit (:class:`_Deflated`): ``m`` is only read,
    every product and the norm BIC reads are those of the deflated
    matrix, and each later component starts from the top eigenvector of
    ``eig``'s Gram updated by the accepted components, found by a few
    Lanczos steps.  The deflated matrix is formed, and its own ``eigh``
    taken, only where that loses digits.

    Returns (left factors, right factors, weights, component fits); the
    fits are the :class:`SparsePcaFit` of each component run, a zero fit
    last when one ends the run early, as it does once ``m``'s rank is
    used up.
    """
    m = np.asarray(m, dtype=float)
    cfg = cfg or SolverConfig()
    updates = (_mode_update(left_pen),
               _mode_update(ModePenalty("lasso", 0.0)))
    left = np.zeros((m.shape[0], k))
    right = np.zeros((m.shape[1], k))
    d = np.zeros(k)
    fits = []
    rest = _Deflated(m, eig)
    for comp in range(k):
        fit = _sparse_pca_engine(rest, updates, cfg)
        fits.append(fit)
        if fit.d == 0.0:
            break
        left[:, comp], right[:, comp], d[comp] = fit.u, fit.v, fit.d
        rest.accept(fit)
    return left, right, d, fits


def _pca_step(mode_pen: ModePenalty, m, k, cfg, eig=None):
    """Tucker step for one penalized mode: the left factors of
    :func:`sparse_pca`, the chosen level of each component and its
    component fits as the loops."""
    left, _, _, fits = sparse_pca(m, k, mode_pen, cfg, eig)
    return left, [fit.lam_left for fit in fits], fits


def sparse_hosvd(x, ranks, pen: PenaltySpec | None = None,
                 cfg: SolverConfig | None = None) -> TuckerModel:
    """Tucker-style factors from penalized PCA of each unfolding.

    Factor columns of a penalized mode are the left vectors of successive
    penalized rank-one SVDs (deflated), so they are sparse and generally
    not orthonormal; an unpenalized mode takes the leading singular
    vectors, as :func:`hosvd` does.
    """
    return _tucker(x, ranks, cfg, "sparse-hosvd", _mode_steps(
        pen or PenaltySpec.none(), lambda p: partial(_pca_step, p)),
        sparse=True)


def sparse_hooi(x, ranks, pen: PenaltySpec | None = None,
                cfg: SolverConfig | None = None) -> TuckerModel:
    """Orthogonal-iteration variant with penalized PCA inside each sweep.

    Convergence is not guaranteed, so iteration is capped and the sweep
    with the largest core norm is returned along with the full trace.
    """
    return _tucker(x, ranks, cfg, "sparse-hooi", _mode_steps(
        pen or PenaltySpec.none(), lambda p: partial(_pca_step, p)),
        sweeps=True, sparse=True)
