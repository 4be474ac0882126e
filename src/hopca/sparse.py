"""Sparse decompositions: the deflation-based soft-thresholding scheme
(sparse rank-one fits whose objective ascends monotonically at fixed
levels), plus the three algorithmic baselines built from penalized
updates (sparse ALS, sparse HOSVD, sparse HOOI).

Every solver is one call of a shared loop of :mod:`hopca.decompose`,
which checks the tensor, defaults the config and labels the fit.  A
penalty spec becomes one engine update per mode (:func:`_mode_updates`),
and each solver hands that tuple to its loop.  In a penalized mode the
rank-one fit and the deflation scheme soft-threshold in the engine, the
ALS loop takes a lasso step (:func:`_lasso_step`) and the Tucker loop a
penalized PCA.  An unpenalized mode's update is the loop's plain one, so
with no penalty the baselines are CP-ALS, HOSVD and HOOI.  The Tucker
loop runs the penalized PCA of each penalized mode's unfolding
(:func:`hopca.decompose._fit_unfolding`), and :func:`sparse_pca` is that
call on the view ``m[:, :, None]`` of a matrix ``m``, whose size-one
third mode with a plain update is the fixed factor ``[1.0]``: its
components are the engine's deflation loop on that view, with one
implicit deflation for both (:class:`hopca.decompose._Terms`).

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
    _PLAIN,
    _als,
    _fit_greedy,
    _fit_rank_one,
    _fit_unfolding,
    _ModeUpdate,
    _tucker,
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


def soft_threshold(x, lam: float):
    """Elementwise ``sign(x) * max(|x| - lam, 0)``."""
    if not lam >= 0:  # NaN too
        raise ValueError("threshold level must be non-negative")
    x = np.asarray(x, dtype=float)
    return np.copysign(np.maximum(np.abs(x) - lam, 0.0), x)


def positive_threshold(x, lam: float):
    """Elementwise ``max(x - lam, 0)``: sparsity plus non-negativity."""
    if not lam >= 0:  # NaN too
        raise ValueError("threshold level must be non-negative")
    return np.maximum(np.asarray(x, dtype=float) - lam, 0.0)


def l1_penalty() -> PenaltyFn:
    return PenaltyFn("l1", lambda x: np.abs(x).sum(), soft_threshold)


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
            if not self.lam >= 0:  # NaN too
                raise ValueError("lambda must be non-negative")
            self.lam = float(self.lam)
        else:
            grid = np.asarray(self.lam, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("lambda grid must be a non-empty vector")
            if not np.all(grid >= 0):  # NaN too
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


@dataclass(frozen=True)
class _Grid:
    """A mode's BIC grid as a value, so that equal penalties give equal
    engine updates: :meth:`ModePenalty.grid_for` of the levels ``lam``
    (a tuple), or of None for the default grid."""

    lam: tuple | None
    __call__ = ModePenalty.grid_for


def _mode_update(p: ModePenalty) -> _ModeUpdate:
    """The engine update of one mode's penalty: the kind's prox at the
    fixed level, or at the level BIC selects on every update."""
    return _ModeUpdate(_KIND_PENALTY[p.kind],
                       0.0 if p.is_adaptive else p.fixed_level(),
                       _Grid(p.lam if p.lam is None else tuple(p.lam))
                       if p.is_adaptive else None)


def _mode_updates(pen: PenaltySpec | None):
    """The updates of a penalty spec (None: unpenalized), one per mode:
    what every loop of :mod:`hopca.decompose` takes."""
    pen = pen or PenaltySpec()
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
    return _fit_greedy(x, K, _mode_updates(pen), cfg, "sparse-cp-tpa",
                       sparse=True)


# ---------------------------------------------------------------------------
# sparse alternating least squares


def lasso_coordinate_descent(gram, corr, lam: float,
                             warm: np.ndarray | None = None) -> np.ndarray:
    """Row-separable lasso on the Gram form by cyclic coordinate descent.

    Solves ``min 0.5 ||Y - C @ H.T||_F^2 + lam * ||C||_1`` given
    ``gram = H.T @ H`` and ``corr = Y @ H``, sweeping columns (at most
    1000 times) until the largest coefficient change is at most 1e-8
    times the largest coefficient magnitude after the sweep, a relative
    stop, so the fit scales with the data (an all-zero solution that a
    sweep leaves unchanged stops too).  A zero Gram diagonal (dead
    regressor) pins its column to zero.  This is the one-level case of
    :func:`_lasso_path`.
    """
    return _lasso_path(gram, corr, [lam], warm)[0]


def _lasso_path(gram, corr, levels, warm=None) -> np.ndarray:
    """:func:`lasso_coordinate_descent` at each of the ``levels`` at once:
    one coordinate descent over the (levels, n, K) stack of coefficients,
    every level started from ``warm`` (else zero).  Each level keeps its
    own stop rule and, once that holds, is swapped behind the live
    levels, so that they are a prefix of the stack; the swaps are undone
    at the end.  The sweeps fill two (levels, n) buffers by ``out=``
    ufuncs, so the descent holds about two stacks."""
    gram = np.asarray(gram, dtype=float)
    corr = np.asarray(corr, dtype=float)
    lam = np.array(levels, dtype=float)  # swapped with the stack's slots
    if not np.all(lam >= 0):  # NaN too
        raise ValueError("threshold level must be non-negative")
    diag = np.diag(gram)
    coef = np.empty((lam.size, *corr.shape))
    coef[:] = 0.0 if warm is None else warm
    live, swaps = lam.size, []
    buf = np.empty((2, lam.size, corr.shape[0]))
    for _sweep in range(1000):
        c, r, new = coef[:live], buf[0, :live], buf[1, :live]
        level = lam[:live, None]
        delta = np.zeros(live)
        for j in range(gram.shape[0]):
            col = c[..., j]
            # corr_j - c gram_j + c_j diag_j, then its soft threshold
            np.subtract(corr[:, j], np.matmul(c, gram[:, j], out=r), out=r)
            r += np.multiply(col, diag[j], out=new)
            if diag[j] > _TINY:
                np.abs(r, out=new)
                new -= level
                np.maximum(new, 0.0, out=new)
                np.copysign(new, r, out=new)  # np.sign(r) * new, faster
                new /= diag[j]
            else:
                new[:] = 0.0
            np.abs(np.subtract(new, col, out=r), out=r)
            delta = np.maximum(delta, r.max(axis=1, initial=0.0))
            col[...] = new
        # each level's largest |coef|, taken with no |c| temporary
        peak = np.maximum(c.max(axis=(1, 2), initial=0.0),
                          -c.min(axis=(1, 2), initial=0.0))
        done = delta <= 1e-8 * peak
        live -= np.count_nonzero(done)
        # the done levels before the new end swap with the live ones after
        ahead = np.flatnonzero(done[:live])
        behind = live + np.flatnonzero(~done[live:])
        swaps.append((ahead, behind))
        for a in (coef, lam):
            a[ahead], a[behind] = a[behind], a[ahead]
        if not live:
            break
    for ahead, behind in reversed(swaps):
        coef[ahead], coef[behind] = coef[behind], coef[ahead]
    return coef


def _lasso_step(upd: _ModeUpdate, gram, corr, warm, norm_sq: float,
                size: int):
    """The ALS loop's step for one penalized mode: the whole-factor lasso,
    from ``warm``, at the update's fixed level, or at the level BIC
    selects (``||x||^2 = norm_sq``, ``size`` entries) over its increasing
    grid, whose levels are solved at once (:func:`_lasso_path`).  Returns
    the coefficients and the level."""
    if upd.grid is None:
        return lasso_coordinate_descent(gram, corr, upd.level, warm), upd.level
    grid = upd.grid(corr)
    coefs = _lasso_path(gram, corr, grid, warm)
    # each level's residual sum of squares, with one stack temporary
    fit = np.multiply(coefs, corr)
    cross = fit.sum(axis=(1, 2))
    fit = np.matmul(coefs, gram, out=fit)
    fit *= coefs
    values = _bic(norm_sq - 2.0 * cross + fit.sum(axis=(1, 2)),
                  np.count_nonzero(coefs, axis=(1, 2)), size)
    best = _bic_argmin(values)
    return coefs[best], float(grid[best])


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
    _require_lasso(pen or PenaltySpec())
    return _als(x, K, cfg, "sparse-cp-als", _mode_updates(pen), sparse=True)


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


def _pca(m, k, updates, cfg):
    """:func:`hopca.decompose._fit_unfolding` of the view ``m[:, :, None]``
    (whose mode-1 unfolding is ``m``), its fits as :class:`SparsePcaFit`."""
    m = np.asarray(m, dtype=float)
    left, right, d, fits = _fit_unfolding(m[:, :, None], 1, k, updates, cfg)
    return left, right, d, [
        SparsePcaFit(f.u, f.v, f.d, f.iterations, f.converged,
                     f.objective_trace, f.lambdas["u"], f.lambdas["v"])
        for f in fits]


def sparse_pca_rank_one(m, lam_left: float = 0.0, lam_right: float = 0.0,
                        cfg: SolverConfig | None = None) -> SparsePcaFit:
    """Rank-one penalized SVD by alternating soft-thresholding.

    With both levels zero this converges to the leading singular pair; a
    fully thresholded factor terminates with weight zero.  A non-finite
    ``m`` raises ValueError.
    """
    pen = PenaltySpec.lasso(float(lam_left), float(lam_right))
    return _pca(m, 1, _mode_updates(pen)[:2], cfg)[3][0]


def sparse_pca(m, k: int, left_pen: ModePenalty,
               cfg: SolverConfig | None = None):
    """First k penalized principal components with rank-one deflation;
    only the left factors are penalized.  The first component starts
    from the leading right singular vector of ``m``, from the Lanczos top
    pair of the Gram of ``m``.

    Each component is a fit of the rank-one engine to the tensor view
    ``m[:, :, None]``, whose third factor is fixed at ``[1.0]``, and the
    deflation is the engine's: ``m`` is only read, every product and the
    norm BIC reads are those of the deflated matrix, and each later
    component starts from the Lanczos top pair of the Gram of ``m``
    updated by the accepted components, whose products go through the
    Gram and the components (one small ``eigh`` for a small Gram).  The
    deflated matrix is formed only where that loses digits.  As in the
    engine, a factor that vanishes at level 0 restarts its fit from a
    random start (seeded by ``cfg``), and one that vanishes at a positive
    level gives the zero fit.  This is the penalized PCA the sparse
    Tucker methods run on each unfolding
    (:func:`hopca.decompose._fit_unfolding`).

    Returns (left factors, right factors, weights, component fits); the
    fits are the :class:`SparsePcaFit` of each component run, a zero fit
    last when one ends the run early, as it does once ``m``'s rank is
    used up (``min(m.shape)`` components, or a deflated matrix at the
    rounding level of ``m``).  A non-finite ``m``, or one whose squared
    norm overflows, raises ValueError.
    """
    return _pca(m, k, (_mode_update(left_pen), _PLAIN[1]), cfg)


def sparse_hosvd(x, ranks, pen: PenaltySpec | None = None,
                 cfg: SolverConfig | None = None) -> TuckerModel:
    """Tucker-style factors from penalized PCA of each unfolding.

    Factor columns of a penalized mode are the left vectors of successive
    penalized rank-one SVDs (deflated), so they are sparse and generally
    not orthonormal; an unpenalized mode takes the leading singular
    vectors, as :func:`hosvd` does.
    """
    return _tucker(x, ranks, cfg, "sparse-hosvd", _mode_updates(pen),
                   sparse=True)


def sparse_hooi(x, ranks, pen: PenaltySpec | None = None,
                cfg: SolverConfig | None = None) -> TuckerModel:
    """Orthogonal-iteration variant with penalized PCA inside each sweep.

    Convergence is not guaranteed, so iteration is capped and the sweep
    with the largest core norm is returned along with the full trace.
    """
    return _tucker(x, ranks, cfg, "sparse-hooi", _mode_updates(pen),
                   sweeps=True, sparse=True)
