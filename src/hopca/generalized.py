"""Extensions of the deflation scheme: general order-one convex penalties
(the group lasso here; the l1 and non-negative l1 penalties of
:mod:`hopca.sparse` are re-exported), quadratic-norm (structured)
decompositions with the q-weighted lasso they solve, and multi-way
functional PCA in both its tri-convex and half-smoothing forms.

The penalized and quadratic-norm solvers only choose the rank-one
engine's per-mode updates: each is one call of the engine's single-fit
or deflation entry point in :mod:`hopca.decompose`.  Functional PCA runs
the same engine, and the same deflation loop, on the half-smoothed
tensor; its half-smoothing form runs the Tucker loop on that tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .decompose import (
    CpModel,
    PenaltyFn,
    RankOneFit,
    SolverConfig,
    TuckerModel,
    _fit_greedy,
    _fit_rank_one,
    _ModeUpdate,
    _PLAIN,
    _rank_one,
    _shared_grams,
    _tucker,
    deflate,
)
from .sparse import (
    l1_penalty,
    nonneg_l1_penalty,
    positive_threshold,
    soft_threshold,
)
from .tensor3 import _mode_mult3, frob_norm, outer3

__all__ = [
    "positive_threshold",
    "PenaltyFn",
    "l1_penalty",
    "nonneg_l1_penalty",
    "group_lasso_penalty",
    "general_cp_tpa_rank_one",
    "general_cp_tpa",
    "QuadOperators",
    "gcp_rank_one",
    "gcp",
    "sparse_gcp_rank_one",
    "sparse_gcp",
    "qnorm_lasso_solve",
    "qnorm_lasso_kkt_residual",
    "SmootherSet",
    "second_diff_penalty",
    "difference_penalty",
    "FpcaFit",
    "fpca_objective",
    "fpca_rank_one",
    "fpca",
    "fpca_half_smoothing",
]

_TINY = 1e-300
_L1 = l1_penalty()


# ---------------------------------------------------------------------------
# general order-one convex penalties


def group_lasso_penalty(groups: Sequence[Sequence[int]]) -> PenaltyFn:
    """Sum of Euclidean norms over index groups (blockwise shrinkage prox)."""
    groups = [np.asarray(g, dtype=int) for g in groups]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return float(sum(np.linalg.norm(x[g]) for g in groups))

    def prox(y, scale):
        y = np.asarray(y, dtype=float)
        out = y.copy()
        for g in groups:
            nrm = np.linalg.norm(y[g])
            out[g] = 0.0 if nrm <= scale else y[g] * (1.0 - scale / nrm)
        return out

    return PenaltyFn("group_lasso", evaluate, prox)


def general_cp_tpa_rank_one(x, penalties, cfg: SolverConfig | None = None
                            ) -> RankOneFit:
    """Rank-one fit with one (PenaltyFn, level) pair per mode.

    Each update applies the penalty's prox to the contraction against the
    other two factors and renormalizes (or zeroes the component); the
    penalized contraction objective is non-decreasing per update.  With
    the l1 penalty this is exactly the sparse rank-one fit.
    """
    return _fit_rank_one(x, _general_updates(penalties), cfg)


def _general_updates(penalties):
    return tuple(_ModeUpdate(pen, float(lam)) for pen, lam in penalties)


def general_cp_tpa(x, K: int, penalties, cfg: SolverConfig | None = None
                   ) -> CpModel:
    """Deflated multi-component fit with general penalties per mode."""
    return _fit_greedy(x, K, _general_updates(penalties), cfg,
                       "general-cp-tpa", sparse=True,
                       penalties=[pen.name for pen, _ in penalties])


# ---------------------------------------------------------------------------
# quadratic-norm (structured) decompositions


def _check_symmetric_psd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if float(np.max(np.abs(mat - mat.T))) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric")
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -1e-10 * scale:
        raise ValueError(f"{name} is not positive semi-definite "
                         f"(min eigenvalue {min_eig:g})")
    return mat, min_eig


@dataclass
class QuadOperators:
    """One symmetric PSD operator per mode for quadratic-norm solvers.

    Strict positive definiteness is required to normalize factors, so
    the structured solvers call :meth:`require_positive_definite` first.
    """

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    min_eigs: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        self.q1, e1 = _check_symmetric_psd(self.q1, "q1")
        self.q2, e2 = _check_symmetric_psd(self.q2, "q2")
        self.q3, e3 = _check_symmetric_psd(self.q3, "q3")
        self.min_eigs = (e1, e2, e3)

    @classmethod
    def identity(cls, dims) -> "QuadOperators":
        n, p, q = dims
        return cls(np.eye(n), np.eye(p), np.eye(q))

    def require_positive_definite(self):
        if min(self.min_eigs) <= 0.0:
            raise ValueError("quadratic operators must be positive definite "
                             f"(min eigenvalues {self.min_eigs})")


def _power_lambda_max(q, iters: int = 200, tol: float = 1e-12) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    q = np.asarray(q, dtype=float)
    z = np.ones(q.shape[0]) / np.sqrt(q.shape[0])
    value = 0.0
    for _ in range(iters):
        zq = q @ z
        nrm = np.linalg.norm(zq)
        if nrm <= _TINY:
            return 0.0
        z_new = zq / nrm
        new_value = float(z_new @ (q @ z_new))
        if abs(new_value - value) <= tol * max(abs(value), _TINY):
            return new_value
        value = new_value
        z = z_new
    return value


_KKT_CHECK_EVERY = 8


def qnorm_lasso_solve(y, q, lam: float, lipschitz: float | None = None,
                      start: np.ndarray | None = None) -> np.ndarray:
    """``argmin 0.5 (y-u)' q (y-u) + lam * ||u||_1`` for positive definite q.

    Proximal gradient with step 1/L, L the largest eigenvalue of q (by
    power iteration unless given as ``lipschitz``), finished exactly on
    its sign pattern.  Every ``_KKT_CHECK_EVERY`` steps the iterate's
    signs theta and support A give a candidate: ``u_A`` solves
    ``q_AA u_A = (q y)_A - lam theta_A`` and u is zero off A.  The
    candidate is returned when its signs are theta and its KKT residual
    is at most 1e-10 (a coordinate whose solved sign differs from theta
    shows a residual of about 2 lam, which that bound alone misses for
    a level below it).  Otherwise the stop is the plain one: the iterate
    itself is returned once its own KKT residual is at most 1e-10, or
    after 100000 steps.  Once proximal gradient has found the
    minimizer's signs the candidate is the minimizer up to the rounding
    of one linear solve, so the result is exact rather than up to 1e-10
    off in KKT terms.
    Without ``lipschitz`` q is checked by a Cholesky factorization.
    ``start`` warm-starts the iteration: its own sign pattern gives the
    first candidate, before any step, and a start that is the minimizer
    comes back in zero steps (the minimizer is unique, so a start
    affects only the iteration count).
    """
    y = np.asarray(y, dtype=float).ravel()
    q = np.asarray(q, dtype=float)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if lipschitz is None:
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise ValueError("q must be positive definite") from None
    if lam == 0.0:
        return y.copy()
    lip = _power_lambda_max(q) if lipschitz is None else float(lipschitz)
    if lip <= 0.0:
        raise ValueError("q must be positive definite")
    u = np.zeros_like(y) if start is None else np.asarray(start,
                                                          dtype=float).copy()
    qy = q @ y
    for step in range(int(start is None), 100001):
        if step:
            u = soft_threshold(u - (q @ u - qy) / lip, lam / lip)
        if step % _KKT_CHECK_EVERY:
            continue
        theta = np.sign(u)
        active = theta != 0
        candidate = np.zeros_like(y)
        rhs = qy[active] - lam * theta[active]
        try:
            candidate[active] = np.linalg.solve(q[active][:, active], rhs)
        except np.linalg.LinAlgError:  # q_AA singular: q is not definite
            pass
        else:
            if (qnorm_lasso_kkt_residual(y, q, lam, candidate) <= 1e-10
                    and (np.sign(candidate) == theta).all()):
                return candidate
        if qnorm_lasso_kkt_residual(y, q, lam, u) <= 1e-10:
            break
    return u


def qnorm_lasso_kkt_residual(y, q, lam: float, u) -> float:
    """Largest elementwise violation of the q-weighted lasso optimality
    conditions at ``u``."""
    grad = np.asarray(q, dtype=float) @ (np.asarray(u, dtype=float)
                                         - np.asarray(y, dtype=float))
    u = np.asarray(u, dtype=float)
    nonzero = u != 0
    res = np.where(nonzero, np.abs(grad + lam * np.sign(u)),
                   np.maximum(np.abs(grad) - lam, 0.0))
    return float(np.max(res)) if res.size else 0.0


def _quad_updates(q: QuadOperators, lam):
    q.require_positive_definite()
    return tuple(_ModeUpdate(_L1, float(level), q=qi)
                 for qi, level in zip((q.q1, q.q2, q.q3), lam))


def gcp_rank_one(x, q: QuadOperators, cfg: SolverConfig | None = None
                 ) -> RankOneFit:
    """Rank-one fit under per-mode quadratic norms.

    Factors satisfy the q-weighted unit constraints and the weight is the
    q-weighted triple contraction; with identity operators this is the
    plain power scheme.
    """
    return _fit_rank_one(x, _quad_updates(q, (0.0, 0.0, 0.0)), cfg)


def sparse_gcp_rank_one(x, q: QuadOperators, lam=(0.0, 0.0, 0.0),
                        cfg: SolverConfig | None = None) -> RankOneFit:
    """Sparse rank-one fit under quadratic norms.

    Each update solves a q-weighted lasso then q-normalizes (or zeroes
    the component); reduces to the plain sparse fit for identity
    operators and to :func:`gcp_rank_one` at zero levels.
    """
    return _fit_rank_one(x, _quad_updates(q, lam), cfg)


def gcp(x, q: QuadOperators, K: int, cfg: SolverConfig | None = None
        ) -> CpModel:
    """Deflated multi-component quadratic-norm decomposition."""
    return _fit_greedy(x, K, _quad_updates(q, (0.0, 0.0, 0.0)), cfg, "gcp")


def sparse_gcp(x, q: QuadOperators, K: int, lam=(0.0, 0.0, 0.0),
               cfg: SolverConfig | None = None) -> CpModel:
    """Deflated sparse quadratic-norm decomposition."""
    return _fit_greedy(x, K, _quad_updates(q, lam), cfg, "sparse-gcp",
                       sparse=True)


# ---------------------------------------------------------------------------
# multi-way functional PCA


def second_diff_penalty(length: int, alpha: float) -> np.ndarray:
    """``alpha * D'D`` for the second-difference operator (stencil 1,-2,1)."""
    return difference_penalty(length, alpha, order=2)


def difference_penalty(length: int, alpha: float, order: int = 2) -> np.ndarray:
    """Squared difference roughness penalty of the given order (2 or 4)."""
    if order not in (2, 4):
        raise ValueError("difference order must be 2 or 4")
    if length < order + 1:
        raise ValueError(f"length must be at least {order + 1}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    diff = np.diff(np.eye(length), n=order, axis=0)
    return alpha * diff.T @ diff


def _inverse_sqrt(mat, floor: float = 1e-12) -> np.ndarray:
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=float))
    vals = np.maximum(vals, floor)
    return (vecs * vals ** -0.5) @ vecs.T


@dataclass
class SmootherSet:
    """Per-mode roughness penalties and the derived smoother matrices.

    Each smoother is ``S = I + alpha * Omega`` with ``Omega`` PSD, so S is
    positive definite with eigenvalues at least one; inverse square roots
    are computed by symmetric eigendecomposition with a small eigenvalue
    floor as a safety net.
    """

    omega_u: np.ndarray
    omega_v: np.ndarray
    omega_w: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.omega_u, _ = _check_symmetric_psd(self.omega_u, "omega_u")
        self.omega_v, _ = _check_symmetric_psd(self.omega_v, "omega_v")
        self.omega_w, _ = _check_symmetric_psd(self.omega_w, "omega_w")
        self._cache: dict[str, np.ndarray] = {}

    @classmethod
    def second_difference(cls, dims, alpha: float, order: int = 2
                          ) -> "SmootherSet":
        n, p, q = dims
        return cls(difference_penalty(n, 1.0, order),
                   difference_penalty(p, 1.0, order),
                   difference_penalty(q, 1.0, order), alpha)

    @classmethod
    def identity(cls, dims) -> "SmootherSet":
        n, p, q = dims
        return cls(np.zeros((n, n)), np.zeros((p, p)), np.zeros((q, q)), 0.0)

    def smoother(self, mode: str) -> np.ndarray:
        """The smoother ``S = I + alpha * Omega`` of ``mode`` ("u", "v"
        or "w")."""
        omega = getattr(self, f"omega_{mode}")
        return np.eye(omega.shape[0]) + self.alpha * omega

    def inverse_sqrt(self, mode: str) -> np.ndarray:
        if mode not in self._cache:
            smoother = self.smoother(mode)  # exactly I at zero alpha or Omega
            self._cache[mode] = (smoother if self.alpha == 0.0
                                 or not np.any(getattr(self, f"omega_{mode}"))
                                 else _inverse_sqrt(smoother))
        return self._cache[mode]


def _half_smooth(x, s: SmootherSet):
    """``x x1 S_u^{-1/2} x2 S_v^{-1/2} x3 S_w^{-1/2}`` and the three maps."""
    maps = tuple(s.inverse_sqrt(m) for m in ("u", "v", "w"))
    return _mode_mult3(x, *maps), maps


def fpca_objective(x, s: SmootherSet, u, v, w) -> float:
    """Roughness-penalized rank-one loss for the tri-convex formulation."""
    fit = x - outer3(u, v, w)
    quad = (float(u @ (s.smoother("u") @ u))
            * float(v @ (s.smoother("v") @ v))
            * float(w @ (s.smoother("w") @ w)))
    norms = (float(u @ u) * float(v @ v) * float(w @ w))
    return float(np.sum(fit * fit)) + quad - norms


@dataclass
class FpcaFit:
    """Functional rank-one fit: raw (scale-carrying) factors plus the
    normalized equivalent used for cross-method comparison."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    iterations: int = 0
    converged: bool = False
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def normalized(self):
        nu, nv, nw = (float(np.linalg.norm(f)) for f in (self.u, self.v,
                                                         self.w))
        d = nu * nv * nw
        if d <= _TINY:
            return (np.zeros_like(self.u), np.zeros_like(self.v),
                    np.zeros_like(self.w), 0.0)
        return self.u / nu, self.v / nv, self.w / nw, d


def fpca_rank_one(x, s: SmootherSet, cfg: SolverConfig | None = None
                  ) -> FpcaFit:
    """Tri-convex functional rank-one fit: the power scheme on the
    half-smoothed tensor.

    With factors of unit S-norm the tri-convex loss at its best scale is
    ``||x||^2 - <x, a o b o c>^2``.  Substituting ``a = S_u^{-1/2} a~``
    (and likewise for b and c) turns its minimization into the best
    rank-one fit ``d a~ o b~ o c~`` of the half-smoothed tensor
    ``x x1 S_u^{-1/2} x2 S_v^{-1/2} x3 S_w^{-1/2}``, which the rank-one
    engine computes.  Each factor is mapped back through its ``S^{-1/2}``
    and scaled by ``d^(1/3)``, so the factors are returned unnormalized
    with the scale carried in the iterate (use :meth:`FpcaFit.normalized`
    for the unit-factor equivalent).  The objective trace is
    ``||x||^2 - d_t^2`` for the engine's per-update weights ``d_t``: it is
    non-increasing and ends at :func:`fpca_objective` of the returned
    factors.
    """
    cfg = cfg or SolverConfig()
    with _shared_grams(x) as x:
        return _fpca_rank_one(x, s, cfg, cfg.rng())


def _fpca_rank_one(x, s: SmootherSet, cfg: SolverConfig,
                   rng: np.random.Generator) -> FpcaFit:
    smoothed, maps = _half_smooth(x, s)
    fit = _rank_one(smoothed, _PLAIN, cfg, rng)
    scale = fit.d ** (1.0 / 3.0)
    factors = (fit.u, fit.v, fit.w)
    u, v, w = (scale * (half @ f) for half, f in zip(maps, factors))
    trace = frob_norm(x) ** 2 - fit.objective_trace ** 2
    return FpcaFit(u, v, w, fit.iterations, fit.converged, trace)


def fpca(x, s: SmootherSet, K: int, cfg: SolverConfig | None = None
         ) -> CpModel:
    """Deflated multi-component functional fit, reported in normalized form."""
    cfg = cfg or SolverConfig()

    def fit_one(x, terms, rng, basis):
        # half-smoothing maps the whole tensor, so the residual is formed
        fit = _fpca_rank_one(x if terms is None else terms.residual(), s,
                             cfg, rng)
        return RankOneFit(*fit.normalized(), fit.iterations, fit.converged,
                          fit.objective_trace)

    return deflate(x, K, fit_one, cfg, "fpca", alpha=s.alpha)


def fpca_half_smoothing(x, s: SmootherSet, ranks,
                        cfg: SolverConfig | None = None) -> TuckerModel:
    """Functional components by half-smoothing around a Tucker fit.

    Half-smooths the data, runs orthogonal iteration, and half-smooths
    the resulting factors back.  At ranks (1, 1, 1) orthogonal iteration
    is the power scheme that :func:`fpca_rank_one` runs on the same
    half-smoothed tensor, so run to convergence it reaches a stationary
    point of the tri-convex objective; stopped at the default tolerance
    it can still sit measurably off one.
    """
    with _shared_grams(x) as x:
        smoothed, (half_u, half_v, half_w) = _half_smooth(x, s)
    # a new tensor, which opens (and checks) a block of its own; it cannot
    # overflow, as x's block refused an overflowing ||x||^2 and S^{-1/2}
    # has spectral norm at most one
    inner = _tucker(smoothed, ranks, cfg, "fpca-halfsmooth", sweeps=True,
                    alpha=s.alpha)
    return replace(inner, U=half_u @ inner.U, V=half_v @ inner.V,
                   W=half_w @ inner.W)
