"""Unregularized decompositions: CP-ALS, HOSVD, HOOI, and the greedy
rank-one power scheme with deflation (optionally Gram-Schmidt
orthogonalized).  The power scheme runs on the penalized rank-one
engine and the deflation loop that the sparse and generalized solvers
share.

All solvers are pure per-call: they share no global state and may run
concurrently.  Factor columns are unit norm; rank-one weights are
non-negative; components are returned sorted by descending weight with
the greedy computation order preserved in the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .evaluate import bic_path
from .tensor3 import check_tensor3, frob_norm, khatri_rao, matricize, mode_mult

__all__ = [
    "SolverConfig",
    "CpModel",
    "TuckerModel",
    "RankOneFit",
    "cp_als",
    "hosvd",
    "hooi",
    "tpa_rank_one",
    "tpa",
]

_TINY = 1e-300
_MODES = ("u", "v", "w")
# smallest sigma_k^2 / sigma_1^2 for which the Gram route keeps its accuracy
_GRAM_RCOND = 1e-8


@dataclass
class SolverConfig:
    """Iteration controls shared by every solver.

    ``tol`` is a relative objective-change threshold; ``init`` selects
    between leading-singular-vector and random starting factors;
    ``orthogonalize`` enables Gram-Schmidt projection of each new
    deflation component against the previous ones.
    """

    max_iter: int = 500
    tol: float = 1e-6
    seed: int | None = 0
    init: str = "hosvd"
    orthogonalize: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in ("hosvd", "random"):
            raise ValueError(f"unknown init {self.init!r}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class CpModel:
    """CP-style factorization ``x ~ sum_k d[k] * U[:,k] o V[:,k] o W[:,k]``.

    Factor columns have unit Euclidean norm or are exactly zero (zero
    columns arise only from sparse solvers or degenerate deflation) and
    all weights are non-negative.
    """

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    d: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def K(self) -> int:
        return int(np.asarray(self.d).size)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("ik,jk,lk,k->ijl", self.U, self.V, self.W,
                         np.asarray(self.d, dtype=float), optimize=True)


@dataclass
class TuckerModel:
    """Tucker factorization ``x ~ core x1 U x2 V x3 W``.

    Classic solvers return orthonormal factors; sparse variants may
    return sparse, non-orthonormal (or zero) columns.
    """

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    core: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def ranks(self) -> tuple[int, int, int]:
        return tuple(self.core.shape)

    def reconstruct(self) -> np.ndarray:
        return mode_mult(mode_mult(mode_mult(self.core, self.U, 1),
                                   self.V, 2), self.W, 3)


@dataclass
class RankOneFit:
    """Result of one greedy rank-one fit, with its per-update objective."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    d: float
    iterations: int = 0
    converged: bool = False
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lambdas: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared numerical helpers


def contract_u(x, v, w):
    """x contracted along modes 2 and 3: length-n vector."""
    return np.tensordot(np.tensordot(x, w, axes=(2, 0)), v, axes=(1, 0))


def contract_v(x, u, w):
    """x contracted along modes 1 and 3: length-p vector."""
    return np.tensordot(np.tensordot(x, w, axes=(2, 0)), u, axes=(0, 0))


def contract_w(x, u, v):
    """x contracted along modes 1 and 2: length-q vector."""
    return np.tensordot(np.tensordot(x, v, axes=(1, 0)), u, axes=(0, 0))


def leading_singular_vectors(m, k, return_values=False):
    """First ``k`` left singular vectors of ``m`` (orthonormal columns).

    The vectors come from ``eigh`` of the smaller Gram matrix: ``m m^T``
    for a wide or square ``m``, whose top eigenvectors are the left
    vectors; ``m^T m`` for a tall one, whose top eigenvectors ``v`` map
    back through ``m v``, orthonormalized by QR.  The singular values are
    the square roots of the clipped eigenvalues.  Squaring ``m`` squares
    its condition number, so a plain SVD is used instead when
    ``sigma_k^2 < 1e-8 sigma_1^2`` (the Gram vectors would then be off by
    about ``eps sigma_1^2 / sigma_k^2``), when ``m`` is zero, or when
    ``k`` exceeds the smaller side (the SVD basis is then completed
    deterministically to ``k`` columns).  Each column's largest-magnitude
    entry is made positive, so the result does not depend on the route.
    With ``return_values`` the first ``k`` singular values come too.
    """
    m = np.asarray(m, dtype=float)
    rows, cols = m.shape
    uu = None
    if k <= min(rows, cols):
        wide = rows <= cols
        lam, vecs = np.linalg.eigh(m @ m.T if wide else m.T @ m)
        lam = np.clip(lam[::-1][:k], 0.0, None)
        if lam[0] > 0.0 and lam[-1] >= _GRAM_RCOND * lam[0]:
            vecs = vecs[:, ::-1][:, :k]
            uu = vecs if wide else np.linalg.qr(m @ vecs)[0]
            sv = np.sqrt(lam)
    if uu is None:
        uu, sv, _ = np.linalg.svd(m, full_matrices=False)
        if uu.shape[1] < k:
            uu = _complete_orthonormal(uu, k)
            sv = np.concatenate([sv, np.zeros(k - sv.size)])
        uu, sv = uu[:, :k], sv[:k]
    uu = uu * _column_signs(uu)
    if return_values:
        return uu, sv
    return uu


def _complete_orthonormal(basis, k):
    # deterministic completion: QR against identity columns
    n = basis.shape[0]
    qq, _ = np.linalg.qr(np.hstack([basis, np.eye(n)]))
    return qq[:, :k]


def normalize_or_zero(vec):
    """Rescale to unit norm, or return the zero vector unchanged."""
    nrm = float(np.linalg.norm(vec))
    if nrm <= _TINY:
        return np.zeros_like(vec), 0.0
    return vec / nrm, nrm


def _column_signs(m):
    """-1 for each column whose largest-magnitude entry is negative, else 1."""
    peak = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    return np.where(peak < 0, -1.0, 1.0)


def canonicalize_cp_signs(U, V, W):
    """Make the largest-magnitude entry of each u and v column positive.

    Sign flips are applied in (u, w) and (v, w) pairs so every rank-one
    term, and in particular the non-negative weights, are unchanged; the
    w columns absorb the parity.
    """
    su, sv = _column_signs(U), _column_signs(V)
    return U * su, V * sv, W * (su * sv)


def _column_nnz(*factors):
    return {m: [int(n) for n in np.count_nonzero(f, axis=0)]
            for m, f in zip(_MODES, factors)}


def sort_components(U, V, W, d):
    order = np.argsort(-np.asarray(d, dtype=float), kind="stable")
    return U[:, order], V[:, order], W[:, order], np.asarray(d)[order], order


def _random_unit(rng, dim):
    vec = rng.standard_normal(dim)
    nrm = np.linalg.norm(vec)
    while nrm <= _TINY:  # pragma: no cover - essentially impossible
        vec = rng.standard_normal(dim)
        nrm = np.linalg.norm(vec)
    return vec / nrm


def init_rank_one(x, init, rng):
    """Starting (v, w) pair: leading mode-2/mode-3 singular vectors, or random."""
    if init == "hosvd":
        v = leading_singular_vectors(matricize(x, 2), 1)[:, 0]
        w = leading_singular_vectors(matricize(x, 3), 1)[:, 0]
        return v, w
    return _random_unit(rng, x.shape[1]), _random_unit(rng, x.shape[2])


def _init_cp_factors(x, K, init, rng):
    if init == "hosvd":
        return tuple(leading_singular_vectors(matricize(x, m), K)
                     for m in (1, 2, 3))
    factors = []
    for dim in x.shape:
        cols = np.column_stack([_random_unit(rng, dim) for _ in range(K)])
        factors.append(cols)
    return tuple(factors)


# ---------------------------------------------------------------------------
# CP alternating least squares


def _als(x, K: int, cfg: SolverConfig, method: str,
         steps=(None, None, None)) -> CpModel:
    """K-component CP fit by alternating per-mode least-squares updates.

    Each sweep updates U, V and W in turn.  A mode's update gets the
    Khatri-Rao normal equations (``gram``, ``corr``) of the other two
    factors and the current scaled factor as a warm start, and
    ``steps[m](gram, corr, warm)`` returns the scaled factor with the
    penalty level it used.  A None step is the exact normal-equation
    solve, which falls back to the pseudo-inverse (flagged ``used_pinv``)
    when the system is singular.  Columns are rescaled to unit norm with
    the weights taken as the column norms; a column whose weight vanishes
    is zeroed in a penalized mode and keeps its previous direction
    otherwise.  Iteration stops when the relative residual changes by
    less than ``tol``.
    """
    x = check_tensor3(x)
    if K < 1:
        raise ValueError("K must be >= 1")
    factors = list(_init_cp_factors(x, K, cfg.init, cfg.rng()))
    d = np.zeros(K)
    levels = [0.0, 0.0, 0.0]
    diagnostics: dict[str, Any] = {"method": method, "used_pinv": False}

    def exact(gram, corr, warm):
        if np.linalg.cond(gram) < 1e12:
            return np.linalg.solve(gram, corr.T).T, 0.0
        diagnostics["used_pinv"] = True
        return corr @ np.linalg.pinv(gram), 0.0

    norm_x = frob_norm(x)
    if norm_x == 0.0:
        factors = [f if step is None else np.zeros_like(f)
                   for f, step in zip(factors, steps)]
        diagnostics.update(iterations=0, converged=True, residual_norm=0.0,
                           lambdas={m: [0.0] for m in _MODES})
        return CpModel(*factors, d, diagnostics)

    unfoldings = [matricize(x, m) for m in (1, 2, 3)]
    residual_trace, objective_trace = [], []
    prev_obj = None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        for m in range(3):
            # design matrix for our fiber order is kron(b_k, a_k) per column
            a, b = (f for o, f in enumerate(factors) if o != m)
            gram = (a.T @ a) * (b.T @ b)
            corr = unfoldings[m] @ khatri_rao(b, a)
            scaled, levels[m] = (steps[m] or exact)(gram, corr,
                                                    factors[m] * d)
            d = np.linalg.norm(scaled, axis=0)
            live = d > _TINY
            factors[m][:, live] = scaled[:, live] / d[live]
            if steps[m] is not None:
                factors[m][:, ~live] = 0.0
        resid = frob_norm(x - CpModel(*factors, d).reconstruct())
        residual_trace.append(resid)
        objective_trace.append(0.5 * resid ** 2 + sum(
            lev * float(np.sum(np.abs(f))) for lev, f in zip(levels, factors)))
        obj = resid / norm_x
        if prev_obj is not None and abs(prev_obj - obj) < cfg.tol:
            converged = True
            break
        prev_obj = obj

    U, V, W, d, order = sort_components(*factors, d)
    U, V, W = canonicalize_cp_signs(U, V, W)
    diagnostics.update(
        iterations=iterations,
        converged=converged,
        residual_norm=residual_trace[-1],
        residual_trace=np.asarray(residual_trace),
        objective_traces=[np.asarray(objective_trace)],
        lambdas={m: [lev] for m, lev in zip(_MODES, levels)},
        nnz=_column_nnz(U, V, W),
    )
    return CpModel(U, V, W, d, diagnostics)


def cp_als(x, K: int, cfg: SolverConfig | None = None) -> CpModel:
    """Fit a K-component CP model by alternating least squares.

    Each mode is updated by solving the Khatri-Rao normal equations with
    the other factors fixed, then rescaling columns to unit norm with the
    weights taken as the column norms.  The Frobenius residual is
    non-increasing across sweeps; a singular normal system falls back to
    the pseudo-inverse and is flagged in the diagnostics.
    """
    return _als(x, K, cfg or SolverConfig(), "cp-als")


# ---------------------------------------------------------------------------
# Tucker decompositions


def _check_ranks(x, ranks):
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != 3 or min(ranks) < 1:
        raise ValueError(f"ranks must be three positive integers, got {ranks}")
    for r, dim in zip(ranks, x.shape):
        if r > dim:
            raise ValueError(f"rank {r} exceeds tensor dim {dim}")
    return ranks


def _tucker_core(x, U, V, W):
    return mode_mult(mode_mult(mode_mult(x, U.T, 1), V.T, 2), W.T, 3)


def _svd_step(m, k):
    return leading_singular_vectors(m, k), [0.0] * k


def _tucker(x, ranks, method: str, steps=(None, None, None),
            cfg: SolverConfig | None = None) -> TuckerModel:
    """Tucker factors from one step per mode: HOSVD, then with ``cfg``
    HOOI sweeps under its iteration controls.

    ``steps[m](unfolding, rank)`` returns ``rank`` factor columns and the
    penalty level of each; a None step takes the leading singular
    vectors.  The HOSVD start runs the steps on the unfoldings of ``x``;
    each sweep re-estimates every factor from ``x`` projected onto the
    other two.  Convergence (relative core-norm change below ``tol``) is
    first checked at sweep 2.  The sweep with the largest core norm is
    returned, ties going to the later sweep; the core-norm trace starts
    with the HOSVD start.
    """
    x = check_tensor3(x)
    ranks = _check_ranks(x, ranks)
    steps = [step or _svd_step for step in steps]
    factors, levels = [], {}
    for m, (step, k) in enumerate(zip(steps, ranks)):
        f, levels[_MODES[m]] = step(matricize(x, m + 1), k)
        factors.append(f)
    core = _tucker_core(x, *factors)
    diagnostics: dict[str, Any] = {"method": method}
    if cfg is not None:
        trace = [frob_norm(core)]
        best, best_norm = (factors, core, levels), trace[0]
        iterations, converged = 0, True
        if frob_norm(x) > 0.0:
            prev, converged = None, False
            for iterations in range(1, cfg.max_iter + 1):
                factors, levels = list(factors), dict(levels)
                for m in range(3):
                    y = x
                    for o in range(3):
                        if o != m:
                            y = mode_mult(y, factors[o].T, o + 1)
                    factors[m], levels[_MODES[m]] = steps[m](
                        matricize(y, m + 1), ranks[m])
                core = mode_mult(y, factors[2].T, 3)
                trace.append(frob_norm(core))
                if trace[-1] >= best_norm:
                    best, best_norm = (factors, core, levels), trace[-1]
                if prev is not None and abs(trace[-1] - prev) <= cfg.tol * max(
                        prev, _TINY):
                    converged = True
                    break
                prev = trace[-1]
        factors, core, levels = best
        diagnostics.update(iterations=iterations, converged=converged,
                           core_norm=best_norm,
                           core_norm_trace=np.asarray(trace))
    diagnostics.update(lambdas=levels, nnz=_column_nnz(*factors))
    return TuckerModel(*factors, core, diagnostics)


def hosvd(x, ranks) -> TuckerModel:
    """Tucker factors from the leading singular vectors of each unfolding."""
    return _tucker(x, ranks, "hosvd")


def hooi(x, ranks, cfg: SolverConfig | None = None) -> TuckerModel:
    """Higher-order orthogonal iteration, initialized from the HOSVD.

    Each sweep re-estimates every factor from the singular vectors of the
    tensor projected onto the other two factors, so the core norm is
    non-decreasing; stops when its relative change drops below ``tol``.
    """
    return _tucker(x, ranks, "hooi", cfg=cfg or SolverConfig())


# ---------------------------------------------------------------------------
# the rank-one engine and the deflation loop behind every greedy method


@dataclass(frozen=True)
class PenaltyFn:
    """A convex, order-one homogeneous penalty with its proximal map.

    ``prox(y, scale)`` must return ``argmin 0.5*||y - z||^2 + scale * P(z)``
    and ``prox(y, 0)`` must reduce to projection onto the penalty's
    domain (the identity for unconstrained penalties).
    """

    name: str
    evaluate: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]


_NO_PENALTY = PenaltyFn("none", lambda x: 0.0, lambda y, scale: y)


@dataclass(frozen=True)
class _ModeUpdate:
    """How the rank-one engine updates one factor.

    The factor is the normalized ``prox`` of the contraction of the tensor
    against the other two factors, at a fixed ``level`` or, when ``grid``
    is set, at the level BIC selects over ``grid(contraction)`` on every
    update.  With an operator ``q`` the contraction is q-weighted, the
    update solves the q-weighted lasso at ``level`` and normalizes in the
    q-norm.
    """

    prox: PenaltyFn = _NO_PENALTY
    level: float = 0.0
    grid: Callable[[np.ndarray], np.ndarray] | None = None
    q: np.ndarray | None = None


_PLAIN = (_ModeUpdate(),) * 3


def _project_out(vec, basis):
    if basis is not None and basis.shape[1]:
        vec = vec - basis @ (basis.T @ vec)
    return vec


def _q_normalize(y, q):
    nrm = float(np.sqrt(max(float(y @ (q @ y)), 0.0)))
    if nrm <= _TINY:
        return np.zeros_like(y), 0.0
    return y / nrm, nrm


def _feasible_start(vec, upd):
    """A unit starting factor projected onto the mode's domain and
    normalized again (kept as is when the projection leaves it alone)."""
    if upd.q is not None:
        return _q_normalize(vec, upd.q)
    proj = upd.prox.prox(vec, 0.0)
    if np.array_equal(proj, vec):
        return vec, 1.0
    return normalize_or_zero(proj)


def _rank_one(x, updates, cfg, rng, basis=(None, None, None)) -> RankOneFit:
    """Penalized rank-one fit by alternating factor updates.

    Each sweep updates u, v and w in turn as ``updates`` describe; with
    fixed levels every update increases the penalized (q-weighted)
    contraction ``<x, u o v o w> - sum level * P(factor)``, recorded in
    the objective trace.  ``basis`` holds previous same-mode factors
    that each update is projected against before normalization.  A
    factor that vanishes at level 0 restarts the fit from a random start
    (up to five times, then the zero fit); one that vanishes at a
    positive level ends it with the zero fit.
    """
    if any(upd.q is not None for upd in updates):
        from .generalized import _power_lambda_max, qnorm_lasso_solve
    norm_sq = (frob_norm(x) ** 2 if any(upd.grid is not None
                                        for upd in updates) else None)
    lips: list[float | None] = [None, None, None]
    warm: list[np.ndarray | None] = [None, None, None]
    lam = [0.0, 0.0, 0.0]

    def weighted(m, f):
        q = updates[m].q
        return f if q is None else q @ f

    def update(m, c):
        upd = updates[m]
        if upd.grid is not None:
            grid = upd.grid(c)
            values, _ = bic_path(norm_sq, x.size, c, grid, upd.prox.prox)
            lam[m] = float(grid[np.flatnonzero(values == values.min())[-1]])
        if upd.q is None:
            return normalize_or_zero(upd.prox.prox(_project_out(c, basis[m]),
                                                   lam[m]))
        if lam[m] > 0.0:
            if lips[m] is None:
                lips[m] = _power_lambda_max(upd.q)
            c = warm[m] = qnorm_lasso_solve(c, upd.q, lam[m],
                                            lipschitz=lips[m], start=warm[m])
        return _q_normalize(c, upd.q)

    def penalty(m, f):
        return lam[m] * updates[m].prox.evaluate(f) if lam[m] else 0.0

    iterations = 0
    trace: list[float] = []

    def zero_fit():
        return RankOneFit(np.zeros(x.shape[0]), np.zeros(x.shape[1]),
                          np.zeros(x.shape[2]), 0.0, iterations, True,
                          np.asarray(trace), dict(zip(_MODES, lam)))

    for attempt in range(6):  # the configured start plus 5 random restarts
        lam[:] = [upd.level for upd in updates]
        v0, w0 = init_rank_one(x, cfg.init if attempt == 0 else "random", rng)
        (v, nv), (w, nw) = (_feasible_start(v0, updates[1]),
                            _feasible_start(w0, updates[2]))
        if nv == 0.0 or nw == 0.0:
            continue
        factors = [np.zeros(x.shape[0]), v, w]
        qf = [factors[0], weighted(1, v), weighted(2, w)]
        trace, prev, converged, restart = [], None, False, False
        for iterations in range(1, cfg.max_iter + 1):
            # x contracted with w feeds both the u- and the v-update
            xw = np.tensordot(x, qf[2], axes=(2, 0))
            for m in range(3):
                if m == 0:
                    c = np.tensordot(xw, qf[1], axes=(1, 0))
                elif m == 1:
                    c = np.tensordot(xw, qf[0], axes=(0, 0))
                else:
                    c = contract_w(x, qf[0], qf[1])
                f, nrm = update(m, c)
                if nrm == 0.0:
                    if lam[m] > 0.0:
                        return zero_fit()
                    restart = True
                    break
                factors[m], qf[m] = f, weighted(m, f)
                d = float(f @ weighted(m, c))
                objective = (d - penalty(0, factors[0]) - penalty(1, factors[1])
                             - penalty(2, factors[2]))
                trace.append(objective)
            if restart:
                break
            if prev is not None and abs(objective - prev) <= cfg.tol * max(
                    abs(prev), _TINY):
                converged = True
                break
            prev = objective
        if not restart:
            return RankOneFit(*factors, d, iterations, converged,
                              np.asarray(trace), dict(zip(_MODES, lam)))
    iterations, trace = 0, []
    return zero_fit()


def _engine_fit(updates, cfg):
    """The rank-one engine with fixed updates, as ``fit_one`` for deflate."""
    return lambda resid, rng, basis: _rank_one(resid, updates, cfg, rng, basis)


def deflate(x, K: int, fit_one, cfg: SolverConfig, method: str,
            orthogonalize: bool = False) -> CpModel:
    """Greedy K-component CP model: rank-one fits on running residuals.

    ``fit_one(residual, rng, basis)`` returns a :class:`RankOneFit` with
    unit (or zero) factors; ``basis`` holds the previous factors per mode
    when ``orthogonalize`` is set, else Nones.  The generator from
    ``cfg`` is shared by all components.  A zero tensor or a zero fit
    truncates the model (remaining columns zero-filled, ``truncated_at``
    set).  Components are sorted by descending weight; the per-component
    diagnostics stay in the greedy order, which ``component_order`` maps.
    """
    x = check_tensor3(x)
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = cfg.rng()
    n, p, q = x.shape
    U, V, W = np.zeros((n, K)), np.zeros((p, K)), np.zeros((q, K))
    d = np.zeros(K)
    traces, iters, converged = [], [], []
    lambdas: dict[str, list[float]] = {m: [] for m in _MODES}
    nnz: dict[str, list[int]] = {m: [] for m in _MODES}
    resid = x.copy()
    truncated_at = None
    for k in range(K):
        if frob_norm(resid) == 0.0:
            truncated_at = k
            break
        basis = ((U[:, :k], V[:, :k], W[:, :k]) if orthogonalize and k
                 else (None, None, None))
        fit = fit_one(resid, rng, basis)
        traces.append(fit.objective_trace)
        iters.append(fit.iterations)
        converged.append(fit.converged)
        for mode, vec in zip(_MODES, (fit.u, fit.v, fit.w)):
            lambdas[mode].append(fit.lambdas.get(mode, 0.0))
            nnz[mode].append(int(np.count_nonzero(vec)))
        if fit.d <= 0.0:
            truncated_at = k
            break
        U[:, k], V[:, k], W[:, k], d[k] = fit.u, fit.v, fit.w, fit.d
        resid = resid - fit.d * (fit.u[:, None, None] * fit.v[None, :, None]
                                 * fit.w[None, None, :])

    greedy_d = d.copy()
    U, V, W, d, order = sort_components(U, V, W, d)
    U, V, W = canonicalize_cp_signs(U, V, W)
    return CpModel(U, V, W, d, {
        "method": method,
        "objective_traces": traces,
        "iterations_per_component": iters,
        "converged_per_component": converged,
        "lambdas": lambdas,
        "nnz": nnz,
        "greedy_d": greedy_d,
        "component_order": order,
        "residual_norm": frob_norm(resid),
        "truncated_at": truncated_at,
    })


def tpa_rank_one(x, cfg: SolverConfig | None = None) -> RankOneFit:
    """Best rank-one fit by alternating normalized contractions.

    The objective (the triple contraction) is non-decreasing across factor
    updates and the returned weight is its value at convergence.  A
    vanishing contraction triggers up to five random re-initializations
    before falling back to the zero fit.
    """
    x = check_tensor3(x)
    cfg = cfg or SolverConfig()
    if frob_norm(x) == 0.0:
        raise ValueError("input tensor is zero")
    return _rank_one(x, _PLAIN, cfg, cfg.rng())


def tpa(x, K: int, cfg: SolverConfig | None = None) -> CpModel:
    """Greedy K-component CP model: rank-one fits on running residuals.

    With ``cfg.orthogonalize`` each new factor is Gram-Schmidt projected
    against the previous factors of the same mode after every update.  A
    zero rank-one fit truncates the model (remaining components are
    zero-filled and flagged).  Components are sorted by descending weight;
    the greedy order is kept in the diagnostics.
    """
    cfg = cfg or SolverConfig()
    model = deflate(x, K, _engine_fit(_PLAIN, cfg), cfg, "tpa",
                    cfg.orthogonalize)
    model.diagnostics["orthogonalized"] = cfg.orthogonalize
    return model
