"""Unregularized decompositions: CP-ALS, HOSVD, HOOI, and the greedy
rank-one power scheme with deflation (optionally Gram-Schmidt
orthogonalized), on the penalized rank-one engine and the deflation loop
that the sparse and generalized solvers share.  Each public solver is
one call of a shared loop: the engine's entry points (:func:`_fit_rank_one`
for one fit, :func:`_fit_greedy` for a deflation, :func:`_fit_unfolding`
for the penalized PCA of an unfolding), :func:`deflate`, the ALS loop or
the Tucker loop.  Each loop enters through :func:`_shared_grams`, which
checks a tensor when it opens a block on it (finite entries, a squared
norm below overflow), so a fit inside a block open on its tensor
never checks it again.  The loops default and reject the config (the
Tucker loop sweeps only when asked) and end the diagnostics with each
method's extras.  Each loop takes one :class:`_ModeUpdate` per mode.
The engine's update rule is :func:`_level` (a fixed level or BIC over a
grid) and :func:`_penalty`.  The Tucker loop runs :func:`_tucker_pass`
for its HOSVD start and each HOOI sweep: a penalized mode takes the
left factors of :func:`_fit_unfolding`, the engine on the view
``m[:, :, None]`` of the unfolding ``m``, whose size-one third mode with
a plain update is the fixed factor ``[1.0]``: no start, no update, and
the product the view ``x[:, :, 0]``.

Solvers keep no state between calls, only read their input tensor and
may run concurrently.  The one shared value is context-local: inside
:func:`_shared_grams`, which a table replicate, a ROC sweep and every
shared loop open around their fits of one tensor, the Gram of each
unfolding, its singular vectors from Lanczos top pairs
(:func:`_top_pairs`), ``||x||`` and each Tucker start are formed once,
each kept by key in the block's one store, which only :func:`_kept`
reads and fills.  The memo lives in a ``ContextVar``, unseen by other
threads and contexts, and serves that one tensor only, never a
residual.  No Gram, start or penalized PCA copies an unfolding where
its column order does not matter (:func:`_unfolding`): modes 1 and 3
are reshape views, and mode 2's Gram sums slab products.

Deflation does not form its residual either.  :func:`_greedy` runs every
deflation: each later component is fit to ``x`` and the terms accepted
so far (:class:`_Terms`), which give each contraction, the norm BIC
reads and the SVD start (the top eigenvector of the memo's Gram updated
by the terms) in closed form.  Only a nearly vanished residual is
formed, and one at the rounding level of ``x`` ends the run.  The ALS
loop reads its residual norm from the same closed form
(:func:`_cp_norm_sq`) and takes its products on views of ``x``.  Factor
columns are unit norm; rank-one weights are non-negative; components are
sorted by descending weight, the greedy order kept in the diagnostics.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from copy import deepcopy
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .evaluate import _bic_argmin, bic_path
from .tensor3 import (_mode_mult3, check_tensor3, frob_norm, khatri_rao,
                      matricize, mode_mult)

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
_EPS = np.finfo(float).eps
_MODES = ("u", "v", "w")
# smallest sigma_k^2 / sigma_1^2 for which the Gram route keeps its accuracy
_GRAM_RCOND = 1e-8
# Lanczos steps a run may take (a Gram no larger takes one eigh instead),
# and the Ritz residual, relative to the top eigenvalue, that ends it
_LANCZOS_STEPS = 24
_RITZ_RTOL = 1e-14
# entries per slab of the mode-2 Gram's slab products
_SLAB = 1 << 16
_OVERFLOW = "finite entries, but the squared norm overflows float64: rescale"


@dataclass
class SolverConfig:
    """Iteration controls shared by every solver.

    ``tol`` is the stopping threshold: a loop stops once its objective
    changes by at most ``tol`` times its previous value, except the ALS
    loop (cp-als, sparse-cp-als), which stops once the relative residual
    ``||x - model|| / ||x||`` changes by less than ``tol``, an absolute
    change.  ``init`` selects between leading-singular-vector and random
    starting factors; ``orthogonalize`` enables Gram-Schmidt projection
    of each new deflation component against the previous ones.  A solver
    raises ValueError for a setting it would ignore: ``orthogonalize``
    outside :func:`tpa`, and ``init="random"`` in the Tucker methods and
    the penalized PCA of :mod:`hopca.sparse`, which always start from
    leading singular vectors.
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


def _reject_unread(cfg: SolverConfig, svd_start: bool = False) -> None:
    """Raise ValueError for a setting the solver at hand would ignore:
    ``orthogonalize`` everywhere but :func:`tpa`, and a random ``init``
    where the solver always starts from leading singular vectors."""
    if cfg.orthogonalize:
        raise ValueError("SolverConfig.orthogonalize applies only to tpa")
    if svd_start and cfg.init != "hosvd":
        raise ValueError(f"SolverConfig.init={cfg.init!r} does not apply: "
                         "this method starts from leading singular vectors")


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
        return _mode_mult3(self.core, self.U, self.V, self.W)


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


def _times_w(x, w):
    """x contracted along mode 3 with ``w``: n x p matrix, the view
    ``x[:, :, 0]`` when ``w`` is ``[1.0]`` (bit for bit the product)."""
    n, p, q = x.shape
    if q == 1 and w[0] == 1.0:
        return x[:, :, 0]
    return np.dot(x.reshape(n * p, q), w).reshape(n, p)


def contract_u(x, v, w):
    """x contracted along modes 2 and 3: length-n vector (x is not copied
    when C-contiguous)."""
    return np.dot(_times_w(x, w), v)


def contract_v(x, u, w):
    """x contracted along modes 1 and 3: length-p vector (x is not copied
    when C-contiguous)."""
    return np.dot(_times_w(x, w).T, u)


def contract_w(x, u, v):
    """x contracted along modes 1 and 2: length-q vector (x is not copied
    when C-contiguous)."""
    n, p, q = x.shape
    return np.dot(np.dot(u, x.reshape(n, p * q)).reshape(p, q).T, v)


def leading_singular_vectors(m, k, return_values=False, gram=None):
    """First ``k`` left singular vectors of ``m`` (orthonormal columns).

    They are the Lanczos top pairs (:func:`_top_pairs`) of the smaller
    Gram: ``m m^T`` for a wide or square ``m``; ``m^T m`` for a tall one,
    whose top eigenvectors ``v`` map back through ``m v``, orthonormalized
    by QR.  The singular values are the square roots of the clipped
    eigenvalues.  Squaring ``m`` squares its condition number, so a plain
    SVD is used instead when ``sigma_k^2 < 1e-8 sigma_1^2`` (the Gram
    vectors would then be off by about ``eps sigma_1^2 / sigma_k^2``),
    when ``m`` is zero, or when ``k`` exceeds the column count (its basis
    is then completed to ``k`` columns).  Each column's largest-magnitude
    entry is made positive, so the result does not depend on the route.
    With ``return_values`` the first ``k`` singular values come too, and
    ``gram`` is that Gram if the caller has it.  ``k`` above the row count
    raises ValueError: no more than ``rows`` orthonormal columns exist.
    """
    m = np.asarray(m, dtype=float)
    rows, cols = m.shape
    if k > rows:
        raise ValueError(f"cannot take {k} orthonormal columns of length "
                         f"{rows}")
    if gram is None and k <= min(rows, cols):
        gram = m @ m.T if rows <= cols else m.T @ m
    top = _top_pairs(gram, k) if k <= min(rows, cols) else None
    if top is not None:
        uu, sv = top[0], np.sqrt(top[1])
        if rows > cols:
            uu = np.linalg.qr(m @ uu)[0]
    else:
        uu, sv, _ = np.linalg.svd(m, full_matrices=False)
        if uu.shape[1] < k:
            uu = _complete_orthonormal(uu, k)
            sv = np.concatenate([sv, np.zeros(k - sv.size)])
        uu, sv = uu[:, :k], sv[:k]
    uu = uu * _column_signs(uu)
    return (uu, sv) if return_values else uu


def _top_pairs(gram, k, update=None, scale=None):
    """The top ``k`` eigenpairs (vectors, values clipped at 0) of the Gram
    ``G = gram`` or, with ``update = (A, C, d, M)``, of ``H = G - A D C^T -
    C D A^T + A D M D A^T`` (``D = diag(d)``); None when the ``k``-th value
    is 0 or below ``_GRAM_RCOND`` times ``scale`` (default: the top one).

    For ``k`` of 1 or 2 above order ``_LANCZOS_STEPS`` they are
    :func:`_lanczos`'s, its products through ``G`` and the terms; else,
    or where those do not converge, ``eigh`` of ``H``.
    """
    times, order = gram.__matmul__, gram.shape[0]
    if update is not None:
        a, c, d, mid = update
        ad = a * d

        def times(y):
            t = ad.T @ y
            return gram @ y - ad @ (c.T @ y) - c @ t + ad @ (mid @ t)

    pairs = (_lanczos(times, order, k, scale)
             if k <= 2 and _LANCZOS_STEPS < order else None)
    if pairs is None:
        if update is not None:
            ac = ad @ c.T
            gram = gram - ac - ac.T + ad @ mid @ ad.T
        lam, vecs = np.linalg.eigh(gram)
        pairs = lam[::-1][:k], vecs[:, ::-1][:, :k]
    lam = np.clip(pairs[0], 0.0, None)
    if lam[0] > 0.0 and lam[-1] >= _GRAM_RCOND * (
            lam[0] if scale is None else scale):
        return pairs[1], lam
    return None


def _lanczos(times, order, k, scale=None):
    """The top ``k`` eigenpairs (values, vectors) of the symmetric ``H``
    of that order whose product is ``times``: per pair, the top Ritz pair
    of Lanczos with full reorthogonalization (Golub & Van Loan 2013,
    10.1-10.3) on ``H`` less the pairs before it, as one run sees a tied
    top value once.  Each run starts from a fixed-seed normal draw (``H 1``
    or ``diag(H)`` may be orthogonal to the top eigenvector) and accepts,
    every fourth step, once ``||H y - theta y|| <= _RITZ_RTOL scale``
    (default: the top value); None when a run takes over
    ``_LANCZOS_STEPS`` steps.
    """
    rng = np.random.default_rng(0)
    basis = np.zeros((order, k + _LANCZOS_STEPS))  # found pairs, then a run
    values = np.zeros(k)
    for i in range(k):
        tri = np.zeros((_LANCZOS_STEPS + 1,) * 2)  # tridiagonal, lower half
        basis[:, i] = normalize_or_zero(
            _project_out(rng.standard_normal(order), basis[:, :i]))[0]
        for j in range(_LANCZOS_STEPS):
            q = basis[:, :i + j + 1]
            w = times(q[:, -1])
            for _ in range(2):  # twice is enough (Giraud et al. 2005)
                h = q.T @ w
                w -= q @ h
                tri[j, j] += h[-1]
            tri[j + 1, j] = beta = math.sqrt(np.dot(w, w))
            if j % 4 == 3 or beta == 0.0:
                theta, s = np.linalg.eigh(-tri[:j + 1, :j + 1])  # top first
                values[i] = -theta[0]
                if beta * abs(s[j, 0]) <= _RITZ_RTOL * (
                        values[0] if scale is None else scale):
                    basis[:, i:i + 1] = q[:, i:] @ s[:, :1]
                    break
            if beta == 0.0 or j == _LANCZOS_STEPS - 1:
                return None
            basis[:, i + j + 1] = w / beta
    return values, basis[:, :k]


def _complete_orthonormal(basis, k):
    # deterministic completion: QR against identity columns
    return np.linalg.qr(np.hstack([basis, np.eye(basis.shape[0])]))[0][:, :k]


def normalize_or_zero(vec, q=None):
    """Rescale to unit norm, the q-norm ``sqrt(vec^T q vec)`` with an
    operator ``q``, or return the zero vector unchanged (a norm of at
    most ``_TINY``); with the norm."""
    nrm = (math.sqrt(np.dot(vec, vec)) if q is None
           else math.sqrt(max(float(vec @ (q @ vec)), 0.0)))
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


def _converged(prev, value, tol) -> bool:
    """The relative stopping rule: ``value`` is within ``tol * |prev|`` of
    the previous value ``prev`` (False while there is none)."""
    return prev is not None and abs(value - prev) <= tol * max(abs(prev),
                                                               _TINY)


class _Loop:
    """One run of an alternating loop: the sweeps it ran, whether its
    stopping rule held, and its objective trace.

    ``for _ in loop.sweeps()`` counts the sweeps off, at most
    ``cfg.max_iter``, and ends after the sweep whose :meth:`stop` held;
    a loop marked ``converged`` before it starts runs none.  ``rule(prev,
    value, tol)`` is the stopping rule (:func:`_converged` unless given),
    applied to each sweep's value and the one before it.
    """

    def __init__(self, cfg: SolverConfig, objective_trace=(),
                 rule=_converged):
        self.max_iter, self.tol, self.rule = cfg.max_iter, cfg.tol, rule
        self.iterations, self.converged = 0, False
        self.objective_trace = list(objective_trace)
        self._prev = None

    def sweeps(self):
        while not self.converged and self.iterations < self.max_iter:
            self.iterations += 1
            yield self.iterations

    def stop(self, value) -> None:
        """Apply the stopping rule to this sweep's ``value``."""
        self.converged = self.rule(self._prev, value, self.tol)
        self._prev = value


def _diagnostics(method: str, loops, lambdas, nnz, **extras) -> dict:
    """The diagnostics of every model: its ``method``; per loop, in run
    order, its ``iterations``, ``converged`` flag and objective trace
    (``objective_traces``), from each loop's fields of those names (a
    :class:`_Loop`, :class:`RankOneFit` or penalized-PCA fit); the
    penalty ``lambdas`` and ``nnz`` per mode; then the method's
    ``extras``."""
    return {"method": method,
            "iterations": [loop.iterations for loop in loops],
            "converged": [bool(loop.converged) for loop in loops],
            "objective_traces": [np.asarray(loop.objective_trace, dtype=float)
                                 for loop in loops],
            "lambdas": lambdas, "nnz": nnz, **extras}


def _cp_norm_sq(norm_sq_x, factors, d, inner) -> float:
    """``||x - sum_k d_k u_k o v_k o w_k||^2`` in closed form, ``||x||^2 -
    2 d^T inner + d^T (U^T U * V^T V * W^T W) d``, from ``||x||^2``, the
    factors (U, V, W), the weights and ``inner[k] = <x, u_k o v_k o w_k>``
    (Kolda & Bader 2009)."""
    U, V, W = factors
    cross = (U.T @ U) * (V.T @ V) * (W.T @ W)
    return norm_sq_x - 2.0 * float(d @ inner) + float(d @ cross @ d)


def _random_unit(rng, dim):
    vec = rng.standard_normal(dim)
    nrm = np.linalg.norm(vec)
    while nrm <= _TINY:  # pragma: no cover - essentially impossible
        vec = rng.standard_normal(dim)
        nrm = np.linalg.norm(vec)
    return vec / nrm


# (the read-only view a _shared_grams block is open on, what it keeps by
# key: "norm", ("gram", mode, side), (mode, k), (ranks, updates, config))
_GRAMS: ContextVar[tuple | None] = ContextVar("_GRAMS", default=None)


@contextmanager
def _shared_grams(x, norm=None):
    """Check ``x`` (:func:`check_tensor3`, and that ``||x||^2`` does not
    overflow) and yield a read-only view of it.  Within the block
    :func:`_kept` keeps what is computed of that very view (``is``, not
    equality) once, read-only: the norm that check computed
    (:func:`_norm`), the Gram of each unfolding (:func:`_smaller_gram`),
    its leading singular vectors for each (mode, k), from its Lanczos top
    pairs, and each Tucker start (:func:`_tucker`).  Opened on the view of
    an enclosing block, the block is that block, and ``x`` is neither
    checked nor scanned again.  With ``norm`` the caller answers for
    ``x``, a float array of that norm, and the block opens on it
    unchecked."""
    if _memo(x) is not None:
        yield x
        return
    if norm is None:
        x = check_tensor3(x)
        with np.errstate(over="ignore"):  # the error below says so
            norm = frob_norm(x)
        if math.isinf(norm):
            raise ValueError(_OVERFLOW)
    view = x.view()
    view.flags.writeable = False
    token = _GRAMS.set((view, {"norm": norm}))
    try:
        yield view
    finally:
        _GRAMS.reset(token)


def _memo(x):
    """The memo of a :func:`_shared_grams` block open on ``x`` itself,
    else None."""
    memo = _GRAMS.get()
    return memo if memo is not None and memo[0] is x else None


def _kept(x, key, make):
    """The value a block open on ``x`` keeps under ``key``, else
    ``make()``, which such a block keeps with its arrays (a tuple's too)
    read-only; outside a block just ``make()``."""
    memo = _memo(x)
    if memo is None:
        return make()
    if key not in memo[1]:
        value = make()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        memo[1][key] = value
    return memo[1][key]


def _norm(x) -> float:
    """``||x||``: kept by a block open on ``x``, else computed."""
    return _kept(x, "norm", lambda: frob_norm(x))


def _unfolding(x, mode):
    """The mode-``mode`` unfolding of ``x``, its columns in the order that
    reads ``x`` in place: ``x.reshape(n, p q)`` for mode 1 and
    ``x.reshape(n p, q).T`` for mode 3, views of a C-contiguous ``x``.
    Mode 2 has no such view, so it is :func:`matricize`'s copy (the view
    ``x[:, :, 0].T`` for a size-one third mode).  An unfolding's column
    order is a convention (Kolda & Bader 2009, section 2.4): its row Gram
    and left singular vectors do not depend on it."""
    n, p, q = x.shape
    if mode == 1:
        return x.reshape(n, p * q)
    if mode == 3:
        return x.reshape(n * p, q).T
    return x[:, :, 0].T if q == 1 else matricize(x, 2)


def _unfolding_gram(x, mode, rows):
    """The Gram matrix of the mode-``mode`` unfolding ``X`` of ``x`` (see
    :func:`_unfolding`): ``X X^T`` with ``rows``, else ``X^T X`` in the
    unfolding's column order.  Mode 2's ``X X^T`` of a third mode longer
    than one sums the products of slabs ``x[i0:i1]`` of about ``_SLAB``
    entries, each copied with its mode 2 first, so that no unfolding of
    ``x`` is formed."""
    n, p, q = x.shape
    if mode == 2 and rows and q > 1:
        step = max(1, _SLAB // (p * q))
        gram = np.zeros((p, p))
        for i in range(0, n, step):
            slab = x[i:i + step].transpose(1, 0, 2).reshape(p, -1)
            gram += slab @ slab.T
            del slab  # before the next slab is copied
        return gram
    a = _unfolding(x, mode)
    return a @ a.T if rows else a.T @ a


def _gram_key(x, mode, right=False):
    """The key of :func:`_smaller_gram`: ``("gram", mode, side)``, side
    True for ``X X^T``, False for ``X^T X``."""
    rows = x.shape[mode - 1]
    cols = x.size // rows
    return "gram", mode, rows < cols if right else rows <= cols


def _smaller_gram(x, mode, right=False):
    """The smaller Gram of the mode unfolding ``X`` of ``x`` (of ``X^T``
    with ``right``), by :func:`_unfolding_gram`; a block open on ``x``
    keeps it.  The two sides of a non-square ``X`` share its smaller
    Gram; a square ``X`` keeps ``X X^T`` and ``X^T X`` apart."""
    key = _gram_key(x, mode, right)
    return _kept(x, key, lambda: _unfolding_gram(x, mode, key[2]))


def _unfolding_vectors(x, mode, k, return_values=False):
    """First ``k`` left singular vectors (and values) of the mode
    unfolding of ``x``, from the top pairs of :func:`_smaller_gram`; a
    block open on ``x`` keeps them per k.
    :func:`leading_singular_vectors` gets the views of
    :func:`_unfolding` for modes 1 and 3 (and mode 2 of a size-one third
    mode); any other mode-2 unfolding is formed only where that function
    reads it (a tall unfolding, or the SVD fallback), and a wide one's
    Gram route takes no matrix."""
    def make():
        rows = x.shape[mode - 1]
        gram = (_smaller_gram(x, mode) if k <= min(rows, x.size // rows)
                else None)
        # a wide mode-2 unfolding with q > 1 is a copy the Gram route skips
        top = (_top_pairs(gram, k) if gram is not None and mode == 2
               and x.shape[2] > 1 and rows ** 2 <= x.size else None)
        if top is not None:
            return top[0] * _column_signs(top[0]), np.sqrt(top[1])
        return leading_singular_vectors(_unfolding(x, mode), k,
                                        return_values=True, gram=gram)

    top = _kept(x, (mode, k), make)
    return top if return_values else top[0]


def init_rank_one(x, init, rng):
    """Starting (v, w) pair: leading mode-2/mode-3 singular vectors (of a
    size-one mode, ``[1.0]``), or random."""
    if init != "hosvd":
        return _random_unit(rng, x.shape[1]), _random_unit(rng, x.shape[2])
    return tuple(_unfolding_vectors(x, mode, 1)[:, 0] if x.shape[mode - 1] > 1
                 else np.ones(1) for mode in (2, 3))


def _init_cp_factors(x, K, init, rng):
    """K starting columns per mode: the leading singular vectors of each
    unfolding, padded with random unit columns where K exceeds the mode's
    dimension, or all random."""
    factors = []
    for m, dim in enumerate(x.shape):
        cols = (_unfolding_vectors(x, m + 1, min(K, dim))
                if init == "hosvd" else np.zeros((dim, 0)))
        pad = [_random_unit(rng, dim) for _ in range(K - cols.shape[1])]
        factors.append(np.column_stack([cols, *pad]))
    return tuple(factors)


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
    """How a loop updates one factor; ``_PLAIN[m]`` is the loop's
    unpenalized step (the ALS loop's exact solve, the Tucker loop's
    leading singular vectors).

    In the engine the factor is the normalized ``prox`` of the contraction
    of the tensor against the other two factors, at a fixed ``level`` or,
    when ``grid`` is set, at the level BIC selects over
    ``grid(contraction)`` on every update.  With an operator ``q`` the
    contraction is q-weighted, the update solves the q-weighted lasso at
    ``level`` (step bound ``lipschitz``) and normalizes in the q-norm.
    """

    prox: PenaltyFn = _NO_PENALTY
    level: float = 0.0
    grid: Callable[[np.ndarray], np.ndarray] | None = None
    q: np.ndarray | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        if not self.level >= 0:  # NaN too
            raise ValueError("penalty levels must be non-negative")


_PLAIN = (_ModeUpdate(),) * 3


# ---------------------------------------------------------------------------
# CP alternating least squares


def _als(x, K: int, cfg: SolverConfig | None, method: str,
         updates=_PLAIN, **extras) -> CpModel:
    """K-component CP fit by alternating per-mode least-squares updates.

    Each sweep updates U, V and W in turn from the Khatri-Rao normal
    equations of the other two factors: a plain update solves them
    exactly, by the pseudo-inverse (flagged ``used_pinv``) when singular,
    a penalized one by :func:`hopca.sparse._lasso_step`, warm from the
    scaled factor.  Columns are rescaled to unit norm with the weights
    taken as the column norms; a column whose weight vanishes is zeroed
    in a penalized mode and keeps its previous direction otherwise.  The
    products are taken on reshape views of ``x`` (no copy of a
    C-contiguous ``x``): ``x`` times W serves the U- and V-updates, U^T
    times ``x`` the W-update, whose products give the residual norm in
    closed form (:func:`_cp_norm_sq`); the residual is formed only when
    its squared norm is at most ``_GRAM_RCOND`` times ``||x||^2``, where
    the closed form has lost its digits.  Iteration stops when the
    relative residual changes by less than ``tol``.  ``cfg`` defaults to
    :class:`SolverConfig`; the ``extras`` end the diagnostics.
    """
    with _shared_grams(x) as x:
        cfg = cfg or SolverConfig()
        _reject_unread(cfg)
        if K < 1:
            raise ValueError("K must be >= 1")
        factors = list(_init_cp_factors(x, K, cfg.init, cfg.rng()))
        d = np.zeros(K)
        levels = [0.0, 0.0, 0.0]
        used_pinv = False
        penalized = [upd != plain for upd, plain in zip(updates, _PLAIN)]
        if any(penalized):
            from .sparse import _lasso_step
        # the absolute rule on the relative residual, not _converged
        loop = _Loop(cfg, rule=lambda prev, value, tol: (
            prev is not None and abs(prev - value) < tol))
        norm_x = _norm(x)
        residual_trace = []
        if norm_x == 0.0:  # the zero fit, from no sweep
            factors = [np.zeros_like(f) if pen else f
                       for f, pen in zip(factors, penalized)]
            loop.converged = True
        else:
            n, p, q = x.shape
            for _ in loop.sweeps():
                # x contracted with W feeds both the U- and the V-update
                xw = np.dot(x.reshape(n * p, q), factors[2]).reshape(n, p, K)
                for m in range(3):
                    a, b = (f for o, f in enumerate(factors) if o != m)
                    gram = (a.T @ a) * (b.T @ b)
                    if m < 2:  # x W contracted with V, or with the new U
                        corr = np.einsum(("ijr,jr->ir", "ijr,ir->jr")[m],
                                         xw, a)
                    else:  # U^T x, contracted with V
                        corr = np.einsum("rjk,jr->kr", np.dot(
                            a.T, x.reshape(n, p * q)).reshape(K, p, q), b)
                    if penalized[m]:
                        scaled, levels[m] = _lasso_step(
                            updates[m], gram, corr, factors[m] * d,
                            norm_x ** 2, x.size)
                    elif np.linalg.cond(gram) < 1e12:
                        scaled = np.linalg.solve(gram, corr.T).T
                    else:
                        used_pinv = True
                        scaled = corr @ np.linalg.pinv(gram)
                    d = np.linalg.norm(scaled, axis=0)
                    live = d > _TINY
                    factors[m][:, live] = scaled[:, live] / d[live]
                    if penalized[m]:
                        factors[m][:, ~live] = 0.0
                # the mode-3 products were taken with the final U and V
                resid_sq = _cp_norm_sq(norm_x ** 2, factors, d, np.einsum(
                    "kr,kr->r", factors[2], corr))
                resid = (math.sqrt(resid_sq)
                         if resid_sq > _GRAM_RCOND * norm_x ** 2 else
                         frob_norm(x - CpModel(*factors, d).reconstruct()))
                residual_trace.append(resid)
                loop.objective_trace.append(0.5 * resid ** 2 + sum(
                    lev * float(np.sum(np.abs(f)))
                    for lev, f in zip(levels, factors)))
                loop.stop(resid / norm_x)
            *factors, d, _ = sort_components(*factors, d)
            factors = canonicalize_cp_signs(*factors)
        return CpModel(*factors, d, _diagnostics(
            method, [loop], {m: [lev] * K for m, lev in zip(_MODES, levels)},
            _column_nnz(*factors), used_pinv=used_pinv,
            residual_norm=residual_trace[-1] if residual_trace else 0.0,
            residual_trace=np.asarray(residual_trace), **extras))


def cp_als(x, K: int, cfg: SolverConfig | None = None) -> CpModel:
    """Fit a K-component CP model by alternating least squares.

    Each mode is updated by solving the Khatri-Rao normal equations with
    the other factors fixed, then rescaling columns to unit norm with the
    weights taken as the column norms.  The Frobenius residual is
    non-increasing across sweeps; a singular normal system falls back to
    the pseudo-inverse and is flagged in the diagnostics.
    """
    return _als(x, K, cfg, "cp-als")


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


def _tucker_pass(x, ranks, updates, cfg, factors=None):
    """One pass of the Tucker loop over the three modes, in turn: the
    HOSVD start when ``factors`` is None, else a HOOI sweep from them.

    Each factor is estimated from the mode unfolding of ``y``: ``x``
    itself at the start, so a block open on ``x`` serves it from the
    memo, and in a sweep ``x`` projected onto the other two factors,
    those of this sweep where they are already new.  A sweep reads ``x``
    twice (Kolda & Bader 2009, section 4.2): mode 1 takes ``x W`` on a
    view of ``x``, then ``V^T``, and ``U^T x`` with the new U gives modes
    2 and 3 and the core.  A plain update takes the leading singular
    vectors, at level 0; a penalized one the left factors of a penalized
    PCA (:func:`_fit_unfolding`), with each component's level and its fit
    as a loop.  Returns the factors, the levels per mode, the loops and
    the core.
    """
    factors = [None] * 3 if factors is None else list(factors)
    start, levels, loops = factors[0] is None, {}, []
    n, p, q = x.shape
    for m, (upd, plain, k) in enumerate(zip(updates, _PLAIN, ranks)):
        if start:
            y = x
        elif m == 0:
            y = np.matmul(factors[1].T, np.dot(x.reshape(n * p, q),
                                               factors[2]).reshape(n, p, -1))
        else:  # U^T x, times W^T in mode 3, then the new V^T in mode 2
            xu = mode_mult(x, factors[0].T, 1) if m == 1 else xu
            y = mode_mult(xu, factors[3 - m].T, 4 - m)
        if upd == plain:
            factors[m] = _unfolding_vectors(y, m + 1, k)
            levels[_MODES[m]] = [0.0] * k
        else:
            factors[m], _, _, fits = _fit_unfolding(y, m + 1, k,
                                                    (upd, _PLAIN[1]), cfg)
            levels[_MODES[m]] = [fit.lambdas["u"] for fit in fits]
            loops += fits
    # in a sweep the last y is x projected onto the new U and V
    core = (_mode_mult3(x, *(f.T for f in factors)) if start
            else mode_mult(y, factors[2].T, 3))
    return factors, levels, loops, core


def _tucker(x, ranks, cfg: SolverConfig | None, method: str,
            updates=_PLAIN, sweeps: bool = False,
            **extras) -> TuckerModel:
    """Tucker factors from one update per mode: the HOSVD start, then
    with ``sweeps`` HOOI sweeps under the iteration controls of ``cfg``
    (default :class:`SolverConfig`), each one :func:`_tucker_pass`.

    A block open on ``x`` keeps the start for each later fit with equal
    ranks and updates (and config, with a penalized mode): the same bits,
    as each penalized PCA seeds its own generator.  Convergence
    (relative core-norm change below ``tol``) is first checked at sweep
    2.  A copy of the pass with the largest core norm is returned, ties
    going to the later one.  The model's loops are the penalized PCAs'
    fits of that pass, then with ``sweeps`` the sweeps, whose objective
    trace is the core norm of the start and of each sweep.  The
    ``extras`` end the diagnostics.
    """
    with _shared_grams(x) as x:
        ranks = _check_ranks(x, ranks)
        cfg = cfg or SolverConfig()
        _reject_unread(cfg, svd_start=True)
        best = run = _kept(x, (ranks, updates,
                               updates != _PLAIN and astuple(cfg)),
                           lambda: _tucker_pass(x, ranks, updates, cfg))
        if sweeps:
            best_norm = frob_norm(run[3])  # (factors, levels, loops, core)
            loop = _Loop(cfg, [best_norm])
            loop.converged = _norm(x) == 0.0  # no sweep of a zero tensor
            for _ in loop.sweeps():  # each from the last pass's factors
                run = _tucker_pass(x, ranks, updates, cfg, run[0])
                norm = frob_norm(run[3])
                loop.objective_trace.append(norm)
                if norm >= best_norm:
                    best, best_norm = run, norm
                loop.stop(norm)
            extras = {"core_norm": best_norm, **extras}
        factors, levels, loops, core = deepcopy(best)
    return TuckerModel(*factors, core, _diagnostics(
        method, [*loops, loop] if sweeps else loops, levels,
        _column_nnz(*factors), **extras))


def hosvd(x, ranks) -> TuckerModel:
    """Tucker factors from the leading singular vectors of each unfolding."""
    return _tucker(x, ranks, None, "hosvd")


def hooi(x, ranks, cfg: SolverConfig | None = None) -> TuckerModel:
    """Higher-order orthogonal iteration, initialized from the HOSVD.

    Each sweep re-estimates every factor from the singular vectors of the
    tensor projected onto the other two factors, so the core norm is
    non-decreasing; stops when its relative change drops below ``tol``.
    """
    return _tucker(x, ranks, cfg, "hooi", sweeps=True)


# ---------------------------------------------------------------------------
# the rank-one engine and the deflation loop behind every greedy method


_OTHER_MODES = ((1, 2), (0, 2), (0, 1))


def _level(upd: _ModeUpdate, c, norm_sq, size) -> float:
    """The level of an update of contraction ``c``: the update's fixed
    level, or the one BIC selects over ``upd.grid(c)`` for a tensor of
    ``size`` entries and squared norm ``norm_sq``."""
    if upd.grid is None:
        return upd.level
    grid = upd.grid(c)
    values, _ = bic_path(norm_sq, size, c, grid, upd.prox.prox)
    return float(grid[_bic_argmin(values)])


def _penalty(upd: _ModeUpdate, level, f) -> float:
    """The penalty ``level * P(f)`` the objective deducts for factor
    ``f`` (exactly 0 at level 0)."""
    return level * upd.prox.evaluate(f) if level else 0.0


def _project_out(vec, basis):
    if basis is not None and basis.shape[1]:
        vec = vec - basis @ (basis.T @ vec)
    return vec


def _feasible_start(vec, upd):
    """A unit starting factor projected onto the mode's domain and
    normalized again (kept as is when the projection leaves it alone)."""
    if upd.q is not None:
        return normalize_or_zero(vec, upd.q)
    proj = upd.prox.prox(vec, 0.0)
    if np.array_equal(proj, vec):
        return vec, 1.0
    return normalize_or_zero(proj)


class _Terms:
    """The terms ``d_j u_j o v_j o w_j`` a deflation has accepted, which
    stand for the residual ``R = x - sum_j d_j u_j o v_j o w_j`` without
    forming it.

    Each term keeps the x-contractions ``contract_v(x, u_j, w_j)`` and,
    for a third mode longer than one, ``contract_w(x, u_j, v_j)``, taken
    once when it is accepted.  From
    them, the factors and the memo's Grams of ``x`` follow every
    contraction of ``R``, its norm and its SVD start, by the unfolding
    algebra of Kolda & Bader (2009, section 4).  ``x`` is only read.
    """

    def __init__(self, x, K):
        n, p, q = x.shape
        self.x, self.k = x, 0
        self.norm_sq_x = _norm(x) ** 2
        self.d = np.zeros(K)
        self.factors = (np.zeros((n, K)), np.zeros((p, K)), np.zeros((q, K)))
        self._cv, self._cw = np.zeros((p, K)), np.zeros((q, K))
        self._slice()
        # a size-one third mode whose accepted factors are all [1.0] (the
        # fixed factor), so their product with a w of [1.0] is all ones
        self._unit_w = q == 1

    def accept(self, fit: RankOneFit) -> None:
        k = self.k
        for f, col in zip(self.factors, (fit.u, fit.v, fit.w)):
            f[:, k] = col
        self.d[k] = fit.d
        self._cv[:, k] = contract_v(self.x, fit.u, fit.w)
        if self.x.shape[2] > 1:  # a size-one mode's start(3) is [1.0]
            self._cw[:, k] = contract_w(self.x, fit.u, fit.v)
        self._unit_w = self._unit_w and fit.w[0] == 1.0
        self.k += 1
        self._slice()

    def _slice(self):
        self._accepted = (*(f[:, :self.k] for f in self.factors),
                          self.d[:self.k])

    def accepted(self):
        """(U, V, W, d) of the accepted terms (views, kept until the next
        term is accepted)."""
        return self._accepted

    def correction(self, m, qf):
        """The terms' share of the mode-``m`` contraction against the
        other two modes' entries of ``qf``: the contraction of ``x``
        less this is the contraction of ``R``.  A product that is all
        ones (unit third factors against a w of [1.0]) is skipped: it
        would multiply by exactly 1."""
        *f, d = self._accepted
        a, b = _OTHER_MODES[m]
        share = d * (f[a].T @ qf[a])
        if b < 2 or not (self._unit_w and qf[2][0] == 1.0):
            share *= f[b].T @ qf[b]
        return f[m] @ share

    def norm_sq(self) -> float:
        """``||R||^2 = ||x||^2 - 2 sum_j d_j <x, t_j> + d^T (U^T U * V^T V
        * W^T W) d`` for the unit terms ``t_j``."""
        U, V, W, d = self.accepted()
        return _cp_norm_sq(self.norm_sq_x, (U, V, W), d,
                           np.einsum("jk,jk->k", V, self._cv[:, :self.k]))

    def residual(self):
        """``R`` formed: each term subtracted from ``x`` in turn."""
        resid = self.x
        U, V, W, d = self.accepted()
        for j in range(self.k):
            term = np.multiply.outer(np.outer(U[:, j], V[:, j]), W[:, j])
            term *= d[j]
            if resid is self.x:
                resid = self.x - term
            else:
                resid -= term
        return resid

    def residual_norm(self) -> float:
        """``||R||``: the closed form, or ``R`` formed where that has lost
        its digits (see :meth:`target`)."""
        norm_sq = self.norm_sq()
        if norm_sq > _GRAM_RCOND * self.norm_sq_x:
            return math.sqrt(norm_sq)
        return frob_norm(self.residual())

    def target(self):
        """What the next component is fit on and with which terms: ``x``
        with these (with none before the first), or None when nothing is
        left.  When ``||R||^2`` is at most ``_GRAM_RCOND ||x||^2`` its
        closed form has lost its digits, so ``R`` is formed and returned
        with none; a formed ``R`` at the rounding level of ``x``, ``||R||
        <= eps max(dims) ||x||`` (a zero ``x`` among them), leaves
        nothing."""
        if self.norm_sq() > _GRAM_RCOND * self.norm_sq_x:
            return self.x, (self if self.k else None)
        resid = self.residual()
        noise = _EPS * max(self.x.shape) * math.sqrt(self.norm_sq_x)
        return (resid if frob_norm(resid) > noise else None), None

    def start(self, mode):
        """The leading left singular vector of the mode-``mode`` (2 or 3)
        unfolding ``R_(m) = X_(m) - A D B^T`` of ``R`` (A the mode's
        factors, B the Khatri-Rao product of the other two), signed as
        :func:`leading_singular_vectors` signs it; ``[1.0]`` for a
        size-one mode.

        It is the top eigenvector of the memo's Gram ``G`` of ``X_(m)``
        updated by the terms.  For a wide unfolding ``G = X_(m) X_(m)^T``
        and ``R_(m) R_(m)^T = G - A D C^T - C D A^T + A D (B^T B) D A^T``,
        with ``C = X_(m) B`` the kept contractions.  For a tall one ``G =
        X_(m)^T X_(m)``, ``R_(m)^T R_(m)`` is the same update with A and B
        swapped and ``C = X_(m)^T A``, and its top eigenvector maps through
        ``R_(m)``.  :func:`_top_pairs` finds it without forming the update
        (or one ``eigh`` of it).  When the top eigenvalue is
        below ``_GRAM_RCOND`` times ``G``'s (the update then keeps too few
        digits), the start is taken of ``R`` formed.
        """
        if self.x.shape[mode - 1] == 1:
            return np.ones(1)
        U, V, W, d = self.accepted()
        f, c, other = ((V, self._cv[:, :self.k], W) if mode == 2
                       else (W, self._cw[:, :self.k], V))
        a, mid = f, (U.T @ U) * (other.T @ other)
        rows = self.x.shape[mode - 1]
        tall = rows > self.x.size // rows
        if tall:  # B in the column order of the unfolding's view
            unfolding = _unfolding(self.x, mode)
            b = khatri_rao(other, U) if mode == 2 else khatri_rao(U, V)
            a, c, mid = b, unfolding.T @ f, f.T @ f
        # scale: G's top eigenvalue, sigma_1^2 of the first start
        top = _top_pairs(_smaller_gram(self.x, mode), 1, (a, c, d, mid),
                         _unfolding_vectors(self.x, mode, 1, True)[1][0] ** 2)
        if top is None:
            top = leading_singular_vectors(_unfolding(self.residual(), mode),
                                           1)[:, 0]
        else:
            top = top[0][:, 0]
            if tall:  # R_(m) y = X_(m) y - A D B^T y
                top = unfolding @ top - f @ (d * (b.T @ top))
        top = normalize_or_zero(top)[0]
        return top * _column_signs(top[:, None])[0]


def _rank_one(x, updates, cfg, rng, basis=(None, None, None),
              terms: _Terms | None = None) -> RankOneFit:
    """Penalized rank-one fit by alternating factor updates.

    Each sweep updates u, v and w in turn as ``updates`` describe; with
    fixed levels every update increases the penalized (q-weighted)
    contraction ``<x, u o v o w> - sum level * P(factor)``, recorded in
    the objective trace.  ``basis`` holds previous same-mode factors
    that each update is projected against before normalization.  With
    ``terms`` the fit is of the residual they leave of ``x``: every
    contraction, the SVD start and the norm BIC reads are the
    residual's, from :class:`_Terms`.  A size-one third mode with a
    plain update is the fixed factor ``[1.0]``: it takes no update, and
    ``x`` contracted with it is the view ``x[:, :, 0]``.  A factor that
    vanishes at level 0 restarts the fit from a random start (up to five
    times, then the zero fit); one that vanishes at a positive level ends
    it with the zero fit.
    """
    _reject_unread(cfg)
    fixed_w = x.shape[2] == 1 and updates[2] == _PLAIN[2]
    if any(upd.q is not None for upd in updates):
        from .generalized import qnorm_lasso_solve
    norm_sq = None
    if any(upd.grid is not None for upd in updates):
        norm_sq = _norm(x) ** 2 if terms is None else terms.norm_sq()
    warm: list[np.ndarray | None] = [None, None, None]
    lam = [0.0, 0.0, 0.0]

    def weighted(m, f):
        q = updates[m].q
        return f if q is None else q @ f

    def update(m, c):
        upd = updates[m]
        lam[m] = _level(upd, c, norm_sq, x.size)
        if upd.q is None:
            return normalize_or_zero(upd.prox.prox(_project_out(c, basis[m]),
                                                   lam[m]))
        if lam[m] > 0.0:
            c = warm[m] = qnorm_lasso_solve(c, upd.q, lam[m],
                                            upd.lipschitz, warm[m])
        return normalize_or_zero(c, upd.q)

    loop = _Loop(cfg)

    def fit(factors, d, converged):
        return RankOneFit(*factors, d, loop.iterations, converged,
                          np.asarray(loop.objective_trace),
                          dict(zip(_MODES, lam)))

    for attempt in range(6):  # the configured start plus 5 random restarts
        lam[:] = [upd.level for upd in updates]
        init = cfg.init if attempt == 0 else "random"
        if terms is not None and init == "hosvd":
            v0, w0 = terms.start(2), terms.start(3)
        else:
            v0, w0 = init_rank_one(x, init, rng)
        (v, nv), (w, nw) = (_feasible_start(v0, updates[1]),
                            (np.ones(1), 1.0) if fixed_w
                            else _feasible_start(w0, updates[2]))
        if nv == 0.0 or nw == 0.0:
            continue
        factors = [np.zeros(x.shape[0]), v, w]
        qf = [factors[0], weighted(1, v), weighted(2, w)]
        # each mode's penalty value; an update changes only its own
        # mode's factor and level, so only that entry is recomputed
        pens = [_penalty(upd, lev, f)
                for upd, lev, f in zip(updates, lam, factors)]
        loop, restart = _Loop(cfg), False
        for _ in loop.sweeps():
            # x contracted with w feeds both the u- and the v-update
            xw = _times_w(x, qf[2])
            for m in range(2 if fixed_w else 3):
                c = (np.dot(xw, qf[1]) if m == 0 else np.dot(xw.T, qf[0])
                     if m == 1 else contract_w(x, qf[0], qf[1]))
                if terms is not None:
                    c = c - terms.correction(m, qf)
                f, nrm = update(m, c)
                if nrm == 0.0:
                    if lam[m] > 0.0:
                        return fit(map(np.zeros, x.shape), 0.0, True)
                    restart = True
                    break
                factors[m], qf[m] = f, weighted(m, f)
                pens[m] = _penalty(updates[m], lam[m], f)
                d = float(f @ weighted(m, c))
                objective = d - pens[0] - pens[1] - pens[2]
                loop.objective_trace.append(objective)
            if restart:
                break
            loop.stop(objective)
        if not restart:
            return fit(factors, d, loop.converged)
    loop = _Loop(cfg)
    return fit(map(np.zeros, x.shape), 0.0, True)


def _fit_rank_one(x, updates, cfg: SolverConfig | None) -> RankOneFit:
    """Fit one rank-one term to ``x`` with the engine's ``updates``, in a
    :func:`_shared_grams` block on ``x``, under ``cfg`` (default
    :class:`SolverConfig`) and the generator it seeds."""
    cfg = cfg or SolverConfig()
    with _shared_grams(x) as x:
        return _rank_one(x, updates, cfg, cfg.rng())


def _fit_greedy(x, K: int, updates, cfg: SolverConfig | None, method: str,
                **extras) -> CpModel:
    """:func:`deflate` with one engine fit of ``updates`` per component,
    under ``cfg`` (default :class:`SolverConfig`); the ``extras`` end the
    diagnostics."""
    cfg = cfg or SolverConfig()
    return deflate(x, K, lambda x, terms, rng, basis: _rank_one(
        x, updates, cfg, rng, basis, terms), cfg, method, **extras)


def _fit_unfolding(y, mode, k, updates, cfg: SolverConfig | None):
    """Penalized PCA of the mode-``mode`` unfolding ``m`` of ``y``: up to
    ``k`` engine fits of ``updates``, a (left, right) pair, to ``m`` and
    to what the earlier ones leave of it, no more than ``min(m.shape)``
    (the rank of ``m``), under ``cfg`` (default :class:`SolverConfig`).

    ``m`` is the unfolding :func:`_unfolding` gives: for modes 1 and 3 a
    view of a C-contiguous ``y``, its columns in another order than
    :func:`matricize`'s, which moves the right factors' entries but not
    the left factors; mode 2 is a copy.  The fits run on the tensor view
    ``m[:, :, None]``, whose third factor is fixed at ``[1.0]``, through
    :func:`_greedy`: ``m`` is only read and the deflation is the
    engine's (:class:`_Terms`).  The view's block takes ``||y||`` and
    the Gram of ``m`` from :func:`_norm` and :func:`_smaller_gram` (the
    memo's, when a block is open on ``y``), so ``m`` is not scanned for
    them again; the view is not checked, and a non-finite ``||m||``
    raises ValueError.  Returns (left factors, right factors, weights,
    component fits), a zero fit last when the run ends before ``k``
    fits.
    """
    cfg = cfg or SolverConfig()
    _reject_unread(cfg, svd_start=True)
    m = _unfolding(y, mode)
    norm = _norm(y)
    if not math.isfinite(norm):
        raise ValueError(_OVERFLOW if np.all(np.isfinite(m)) else
                         "matrix entries must be finite (no NaN/Inf)")
    # taken before m's block opens, which hides the block open on y
    gram = _smaller_gram(y, mode, right=True)
    updates = (*updates, _PLAIN[2])
    with _shared_grams(m[:, :, None], norm) as view:
        _kept(view, _gram_key(view, 2), lambda: gram)
        terms = _Terms(view, k)
        fits, _ = _greedy(terms, min(k, *m.shape), lambda x, terms, rng,
                          basis: _rank_one(x, updates, cfg, rng, basis, terms),
                          cfg.rng())
    if len(fits) < k and (not fits or fits[-1].d > 0.0):
        fits.append(RankOneFit(*(np.zeros(n) for n in view.shape), 0.0, 0,
                               True, lambdas={"u": updates[0].level,
                                              "v": 0.0}))
    return terms.factors[0], terms.factors[1], terms.d, fits


def _greedy(terms: _Terms, count: int, fit_one, rng, orthogonalize=False):
    """The deflation loop: up to ``count`` fits ``fit_one(x, terms, rng,
    basis)`` of what ``terms`` leave (see :meth:`_Terms.target`), each
    accepted into ``terms`` in turn; ``basis`` holds the accepted factors
    per mode with ``orthogonalize``, else Nones.  Returns the fits and the
    component at which nothing was left or a zero fit ended the run (None
    when neither did)."""
    fits = []
    for k in range(count):
        target, given = terms.target()
        if target is None:
            return fits, k
        basis = (terms.accepted()[:3] if orthogonalize and k
                 else (None, None, None))
        fits.append(fit_one(target, given, rng, basis))
        if fits[-1].d <= 0.0:
            return fits, k
        terms.accept(fits[-1])
    return fits, None


def deflate(x, K: int, fit_one, cfg: SolverConfig, method: str,
            **extras) -> CpModel:
    """Greedy K-component CP model: each component is a rank-one fit of
    the residual the earlier ones leave, which is never formed on the
    normal path.

    ``fit_one(x, terms, rng, basis)`` returns a :class:`RankOneFit` with
    unit (or zero) factors of the residual that ``terms`` (a
    :class:`_Terms`, None for the first component) leave of ``x``;
    ``basis`` holds the previous factors per mode when the extra
    ``orthogonalized`` is set, else Nones.  The fits run in a
    :func:`_shared_grams` block on ``x``, which checks ``x`` and then only
    reads it, so each later SVD start is an update of the memo's Grams of
    ``x``; only a nearly vanished residual is formed, and given to
    ``fit_one`` as ``x`` with no terms (see :meth:`_Terms.target`).  The
    generator from ``cfg`` is shared by all components.  A zero tensor, a
    residual at the rounding level of ``x`` or a zero fit truncates the
    model (remaining columns zero-filled, ``truncated_at`` set).
    Components are sorted by descending weight; the per-component
    diagnostics stay in the greedy order, which ``component_order``
    maps.  The method's ``extras`` end the diagnostics.
    """
    with _shared_grams(x) as x:
        if K < 1:
            raise ValueError("K must be >= 1")
        terms = _Terms(x, K)
        fits, truncated_at = _greedy(terms, K, fit_one, cfg.rng(),
                                     extras.get("orthogonalized", False))
        residual_norm = terms.residual_norm()

    greedy_d = terms.d.copy()
    U, V, W, d, order = sort_components(*terms.factors, terms.d)
    U, V, W = canonicalize_cp_signs(U, V, W)
    return CpModel(U, V, W, d, _diagnostics(
        method, fits,
        {m: [fit.lambdas.get(m, 0.0) for fit in fits] for m in _MODES},
        {m: [int(np.count_nonzero(getattr(fit, m))) for fit in fits]
         for m in _MODES},
        greedy_d=greedy_d, component_order=order,
        residual_norm=residual_norm, truncated_at=truncated_at, **extras))


def tpa_rank_one(x, cfg: SolverConfig | None = None) -> RankOneFit:
    """Best rank-one fit by alternating normalized contractions.

    The objective (the triple contraction) is non-decreasing across factor
    updates and the returned weight is its value at convergence.  A
    vanishing contraction triggers up to five random re-initializations
    before falling back to the zero fit.
    """
    with _shared_grams(x) as x:
        if _norm(x) == 0.0:
            raise ValueError("input tensor is zero")
        return _fit_rank_one(x, _PLAIN, cfg)


def tpa(x, K: int, cfg: SolverConfig | None = None) -> CpModel:
    """Greedy K-component CP model: rank-one fits on running residuals.

    With ``cfg.orthogonalize`` each new factor is Gram-Schmidt projected
    against the previous factors of the same mode after every update.  A
    zero rank-one fit truncates the model (remaining components are
    zero-filled and flagged).  Components are sorted by descending weight;
    the greedy order is kept in the diagnostics.
    """
    cfg = cfg or SolverConfig()
    # deflate does the projection; the engine rejects the setting
    return _fit_greedy(x, K, _PLAIN, replace(cfg, orthogonalize=False), "tpa",
                       orthogonalized=cfg.orthogonalize)
