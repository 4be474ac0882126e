"""Simulation scenarios and the experiment drivers behind the metric
tables and ROC curves.

Four scenarios are supported: 1 and 3 are 100x100x100, 2 and 4 are
1000x20x20; scenarios 1 and 2 have a sparse first mode only, 3 and 4 are
sparse in every mode.  Sparse factors zero a fixed fraction of randomly
chosen entries, draw the rest as standard normals, and are rescaled to
unit norm (the weights carry all scale); dense factors are leading
singular vectors of a square standard normal matrix.  Noise is i.i.d.
standard normal.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from . import decompose, evaluate, generalized, sparse
from .decompose import (_EPS, SolverConfig, _shared_grams, contract_u,
                        init_rank_one)
from .evaluate import RocPoint, roc_sweep, support_metrics
from .sparse import PenaltySpec

__all__ = [
    "SimScenarioSpec",
    "SimTruth",
    "simulate",
    "Method",
    "METHODS",
    "TABLE_METHODS",
    "ROC_METHODS",
    "TableResult",
    "run_table_experiment",
    "RocResult",
    "run_roc_experiment",
]

_SCENARIO_DIMS = {1: (100, 100, 100), 2: (1000, 20, 20),
                  3: (100, 100, 100), 4: (1000, 20, 20)}
_SCENARIO_SPARSE_MODES = {1: ("u",), 2: ("u",),
                          3: ("u", "v", "w"), 4: ("u", "v", "w")}
_MODES = ("u", "v", "w")

TABLE_METHODS = ("cp-als", "tpa", "hosvd", "hooi", "sparse-cp-tpa",
                 "sparse-cp-als", "sparse-hosvd", "sparse-hooi")
ROC_METHODS = ("sparse-cp-tpa", "sparse-cp-als", "sparse-hosvd",
               "sparse-hooi", "cp-naive", "tucker-naive")


@dataclass(frozen=True)
class SimScenarioSpec:
    """One simulated scenario: dims and sparse modes follow the scenario
    id; weights follow the component count and signal level."""

    scenario: int
    k: int = 2
    sparsity: float = 0.5
    signal: str = "high"
    seed: Any = 0
    noise: float = 1.0

    def __post_init__(self):
        if self.scenario not in _SCENARIO_DIMS:
            raise ValueError(f"scenario must be 1..4, got {self.scenario}")
        if self.k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {self.k}")
        if not 0.0 < self.sparsity < 1.0:
            raise ValueError("sparsity fraction must be in (0, 1)")
        if self.signal not in ("high", "low"):
            raise ValueError(f"signal must be 'high' or 'low', got "
                             f"{self.signal!r}")
        if not 0.0 <= self.noise < np.inf:  # NaN too
            raise ValueError("noise scale must be finite and non-negative")

    @property
    def dims(self) -> tuple[int, int, int]:
        return _SCENARIO_DIMS[self.scenario]

    @property
    def sparse_modes(self) -> tuple[str, ...]:
        return _SCENARIO_SPARSE_MODES[self.scenario]

    @property
    def d(self) -> np.ndarray:
        if self.k == 1:
            return np.array([100.0 if self.signal == "high" else 50.0])
        return (np.array([200.0, 100.0]) if self.signal == "high"
                else np.array([100.0, 50.0]))


@dataclass
class SimTruth:
    """Ground truth for one simulated instance."""

    spec: SimScenarioSpec
    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    d: np.ndarray
    supports: dict[str, np.ndarray]
    x_signal: np.ndarray
    x: np.ndarray


def _sparse_factor(rng, dim: int, sparsity: float) -> np.ndarray:
    vec = rng.standard_normal(dim)
    zero = rng.choice(dim, size=round(sparsity * dim), replace=False)
    vec[zero] = 0.0
    nrm = np.linalg.norm(vec)
    return vec / nrm if nrm > 0 else vec


def _dense_factors(rng, dim: int, k: int) -> np.ndarray:
    return np.linalg.svd(rng.standard_normal((dim, dim)))[0][:, :k]


def simulate(spec: SimScenarioSpec, replicate: int | None = None) -> SimTruth:
    """Draw one instance of the scenario (bit-identical for a given seed).

    ``replicate`` derives an independent stream from (seed, replicate)
    for parallel replicate runs.
    """
    seed = spec.seed if replicate is None else [spec.seed, replicate]
    rng = np.random.default_rng(seed)
    dims = spec.dims
    factors = {}
    for mode, dim in zip(_MODES, dims):
        if mode in spec.sparse_modes:
            factors[mode] = np.column_stack(
                [_sparse_factor(rng, dim, spec.sparsity)
                 for _ in range(spec.k)])
        else:
            factors[mode] = _dense_factors(rng, dim, spec.k)
    d = spec.d
    x_signal = decompose.CpModel(*(factors[m] for m in _MODES),
                                 d).reconstruct()
    # built in place, so the peak is one tensor beside the signal without
    # relying on NumPy to reuse temporaries; the same draws and the same
    # sums as x_signal + noise * draws, bit for bit
    x = rng.standard_normal(dims)
    x *= spec.noise
    x += x_signal
    supports = {m: factors[m] != 0 for m in _MODES}
    return SimTruth(spec, factors["u"], factors["v"], factors["w"], d,
                    supports, x_signal, x)


# ---------------------------------------------------------------------------
# method registry


@dataclass(frozen=True)
class Method:
    """One entry of :data:`METHODS`.

    ``call(x, rank, pen, op, cfg)`` runs the solver.  It names the solver
    as an attribute of its module (``sparse.sparse_cp_tpa``), looked up
    on every call, so a wrapper patched onto that attribute sees each
    fit.  ``tucker`` methods take three ranks; ``penalty`` says what the
    solver reads from the :class:`PenaltySpec` ("spec": all of it,
    "fixed": fixed levels only); ``operator`` names the operator it
    takes ("q": :class:`QuadOperators`, "s": :class:`SmootherSet`).
    """

    call: Callable
    tucker: bool = False
    penalty: str | None = None
    operator: str | None = None

    def fit(self, x, k, cfg: SolverConfig, pen: PenaltySpec | None = None,
            op=None):
        """Fit at component count ``k`` (an int, or three Tucker ranks).

        Without ``op`` an operator-taking method gets the default of
        :meth:`build_operator`.
        """
        if self.tucker and np.isscalar(k):
            k = (k, k, k)
        if op is None:
            op = self.build_operator(np.shape(x))
        return self.call(x, k, pen or PenaltySpec.none(), op, cfg)

    def build_operator(self, dims, mats=(None, None, None),
                       alpha: float = 1.0, order: int = 2):
        """The operator the method takes for a tensor of shape ``dims``
        (None for a method that takes none), from one matrix or None per
        mode in ``mats``.  A :class:`QuadOperators` reads None as the
        identity norm.  A :class:`SmootherSet` reads None as zero
        roughness, and with no matrix at all takes difference roughness
        of ``order`` (2 or 4) in every mode; its weight is ``alpha``.
        """
        if self.operator == "q":
            return generalized.QuadOperators(*(
                np.eye(n) if mat is None else mat
                for n, mat in zip(dims, mats)))
        if self.operator == "s" and all(mat is None for mat in mats):
            return generalized.SmootherSet.second_difference(dims, alpha,
                                                             order=order)
        if self.operator == "s":
            return generalized.SmootherSet(*(
                np.zeros((n, n)) if mat is None else mat
                for n, mat in zip(dims, mats)), alpha=alpha)
        return None


def _hosvd(x, k, pen, op, cfg):
    # hosvd takes no SolverConfig; reject what it would ignore, as hooi does
    decompose._reject_unread(cfg, svd_start=True)
    return decompose.hosvd(x, k)


METHODS: dict[str, Method] = {
    "cp-als": Method(lambda x, k, pen, op, cfg: decompose.cp_als(x, k, cfg)),
    "tpa": Method(lambda x, k, pen, op, cfg: decompose.tpa(x, k, cfg)),
    "sparse-cp-tpa": Method(
        lambda x, k, pen, op, cfg: sparse.sparse_cp_tpa(x, k, pen, cfg),
        penalty="spec"),
    "sparse-cp-als": Method(
        lambda x, k, pen, op, cfg: sparse.sparse_cp_als(x, k, pen, cfg),
        penalty="spec"),
    "gcp": Method(lambda x, k, pen, op, cfg: generalized.gcp(x, op, k, cfg),
                  operator="q"),
    "sparse-gcp": Method(
        lambda x, k, pen, op, cfg: generalized.sparse_gcp(
            x, op, k, [p.fixed_level() for p in pen.by_mode().values()],
            cfg),
        penalty="fixed", operator="q"),
    "fpca": Method(lambda x, k, pen, op, cfg: generalized.fpca(x, op, k, cfg),
                   operator="s"),
    "hosvd": Method(_hosvd, tucker=True),
    "hooi": Method(lambda x, k, pen, op, cfg: decompose.hooi(x, k, cfg),
                   tucker=True),
    "sparse-hosvd": Method(
        lambda x, k, pen, op, cfg: sparse.sparse_hosvd(x, k, pen, cfg),
        tucker=True, penalty="spec"),
    "sparse-hooi": Method(
        lambda x, k, pen, op, cfg: sparse.sparse_hooi(x, k, pen, cfg),
        tucker=True, penalty="spec"),
    "fpca-halfsmooth": Method(
        lambda x, k, pen, op, cfg: generalized.fpca_half_smoothing(
            x, op, k, cfg),
        tucker=True, operator="s"),
}
"""Every decomposition by its command-line name."""


def fit_method(name: str, x, spec: SimScenarioSpec,
               cfg: SolverConfig | None = None, lam_grid=None):
    """Fit one registry method at the scenario's component count."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    # BIC-selected (or given) lasso levels on the scenario's sparse modes
    pen = PenaltySpec.lasso(**{m: "bic" if lam_grid is None else lam_grid
                               for m in spec.sparse_modes})
    return METHODS[name].fit(x, spec.k, cfg or SolverConfig(), pen)


# ---------------------------------------------------------------------------
# metrics table experiment


def _map_replicates(run, replicates: int, jobs: int) -> list:
    """``run(rep)`` for every replicate, on up to ``jobs`` worker
    processes, never more than there are CPUs or replicates."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, os.cpu_count() or 1, replicates)
    if workers == 1:
        return [run(rep) for rep in range(replicates)]
    # imported here: the pool costs every interpreter time and memory
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(replicates)))


@dataclass
class TableResult:
    """Aggregated recovery metrics: one row per method, component, mode."""

    rows: list[tuple]
    timings: list[tuple]
    failures: list[tuple]
    header: tuple = ("method", "component", "mode", "tp", "fp", "mse")
    timing_header: tuple = ("method", "replicate", "seconds")


def _table_replicate(spec: SimScenarioSpec, methods, rep: int,
                     cfg: SolverConfig | None, lam_grid):
    truth = simulate(spec, replicate=rep)
    out = {}
    timings = []
    failures = []
    # every method's SVD start reads one memo of the unfoldings of x
    with _shared_grams(truth.x) as x:
        for name in methods:
            start = time.perf_counter()
            try:
                model = fit_method(name, x, spec, cfg, lam_grid)
                metrics = support_metrics(model, truth)
                out[name] = metrics
            except Exception as exc:  # noqa: BLE001 - record and keep going
                failures.append((name, rep, repr(exc)))
            timings.append((name, rep, time.perf_counter() - start))
    return out, timings, failures


def _nanmean(values) -> float:
    """The mean of the defined ``values``, NaN when none is defined."""
    return np.nan if np.all(np.isnan(values)) else float(np.nanmean(values))


def run_table_experiment(spec: SimScenarioSpec, methods: Sequence[str],
                         replicates: int, cfg: SolverConfig | None = None,
                         jobs: int = 1, lam_grid=None) -> TableResult:
    """Mean TP/FP per factor and mean signal MSE over replicates.

    Penalty levels are BIC-selected per component and mode on the
    scenario's sparse modes (grid overridable).  Failed replicates are
    recorded, excluded from the means, and flagged in ``failures``.
    """
    results = _map_replicates(partial(_table_replicate, spec, tuple(methods),
                                      cfg=cfg, lam_grid=lam_grid),
                              replicates, jobs)

    timings = [t for _, ts, _ in results for t in ts]
    failures = [f for _, _, fs in results for f in fs]
    rows = []
    for name in methods:
        metrics = [out[name] for out, _, _ in results if name in out]
        if not metrics:
            continue
        mse = float(np.mean([m.mse for m in metrics]))
        k = metrics[0].tp.shape[1]
        for comp in range(k):
            for m_idx, mode in enumerate(_MODES):
                rows.append((name, comp, mode,
                             _nanmean([m.tp[m_idx, comp] for m in metrics]),
                             _nanmean([m.fp[m_idx, comp] for m in metrics]),
                             mse))
    return TableResult(rows, timings, failures)


# ---------------------------------------------------------------------------
# ROC experiment


@dataclass
class RocResult:
    """ROC points averaged over replicates at matched grid indices."""

    rows: list[tuple]
    header: tuple = ("method", "grid_index", "lam", "mode", "component",
                     "tp", "fp")


def _default_sparse_grid(x, points: int) -> np.ndarray:
    """Zero and ``points - 1`` log-spaced levels up to the first
    contraction's zeroing level, the top one four ulps above it: at the
    zeroing level itself whether the largest entry survives turns on
    rounding."""
    v0, w0 = init_rank_one(x, "hosvd", np.random.default_rng(0))
    lam_max = float(np.max(np.abs(contract_u(x, v0, w0))))
    if lam_max <= 0:
        return np.zeros(points)
    return evaluate.default_lambda_grid(lam_max * (1.0 + 4.0 * _EPS),
                                        points - 1)


def _roc_replicate(spec: SimScenarioSpec, methods, rep: int,
                   cfg: SolverConfig | None, grid, points: int):
    truth = simulate(spec, replicate=rep)
    fraction_grid = np.linspace(0.0, 1.0, points if grid is None
                                else len(grid))
    out = {}
    # the default grid, every sweep and every refit share one memo
    with _shared_grams(truth.x) as x:
        sparse_grid = (np.asarray(grid, dtype=float) if grid is not None
                       else _default_sparse_grid(x, points))
        for name in methods:
            use = fraction_grid if name.endswith("-naive") else sparse_grid
            out[name] = roc_sweep(x, truth, name, use, cfg,
                                  modes=spec.sparse_modes)
    return out


def run_roc_experiment(spec: SimScenarioSpec, methods: Sequence[str],
                       replicates: int, grid=None,
                       cfg: SolverConfig | None = None, jobs: int = 1,
                       points: int = 20) -> RocResult:
    """Average each method's ROC curve over replicates, index by index.

    Sparse methods sweep a penalty grid (default: log-spaced up to the
    first contraction's zeroing level, plus zero); naive baselines sweep
    matching threshold fractions of each factor column's maximum.
    """
    results = _map_replicates(partial(_roc_replicate, spec, tuple(methods),
                                      cfg=cfg, grid=grid, points=points),
                              replicates, jobs)

    rows = []
    for name in methods:
        # group per replicate by (grid index, mode, component)
        grouped: dict[tuple, list[RocPoint]] = {}
        for result in results:
            pts = result[name]
            lams = sorted({p.lam for p in pts})
            index_of = {lam: i for i, lam in enumerate(lams)}
            for p in pts:
                grouped.setdefault((index_of[p.lam], p.mode, p.component),
                                   []).append(p)
        for (gi, mode, comp), pts in sorted(grouped.items(),
                                            key=lambda kv: kv[0]):
            rows.append((name, gi, float(np.mean([p.lam for p in pts])),
                         mode, comp,
                         float(np.mean([p.tp for p in pts])),
                         float(np.mean([p.fp for p in pts]))))
    return RocResult(rows)
