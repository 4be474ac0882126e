"""Print one SHA-256 digest per fit, so that two source trees can be
checked for bit-identical fits with one ``diff`` of this script's output.

The fits are every method of ``hopca.simulate.METHODS`` on one scenario-1
and one scenario-2 instance (seed 2024, ``max_iter=100``, BIC lasso on
the scenario's sparse modes, sparse-gcp at a fixed level 0.3 on u), and
every fit of the benchmark's mono-small instance set (seed 2024, pass
0).  A digest covers the factors, the weights or the core, and the
objective traces, as raw float64 bytes.  Each scenario fit also gets a
``support`` line: one digest of its ``support_metrics`` against the
simulated truth (tp, fp, mse, permutation and signs), so that recovery
scores are diffed the same way.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/fit_digest.py > digests.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 2024


def digest(fit) -> str:
    """SHA-256 over a fit's factors, weights or core, and objective
    traces: a :class:`CpModel`, :class:`TuckerModel`, :class:`RankOneFit`
    or :class:`FpcaFit`."""
    if hasattr(fit, "U"):
        arrays = [fit.U, fit.V, fit.W,
                  fit.core if hasattr(fit, "core") else fit.d]
        arrays += list(fit.diagnostics.get("objective_traces", []))
    else:
        arrays = [fit.u, fit.v, fit.w, getattr(fit, "d", 0.0),
                  fit.objective_trace]
    return _sha256(arrays)


def score_digest(metrics) -> str:
    """SHA-256 over a :class:`RecoveryMetrics`' tp, fp, mse, permutation
    and signs."""
    return _sha256([metrics.tp, metrics.fp, metrics.mse,
                    metrics.permutation, metrics.signs])


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def scenario_fits():
    """(label, fit, truth) for every registry method on scenarios 1
    and 2."""
    from hopca.decompose import SolverConfig
    from hopca.simulate import METHODS, SimScenarioSpec, fit_method, simulate
    from hopca.sparse import PenaltySpec

    for scenario in (1, 2):
        spec = SimScenarioSpec(scenario, seed=SEED)
        truth = simulate(spec)
        x = truth.x
        for name, entry in METHODS.items():
            cfg = SolverConfig(max_iter=100)
            if name == "sparse-gcp":
                fit = entry.fit(x, spec.k, cfg, PenaltySpec.lasso(u=0.3))
            else:
                fit = fit_method(name, x, spec, cfg)
            yield f"s{scenario} {name}", fit, truth


def mono_small_fits():
    """(label, fit) for every fit of the mono-small instance set."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import MonoSmall

    from hopca import generalized, sparse
    from hopca.decompose import SolverConfig

    load = MonoSmall()
    cfg = SolverConfig(tol=1e-10, max_iter=40)
    for j, inst in enumerate(load.stage(SEED, 0)):
        for frac in load.fracs:
            lam = (frac * inst.lam_max,) * 3
            yield (f"mono {j} sparse {frac}",
                   sparse.sparse_cp_tpa_rank_one(inst.x, lam, cfg))
            yield (f"mono {j} sparse-gcp {frac}",
                   generalized.sparse_gcp_rank_one(inst.x, inst.q, lam, cfg))
        yield f"mono {j} gcp", generalized.gcp_rank_one(inst.x, inst.q, cfg)
        yield f"mono {j} fpca", generalized.fpca_rank_one(inst.x, inst.s, cfg)


def main() -> int:
    from hopca.evaluate import support_metrics

    for label, fit, truth in scenario_fits():
        print(f"{digest(fit)}  {label}", flush=True)
        print(f"{score_digest(support_metrics(fit, truth))}  {label} support",
              flush=True)
    for label, fit in mono_small_fits():
        print(f"{digest(fit)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
