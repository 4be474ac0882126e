"""Print one SHA-256 digest per fit, so that two source trees can be
checked for bit-identical fits with one ``diff`` of this script's output.

The fits are every method of ``hopca.simulate.METHODS`` on one
scenario-1 and one scenario-2 instance (seed 2024, ``max_iter=100``, BIC
lasso on the scenario's sparse modes, sparse-gcp at a fixed level 0.3 on
u), plus ``general_cp_tpa`` on both with a size-2 group lasso on u at
0.3 (as ``hopca decompose --penalty group`` builds it), ``sparse_cp_als``,
``sparse_hosvd`` and ``sparse_hooi`` on scenario 2 at a fixed lasso level
2.0 on u, the
BIC ``sparse_hosvd`` and ``sparse_hooi`` of scenarios 3 and 4, whose
three modes are all sparse, so that a penalized PCA runs in every mode
and on the wide unfoldings of modes 2 and 3, and ``sparse_hooi`` of the
scenario-4 tensor at ranks (3, 2, 1) with BIC on u and a non-negative
lasso 0.5 on v; and every fit of the benchmark's mono-small instance set
(seed 2024, pass 0), where ``tpa_rank_one`` and the l1
``general_cp_tpa_rank_one`` join the benchmark's own four solvers.  The
penalized PCA gets two fits of its own on a seeded 12 x 8 matrix:
``sparse_pca_rank_one`` at levels (0.4, 0.2), and each component fit of
a three-component ``sparse_pca`` at a fixed non-negative lasso level
0.4; and each component fit of a three-component BIC lasso
``sparse_pca`` (``max_iter=100``) of three unfoldings, of the tall, the
wide and the much wider kind the Tucker methods fit: scenario-2 modes 1
(1000 x 400) and 2 (20 x 20000), and scenario-1 mode 1 (100 x 10000).
One fit per family (cp-als, tpa, sparse-cp-tpa, hooi and sparse-hosvd)
is also made of the scenario-1 tensor written to a ``.t3`` file and read
back, as ``hopca decompose`` reads it, so that a change to the layout
the reader returns shows in those lines, which carry a ``trace`` line
too, as the (3, 2, 1) fit does.  A digest covers the factors and the
weights or the core, and a rank-one fit's also its objective trace, as
raw float64 bytes.  Each scenario fit also gets a ``support`` line: one
digest of its ``support_metrics`` against the simulated truth (tp, fp,
mse, permutation and signs), so that recovery scores are diffed the same
way; and a ``trace`` line: one digest of the objective traces of its
loops, so that a change that only adds loops to a fit's report still
shows that its fits are the same.  The memo of a block open on the
scenario-1 and the scenario-2 tensor gets two lines per mode: its Gram
with the Gram's top ``k`` eigenpairs, and its start (the first ``k`` left
singular vectors and values), so that a change to the route that forms a
Gram or finds its top pairs shows apart from the fits it moves.  The
standalone q-weighted lasso gets one ``qlasso`` line per solve of
:data:`QLASSO_ORDERS` x :data:`QLASSO_FRACS` seeded problems (a positive
definite q, a y, and a level that fraction of the zeroing level), cold
and warm from a seeded random start, with no step bound given, so that
the route that finds the bound itself is diffed too.

The command line's files get one line per output directory: a digest of
the bytes of the files it holds, in sorted name order, with
``timings.csv`` (wall times) left out.  The directories are written by
in-process ``hopca`` runs into a temporary directory: ``simulate`` of
scenario 2 (seed 3); ``decompose`` of its tensor by every method of
``METHODS`` (BIC lasso on u, sparse-gcp at a fixed 0.3) and by the
group penalty; ``varex`` of the tpa and the sparse-cp-tpa models;
``bic`` of mode u; ``table`` with 2 replicates and ``roc`` with 1.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/fit_digest.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 2024


def digest(fit) -> str:
    """SHA-256 over a fit's factors and weights or core: a
    :class:`CpModel` or :class:`TuckerModel`; for a :class:`RankOneFit`,
    :class:`FpcaFit` or :class:`SparsePcaFit` also over its objective
    trace (a factor or weight the fit lacks counts as 0.0)."""
    if hasattr(fit, "U"):
        arrays = [fit.U, fit.V, fit.W,
                  fit.core if hasattr(fit, "core") else fit.d]
    else:
        arrays = [getattr(fit, name, 0.0) for name in ("u", "v", "w", "d")]
        arrays.append(fit.objective_trace)
    return _sha256(arrays)


def trace_digest(model) -> str:
    """SHA-256 over the objective traces of a model's loops."""
    return _sha256(model.diagnostics.get("objective_traces", []))


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
    """(label, fit, truth) for every registry method and the group-lasso
    ``general_cp_tpa`` on scenarios 1 and 2, the fixed-level
    ``sparse_cp_als``, ``sparse_hosvd`` and ``sparse_hooi`` on scenario
    2."""
    from hopca.cli import _fit_group
    from hopca.decompose import SolverConfig
    from hopca.simulate import METHODS, SimScenarioSpec, fit_method, simulate
    from hopca.sparse import (PenaltySpec, sparse_cp_als, sparse_hooi,
                              sparse_hosvd)

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
        fit = _fit_group(x, spec.k, (0.3, None, None), 2,
                         SolverConfig(max_iter=100))
        yield f"s{scenario} general-cp-tpa", fit, truth
    ranks = (spec.k,) * 3
    for solver, rank in ((sparse_cp_als, spec.k), (sparse_hosvd, ranks),
                         (sparse_hooi, ranks)):
        fit = solver(x, rank, PenaltySpec.lasso(u=2.0),
                     SolverConfig(max_iter=100))
        yield f"s2 {fit.diagnostics['method']} u=2.0", fit, truth


def all_modes_fits():
    """(label, fit, truth) for the BIC ``sparse_hosvd`` and ``sparse_hooi``
    on scenarios 3 and 4, which penalize every mode."""
    from hopca.decompose import SolverConfig
    from hopca.simulate import SimScenarioSpec, fit_method, simulate

    for scenario in (3, 4):
        spec = SimScenarioSpec(scenario, seed=SEED)
        truth = simulate(spec)
        for name in ("sparse-hosvd", "sparse-hooi"):
            yield (f"s{scenario} {name}",
                   fit_method(name, truth.x, spec, SolverConfig(max_iter=100)),
                   truth)


def uneven_ranks_fits():
    """(label, fit) for ``sparse_hooi`` of the scenario-4 tensor at ranks
    (3, 2, 1), BIC lasso on u and a non-negative lasso 0.5 on v (support
    scores need equal ranks, so it has none)."""
    from hopca.decompose import SolverConfig
    from hopca.simulate import SimScenarioSpec, simulate
    from hopca.sparse import ModePenalty, PenaltySpec, sparse_hooi

    x = simulate(SimScenarioSpec(4, seed=SEED)).x
    pen = PenaltySpec(ModePenalty("lasso"), ModePenalty("nonneg_lasso", 0.5))
    yield ("s4 sparse-hooi (3, 2, 1) u=bic v=nonneg 0.5",
           sparse_hooi(x, (3, 2, 1), pen, SolverConfig(max_iter=100)))


T3_METHODS = ("cp-als", "tpa", "sparse-cp-tpa", "hooi", "sparse-hosvd")


def t3_fits():
    """(label, fit) for each method of ``T3_METHODS`` on the scenario-1
    tensor after a ``write_tensor3``/``read_tensor3`` round trip."""
    from hopca.decompose import SolverConfig
    from hopca.fileio import read_tensor3, write_tensor3
    from hopca.simulate import SimScenarioSpec, fit_method, simulate

    spec = SimScenarioSpec(1, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.t3"
        write_tensor3(path, simulate(spec).x)
        x = read_tensor3(path)
    for name in T3_METHODS:
        yield f"s1 t3 {name}", fit_method(name, x, spec,
                                          SolverConfig(max_iter=100))


def pca_fits():
    """(label, fit) for the penalized PCA's own fits of a small matrix."""
    from hopca.sparse import ModePenalty, sparse_pca, sparse_pca_rank_one

    m = np.random.default_rng(SEED).standard_normal((12, 8))
    yield "pca rank-one 0.4 0.2", sparse_pca_rank_one(m, 0.4, 0.2)
    _, _, _, fits = sparse_pca(m, 3, ModePenalty("nonneg_lasso", 0.4))
    for comp, fit in enumerate(fits):
        yield f"pca nonneg 0.4 comp {comp}", fit


UNFOLDINGS = ((2, 1), (2, 2), (1, 1))  # (scenario, mode)


def unfolding_pca_fits():
    """(label, fit) for each component fit of the BIC penalized PCA of
    each unfolding of ``UNFOLDINGS``."""
    from hopca.decompose import SolverConfig
    from hopca.simulate import SimScenarioSpec, simulate
    from hopca.sparse import ModePenalty, sparse_pca
    from hopca.tensor3 import matricize

    for scenario, mode in UNFOLDINGS:
        m = matricize(simulate(SimScenarioSpec(scenario, seed=SEED)).x, mode)
        _, _, _, fits = sparse_pca(m, 3, ModePenalty("lasso", None),
                                   SolverConfig(max_iter=100))
        for comp, fit in enumerate(fits):
            yield (f"pca s{scenario} mode {mode} {m.shape[0]}x{m.shape[1]} "
                   f"bic comp {comp}"), fit


def memo_grams():
    """(label, arrays) for the memo's Gram with its top pairs, and its
    start, of each unfolding of the scenario-1 and scenario-2 tensors, as a
    block open on the tensor computes them."""
    from hopca.decompose import (_shared_grams, _smaller_gram, _top_pairs,
                                 _unfolding_vectors)
    from hopca.simulate import SimScenarioSpec, simulate

    for scenario in (1, 2):
        spec = SimScenarioSpec(scenario, seed=SEED)
        with _shared_grams(simulate(spec).x) as view:
            for mode in (1, 2, 3):
                gram = _smaller_gram(view, mode)
                yield (f"s{scenario} memo gram mode {mode}",
                       [gram, *_top_pairs(gram, spec.k)])
                yield (f"s{scenario} memo start mode {mode} k {spec.k}",
                       list(_unfolding_vectors(view, mode, spec.k,
                                               return_values=True)))


def mono_small_fits():
    """(label, fit) for every fit of the mono-small instance set."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import MonoSmall

    from hopca import generalized, sparse
    from hopca.decompose import SolverConfig, tpa_rank_one

    load = MonoSmall()
    cfg = SolverConfig(tol=1e-10, max_iter=40)
    for j, inst in enumerate(load.stage(SEED, 0)):
        for frac in load.fracs:
            lam = (frac * inst.lam_max,) * 3
            yield (f"mono {j} sparse {frac}",
                   sparse.sparse_cp_tpa_rank_one(inst.x, lam, cfg))
            yield (f"mono {j} sparse-gcp {frac}",
                   generalized.sparse_gcp_rank_one(inst.x, inst.q, lam, cfg))
            yield (f"mono {j} general {frac}",
                   generalized.general_cp_tpa_rank_one(
                       inst.x, [(generalized.l1_penalty(), lev)
                                for lev in lam], cfg))
        yield f"mono {j} tpa", tpa_rank_one(inst.x, cfg)
        yield f"mono {j} gcp", generalized.gcp_rank_one(inst.x, inst.q, cfg)
        yield f"mono {j} fpca", generalized.fpca_rank_one(inst.x, inst.s, cfg)


QLASSO_ORDERS = (1, 4, 10, 30)
QLASSO_FRACS = (0.0, 0.05, 0.3, 0.8, 1.2)


def qlasso_solves():
    """(label, [solution]) for each standalone ``qnorm_lasso_solve`` of
    the seeded problems, cold and warm."""
    from hopca.generalized import qnorm_lasso_solve

    for dim in QLASSO_ORDERS:
        for frac in QLASSO_FRACS:
            rng = np.random.default_rng([SEED, dim, int(100 * frac)])
            g = rng.standard_normal((dim, dim))
            q = g @ g.T / dim + 0.5 * np.eye(dim)
            y = rng.standard_normal(dim)
            lam = frac * float(np.max(np.abs(q @ y)))
            start = rng.standard_normal(dim)
            yield (f"qlasso {dim} {frac} cold",
                   [qnorm_lasso_solve(y, q, lam)])
            yield (f"qlasso {dim} {frac} warm",
                   [qnorm_lasso_solve(y, q, lam, start=start)])


def directory_digest(path) -> str:
    """SHA-256 over the names and bytes of the files of directory
    ``path``, in sorted name order, ``timings.csv`` left out."""
    h = hashlib.sha256()
    for item in sorted(Path(path).iterdir()):
        if item.name != "timings.csv":
            data = item.read_bytes()
            h.update(f"{item.name} {len(data)}\n".encode())
            h.update(data)
    return h.hexdigest()


def _cli(*argv) -> None:
    """``hopca *argv`` in process, its printing muted; a failing run
    raises with its stderr."""
    from hopca.cli import main

    argv, err = [str(a) for a in argv], io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"hopca {' '.join(argv)} exited {code}: "
                           f"{err.getvalue()}")


def cli_runs(tmp):
    """(label, output directory) for each ``hopca`` run, written under
    the directory ``tmp``."""
    from hopca.simulate import METHODS, ROC_METHODS, TABLE_METHODS

    tmp = Path(tmp)
    x = tmp / "sim" / "x.t3"
    _cli("simulate", "--scenario", 2, "--seed", 3, "--out", tmp / "sim")
    yield "cli simulate s2 seed 3", tmp / "sim"
    runs = {name: ["--method", name] for name in METHODS}
    for name, entry in METHODS.items():
        if entry.penalty:
            runs[name] += ["--lambda-u",
                           "0.3" if entry.penalty == "fixed" else "bic"]
    runs["group"] = ["--method", "sparse-cp-tpa", "--penalty", "group",
                     "--lambda-u", "0.3"]
    for label, argv in runs.items():
        out = tmp / "decompose" / label
        _cli("decompose", *argv, "--rank", 2, "--max-iter", 100,
             "--input", x, "--out", out)
        yield f"cli decompose {label}", out
    for label in ("tpa", "sparse-cp-tpa"):
        out = tmp / "varex" / label
        _cli("varex", "--input", x, "--model", tmp / "decompose" / label,
             "--out", out)
        yield f"cli varex {label}", out
    _cli("bic", "--input", x, "--mode", "u", "--out", tmp / "bic")
    yield "cli bic u", tmp / "bic"
    scenario = ("--scenario", 2, "--max-iter", 100)
    _cli("table", *scenario, "--methods", ",".join(TABLE_METHODS),
         "--replicates", 2, "--out", tmp / "table")
    yield "cli table s2 2 replicates", tmp / "table"
    _cli("roc", *scenario, "--methods", ",".join(ROC_METHODS),
         "--replicates", 1, "--points", 5, "--out", tmp / "roc")
    yield "cli roc s2 1 replicate", tmp / "roc"


def main() -> int:
    from hopca.evaluate import support_metrics

    for label, fit, truth in (*scenario_fits(), *all_modes_fits()):
        print(f"{digest(fit)}  {label}", flush=True)
        print(f"{score_digest(support_metrics(fit, truth))}  {label} support",
              flush=True)
        print(f"{trace_digest(fit)}  {label} trace", flush=True)
    for label, fit in (*t3_fits(), *uneven_ranks_fits()):
        print(f"{digest(fit)}  {label}", flush=True)
        print(f"{trace_digest(fit)}  {label} trace", flush=True)
    for label, fit in (*mono_small_fits(), *pca_fits(),
                       *unfolding_pca_fits()):
        print(f"{digest(fit)}  {label}", flush=True)
    for label, arrays in (*memo_grams(), *qlasso_solves()):
        print(f"{_sha256(arrays)}  {label}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, path in cli_runs(tmp):
            print(f"{directory_digest(path)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
