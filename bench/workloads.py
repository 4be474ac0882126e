"""The four benchmark workloads.

Each workload has three steps.  ``stage(seed, index)`` builds the inputs
of pass ``index`` from the workload seed (untimed, except that staging
pass 0 is part of set-up).  ``run(inputs)`` is one timed pass; it calls
the library only through module attributes, so the traced run sees every
call.  ``check(inputs, outcome)`` applies the correctness gates that need
extra work (untimed).  The simulated scenarios of pass 0 use the
workload seed itself, so the default seed 2024 gives the acceptance
suite's scenario instances; later passes use seeds derived from
(seed, index).  A failure is a fit that raised, a command that exited
nonzero or a gate that did not hold.

Why these four:

* ``decompose-s1`` is the analyst path through the command line and the
  ``.t3`` text format on one 100x100x100 instance; file I/O and the SVD
  init on wide 100x10000 unfoldings dominate it.
* ``table-s2`` fits all eight table methods on a 1000x20x20 instance,
  whose tall 1000x400 mode-1 unfolding favours a plain SVD over a Gram
  eigendecomposition, and whose sparse fits spend much of their time in
  the BIC grid and lasso coordinate descent.
* ``roc-s1`` refits one 100x100x100 instance at 20 penalty levels; most
  of its SVD inits repeat the same input, so init caching and warm
  starts move it and nothing else.
* ``mono-small`` runs the monotonicity instance set on 10x10x10 tensors,
  where the q-weighted lasso solver and per-call overhead dominate and
  the SVD costs under 1%.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cli = importlib.import_module("hopca.cli")
decompose = importlib.import_module("hopca.decompose")
evaluate = importlib.import_module("hopca.evaluate")
fileio = importlib.import_module("hopca.fileio")
generalized = importlib.import_module("hopca.generalized")
hsim = importlib.import_module("hopca.simulate")
sparse = importlib.import_module("hopca.sparse")

TABLE_METHODS = ("cp-als", "tpa", "hosvd", "hooi", "sparse-cp-tpa",
                 "sparse-cp-als", "sparse-hosvd", "sparse-hooi")
_SPARSE = ("sparse-cp-tpa", "sparse-cp-als", "sparse-hosvd", "sparse-hooi")
_TUCKER = ("hosvd", "hooi", "sparse-hosvd", "sparse-hooi")
MONO_TOL = 1e-10            # criterion 2
MONO_INSTANCES = 5
ROC_DOMINANCE_MIN = 0.6     # on the median over a run's passes; see RocS1
# Loose per-pass floors on the sparse-cp-tpa fit (component 1, mode u).
# The unmodified library stays well inside them on every instance probed
# (decompose-s1: u1_tp >= 0.86 and signal_mse <= 0.0008 over 30 seeds;
# table-s2: u1_tp >= 0.70 and signal_mse <= 0.011 over 60), while a
# wrong SVD init drives table-s2's u1_tp to 0 and signal_mse to 0.125.
FIT_FLOORS = {"decompose-s1": (0.7, 0.002), "table-s2": (0.6, 0.02)}


def instance_seed(seed: int, index: int) -> int:
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one pass did: operations attempted, failures, quality figures."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def gate(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _u1(metrics) -> dict[str, float]:
    # sparse-cp-tpa, largest component, mode u
    return {"u1_tp": float(metrics.tp[0, 0]), "u1_fp": float(metrics.fp[0, 0]),
            "signal_mse": float(metrics.mse)}


def _gate_fit(name: str, out: Outcome) -> None:
    tp_min, mse_max = FIT_FLOORS[name]
    tp = out.quality.get("u1_tp", np.nan)
    mse = out.quality.get("signal_mse", np.nan)
    out.gate(tp >= tp_min, f"sparse-cp-tpa u1_tp {tp:.3f} is below {tp_min}")
    out.gate(mse <= mse_max,
             f"sparse-cp-tpa signal_mse {mse:.3g} is above {mse_max}")


# ---------------------------------------------------------------------------
# decompose-s1: simulate -> 8 decompositions -> varex, all through the CLI


@dataclass
class CliInputs:
    seed: int
    workdir: Path
    truth: object


class DecomposeS1:
    name = "decompose-s1"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def stage(self, seed, index):
        s = instance_seed(seed, index)
        truth = hsim.simulate(hsim.SimScenarioSpec(scenario=1, k=2, seed=s))
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        return CliInputs(s, self.workdir, truth)

    @staticmethod
    def _cli(out: Outcome, argv) -> bool:
        out.attempted += 1
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main([str(a) for a in argv])
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            code = repr(exc)
        if code != 0:
            out.failures.append(f"hopca {argv[0]} exited {code}: "
                                f"{sink.getvalue().strip()[-200:]}")
        return code == 0

    def run(self, inputs: CliInputs) -> Outcome:
        out = Outcome()
        sim, fits = inputs.workdir / "sim", inputs.workdir / "fit"
        x_path = sim / "x.t3"
        self._cli(out, ["simulate", "--scenario", 1, "--k", 2,
                        "--seed", inputs.seed, "--out", sim])
        for method in TABLE_METHODS:
            argv = ["decompose", "--method", method, "--rank", 2,
                    "--max-iter", 100, "--input", x_path,
                    "--out", fits / method]
            if method in _SPARSE:
                argv += ["--lambda-u", "bic"]
            self._cli(out, argv)
        self._cli(out, ["varex", "--input", x_path,
                        "--model", fits / "sparse-cp-tpa",
                        "--out", inputs.workdir / "varex"])
        for method in TABLE_METHODS:
            out.attempted += 1
            load = (fileio.load_tucker_model if method in _TUCKER
                    else fileio.load_cp_model)
            try:
                model = load(fits / method)
                metrics = evaluate.support_metrics(model, inputs.truth)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.failures.append(f"reload/score {method}: {exc!r}")
                continue
            if method == "sparse-cp-tpa":
                out.quality.update(_u1(metrics))
        return out

    def check(self, inputs: CliInputs, out: Outcome) -> None:
        x_path = inputs.workdir / "sim" / "x.t3"
        try:
            same = (fileio.read_tensor3(x_path).tobytes()
                    == inputs.truth.x.tobytes())
            detail = "differs from the simulated x"
        except (OSError, ValueError) as exc:
            same, detail = False, f"failed: {exc!r}"
        out.gate(same, f"x.t3 read-back {detail}")
        _gate_fit(self.name, out)


# ---------------------------------------------------------------------------
# table-s2: one replicate of all eight table methods on scenario 2


class TableS2:
    name = "table-s2"

    def stage(self, seed, index):
        return hsim.SimScenarioSpec(scenario=2, k=2,
                                    seed=instance_seed(seed, index))

    def run(self, spec) -> Outcome:
        out = Outcome(attempted=len(TABLE_METHODS))
        result = hsim.run_table_experiment(
            spec, TABLE_METHODS, 1, cfg=decompose.SolverConfig(max_iter=100),
            jobs=1)
        out.failures += [f"{name} raised {err}"
                         for name, _, err in result.failures]
        out.data["rows"] = result.rows
        return out

    def check(self, spec, out: Outcome) -> None:
        rows = {(r[0], r[1], r[2]): r for r in out.data.pop("rows")}
        for method in TABLE_METHODS:
            out.gate((method, 0, "u") in rows, f"{method}: no metric rows")
        u1 = rows.get(("sparse-cp-tpa", 0, "u"))
        if u1 is not None:
            out.quality.update(u1_tp=u1[3], u1_fp=u1[4], signal_mse=u1[5])
        _gate_fit(self.name, out)


# ---------------------------------------------------------------------------
# roc-s1: 20-point ROC sweep of sparse-cp-tpa against thresholded CP


class RocS1:
    """The gates check that both curves are complete, that no penalty (or
    threshold) keeps every entry, and that thresholding at the column
    maximum keeps none.  Where the sparse fit zeroes near the top of the
    grid depends on its starting point, so it is not gated.  Across a
    run, the median share of grid points where the sparse curve
    dominates the naive one must reach ``ROC_DOMINANCE_MIN``
    (:func:`gate_run`).  The acceptance suite asserts 0.8 on the mean of
    five replicates, but a run has only two passes and one replicate
    reads anywhere from 0.55 to 1.0 (24 seeds probed): pairs drawn from
    those 24 fall below 0.8 15% of the time and below 0.6 0.2%.
    """

    name = "roc-s1"
    methods = ("sparse-cp-tpa", "cp-naive")
    points = 20

    def stage(self, seed, index):
        return hsim.SimScenarioSpec(scenario=1, k=2,
                                    seed=instance_seed(seed, index))

    def run(self, spec) -> Outcome:
        out = Outcome(attempted=len(self.methods))
        try:
            result = hsim.run_roc_experiment(
                spec, self.methods, 1, cfg=decompose.SolverConfig(max_iter=60),
                points=self.points, jobs=1)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            out.failures += [f"roc sweep raised {exc!r}"] * len(self.methods)
            return out
        out.data["rows"] = result.rows
        return out

    def check(self, spec, out: Outcome) -> None:
        rows = out.data.pop("rows", None)
        if rows is None:
            out.gate(False, "no ROC rows")
            return
        curves = {}
        for method in self.methods:
            # criterion 7: average the components' mode-u points per index
            by_index = {}
            for m, gi, _, mode, _, tp, fp in rows:
                if m == method and mode == "u":
                    by_index.setdefault(gi, []).append((tp, fp))
            pts = [np.array(by_index[gi]) for gi in sorted(by_index)]
            out.gate(len(pts) == self.points
                     and all(p.shape == (spec.k, 2) for p in pts),
                     f"{method}: expected {self.points} grid points with "
                     f"{spec.k} components each")
            if not pts:
                continue
            flat = np.concatenate(pts)
            out.gate(bool(np.all((flat >= 0.0) & (flat <= 1.0))),
                     f"{method}: TP/FP outside [0, 1]")
            out.gate(bool(np.all(pts[0] == 1.0)),
                     f"{method}: the unpenalized point is not (1, 1)")
            if method == "cp-naive":
                out.gate(bool(np.all(pts[-1] == 0.0)),
                         "cp-naive: thresholding at the column maximum kept "
                         "entries")
            curves[method] = (np.array([p[:, 1].mean() for p in pts]),
                              np.array([p[:, 0].mean() for p in pts]))
        if len(curves) == 2:
            (fp_s, tp_s), (fp_n, tp_n) = (curves[m] for m in self.methods)
            out.quality["roc_dominance"] = evaluate.roc_dominance_fraction(
                fp_s, tp_s, fp_n, tp_n)


def gate_run(name: str, medians: dict[str, float]) -> list[tuple[bool, str]]:
    """Gates on a run's quality medians over passes, as (held, message)."""
    if name != RocS1.name:
        return []
    dom = medians.get("roc_dominance", np.nan)
    return [(dom >= ROC_DOMINANCE_MIN,
             f"roc_dominance {dom:.3f} (median over passes) is below "
             f"{ROC_DOMINANCE_MIN}")]


# ---------------------------------------------------------------------------
# mono-small: the monotonicity instance set on 10x10x10 tensors


@dataclass
class MonoInstance:
    x: np.ndarray
    lam_max: float
    q: object
    s: object


def _random_pd(rng, dim, spread=1.5):
    g = rng.standard_normal((dim, dim))
    q = g @ g.T / dim + spread * np.eye(dim)
    return 0.5 * (q + q.T)


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class MonoSmall:
    name = "mono-small"
    fracs = (0.0, 0.1, 0.5)

    def stage(self, seed, index):
        out = []
        for j in range(MONO_INSTANCES):
            rng = np.random.default_rng([seed, index, j])
            x = rng.standard_normal((10, 10, 10))
            v0, w0 = _unit(rng, 10), _unit(rng, 10)
            lam_max = float(np.max(np.abs(np.einsum("ijk,j,k->i", x, v0, w0))))
            q = generalized.QuadOperators(_random_pd(rng, 10),
                                          _random_pd(rng, 10),
                                          _random_pd(rng, 10))
            s = generalized.SmootherSet.second_difference((10, 10, 10), 1.0)
            out.append(MonoInstance(x, lam_max, q, s))
        return out

    def run(self, instances) -> Outcome:
        out = Outcome()
        cfg = decompose.SolverConfig(tol=1e-10, max_iter=40)
        steps = {"sparse": [], "gcp": [], "sparse-gcp": [], "fpca": []}

        def fit(kind, call, *args):
            out.attempted += 1
            try:
                trace = call(*args).objective_trace
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.failures.append(f"{kind} raised {exc!r}")
                return
            if trace.size > 1:
                diffs = np.diff(trace)
                steps[kind].append(float(diffs.max() if kind == "fpca"
                                         else diffs.min()))

        for inst in instances:
            for frac in self.fracs:
                lam = (frac * inst.lam_max,) * 3
                fit("sparse", sparse.sparse_cp_tpa_rank_one, inst.x, lam, cfg)
                fit("sparse-gcp", generalized.sparse_gcp_rank_one, inst.x,
                    inst.q, lam, cfg)
            fit("gcp", generalized.gcp_rank_one, inst.x, inst.q, cfg)
            fit("fpca", generalized.fpca_rank_one, inst.x, inst.s, cfg)
        out.data["steps"] = steps
        return out

    def check(self, instances, out: Outcome) -> None:
        steps = out.data.pop("steps")
        for kind, values in steps.items():
            if not values:
                continue
            if kind == "fpca":
                worst = max(values)
                ok = worst <= MONO_TOL
            else:
                worst = min(values)
                ok = worst >= -MONO_TOL
            out.quality[f"{kind}_worst_step"] = worst
            out.gate(ok, f"{kind} objective step {worst:.3e} breaks the "
                         f"{MONO_TOL:g} monotonicity clause")


def all_workloads(workdir: Path) -> dict:
    loads = (DecomposeS1(workdir / "decompose-s1"), TableS2(), RocS1(),
             MonoSmall())
    return {w.name: w for w in loads}
