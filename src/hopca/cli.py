"""Command-line interface.

Subcommands: ``decompose`` (fit any method on a ``.t3`` tensor),
``simulate`` (draw a scenario instance), ``table`` / ``roc`` (replicated
experiments), ``varex`` (variance explained), and ``bic`` (penalty
selection path).  Exit codes: 0 ok, 1 usage, 2 I/O, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fileio
from .decompose import SolverConfig, tpa_rank_one
from .decompose import contract_u, contract_v, contract_w
from .evaluate import bic_select, default_lambda_grid, variance_explained
from .generalized import (
    QuadOperators,
    SmootherSet,
    general_cp_tpa,
    group_lasso_penalty,
    l1_penalty,
)
from .simulate import (
    METHODS,
    ROC_METHODS,
    TABLE_METHODS,
    SimScenarioSpec,
    run_roc_experiment,
    run_table_experiment,
    simulate,
)
from .sparse import PenaltySpec


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _parse_lambda(text: str | None):
    """None -> unpenalized; 'bic'/'auto' -> default grid; scalar; or grid."""
    if text is None:
        return None
    if text in ("bic", "auto"):
        return "bic"
    values = [float(tok) for tok in text.split(",") if tok]
    if not values:
        raise CliError(1, "empty lambda specification")
    return values[0] if len(values) == 1 else values


def _parse_ranks(text: str, tucker: bool):
    parts = [int(tok) for tok in text.split(",") if tok]
    if tucker:
        if len(parts) == 1:
            parts = parts * 3
        if len(parts) != 3:
            raise CliError(1, "Tucker methods need --rank K or K1,K2,K3")
        return tuple(parts)
    if len(parts) != 1:
        raise CliError(1, "CP-style methods take a single --rank K")
    return parts[0]


def _load_tensor(path):
    try:
        return fileio.read_tensor3(path)
    except FileNotFoundError as exc:
        raise CliError(2, f"input file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise CliError(2, f"cannot read tensor {path}: {exc}") from exc


def _load_matrix(path):
    try:
        return fileio.read_matrix_csv(path)
    except FileNotFoundError as exc:
        raise CliError(2, f"matrix file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise CliError(2, f"cannot read matrix {path}: {exc}") from exc


def _quad_operators(args, dims) -> QuadOperators:
    mats = []
    for flag, dim in zip((args.q1, args.q2, args.q3), dims):
        mats.append(_load_matrix(flag) if flag else np.eye(dim))
    return QuadOperators(*mats)


def _smoothers(args, dims) -> SmootherSet:
    if args.q1 or args.q2 or args.q3:
        omegas = []
        for flag, dim in zip((args.q1, args.q2, args.q3), dims):
            omegas.append(_load_matrix(flag) if flag else np.zeros((dim, dim)))
        return SmootherSet(*omegas, alpha=args.alpha)
    return SmootherSet.second_difference(dims, args.alpha,
                                         order=args.diff_order)


def _cmd_decompose(args) -> int:
    x = _load_tensor(args.input)
    cfg = SolverConfig(max_iter=args.max_iter, tol=args.tol, seed=args.seed,
                       init=args.init, orthogonalize=args.orthogonalize)
    method = args.method
    entry = METHODS[method]
    tucker = entry.tucker
    ranks = _parse_ranks(args.rank, tucker)
    lams = [_parse_lambda(v) for v in (args.lambda_u, args.lambda_v,
                                       args.lambda_w)]
    kind = {"lasso": "lasso", "nonneg": "nonneg_lasso"}.get(args.penalty)
    if args.penalty == "group":
        for lam in lams:
            if lam is not None and not np.isscalar(lam):
                raise CliError(1, "group penalty needs fixed scalar lambdas")
        model = _fit_group(x, ranks, lams, args, cfg)
    else:
        pen = PenaltySpec.lasso(*lams, kind=kind) if entry.penalty else None
        if entry.penalty == "fixed" and any(
                p.is_adaptive for p in (pen.u, pen.v, pen.w)):
            raise CliError(1, f"{method} takes fixed scalar lambdas")
        op = (None if entry.operator is None else
              {"q": _quad_operators, "s": _smoothers}[entry.operator](
                  args, x.shape))
        model = entry.fit(x, ranks, cfg, pen, op)

    os.makedirs(args.out, exist_ok=True)
    if tucker:
        fileio.save_tucker_model(args.out, model)
        from .tensor3 import frob_norm

        print(f"{method}: core norm {frob_norm(model.core):.6g} -> {args.out}")
    else:
        fileio.save_cp_model(args.out, model)
        weights = " ".join(f"{v:.6g}" for v in model.d)
        print(f"{method}: d = [{weights}] -> {args.out}")
    return 0


def _fit_group(x, ranks, lams, args, cfg):
    if args.method != "sparse-cp-tpa":
        raise CliError(1, "the group penalty is available for sparse-cp-tpa")
    size = args.group_size
    penalties = []
    for lam, dim in zip(lams, x.shape):
        if lam is None:
            penalties.append((l1_penalty(), 0.0))
        else:
            groups = [np.arange(s, min(s + size, dim))
                      for s in range(0, dim, size)]
            penalties.append((group_lasso_penalty(groups), float(lam)))
    return general_cp_tpa(x, ranks, penalties, cfg)


def _scenario_spec(args) -> SimScenarioSpec:
    return SimScenarioSpec(scenario=args.scenario, k=args.k,
                           sparsity=args.sparsity, signal=args.signal,
                           seed=args.seed, noise=args.noise)


def _cmd_simulate(args) -> int:
    spec = _scenario_spec(args)
    truth = simulate(spec)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_tensor3(os.path.join(args.out, "x.t3"), truth.x)
    fileio.write_tensor3(os.path.join(args.out, "signal.t3"), truth.x_signal)
    for name, factor in (("U", truth.U), ("V", truth.V), ("W", truth.W)):
        fileio.write_matrix_csv(os.path.join(args.out, f"{name}.csv"), factor)
    fileio.write_vector_csv(os.path.join(args.out, "d.csv"), truth.d)
    for mode in ("u", "v", "w"):
        np.savetxt(os.path.join(args.out, f"support_{mode}.csv"),
                   truth.supports[mode].astype(int), fmt="%d", delimiter=",")
    fileio.write_diagnostics(os.path.join(args.out, "spec.txt"), {
        "scenario": spec.scenario, "k": spec.k, "sparsity": spec.sparsity,
        "signal": spec.signal, "seed": spec.seed, "noise": spec.noise,
        "dims": "x".join(str(d) for d in spec.dims),
    })
    print(f"scenario {spec.scenario} ({'x'.join(map(str, spec.dims))}) "
          f"-> {args.out}")
    return 0


def _methods_list(text: str, allowed) -> list[str]:
    if not text:
        return []
    names = [tok for tok in text.split(",") if tok]
    for name in names:
        if name not in allowed:
            raise CliError(1, f"unknown method {name!r}; choose from "
                           f"{', '.join(allowed)}")
    return names


def _cmd_table(args) -> int:
    spec = _scenario_spec(args)
    methods = _methods_list(args.methods, TABLE_METHODS)
    grid = _parse_lambda(args.grid) if args.grid else None
    grid = None if grid == "bic" else grid
    result = run_table_experiment(spec, methods, args.replicates,
                                  cfg=_experiment_cfg(args), jobs=args.jobs,
                                  lam_grid=grid)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_table_csv(os.path.join(args.out, "metrics.csv"),
                           list(result.header), result.rows)
    fileio.write_table_csv(os.path.join(args.out, "timings.csv"),
                           list(result.timing_header), result.timings)
    if result.failures:
        fileio.write_table_csv(os.path.join(args.out, "failures.csv"),
                               ["method", "replicate", "error"],
                               result.failures)
    for row in result.rows:
        print(",".join(str(v) for v in row))
    return 0


def _cmd_roc(args) -> int:
    spec = _scenario_spec(args)
    methods = _methods_list(args.methods, ROC_METHODS)
    grid = _parse_lambda(args.grid) if args.grid else None
    grid = None if grid == "bic" else grid
    if grid is not None and np.isscalar(grid):
        grid = [grid]
    result = run_roc_experiment(spec, methods, args.replicates, grid=grid,
                                cfg=_experiment_cfg(args), jobs=args.jobs,
                                points=args.points)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_table_csv(os.path.join(args.out, "roc.csv"),
                           list(result.header), result.rows)
    print(f"wrote {len(result.rows)} ROC rows -> {args.out}/roc.csv")
    return 0


def _experiment_cfg(args) -> SolverConfig:
    return SolverConfig(max_iter=args.max_iter, tol=args.tol, seed=args.seed)


def _cmd_varex(args) -> int:
    x = _load_tensor(args.input)
    core_path = os.path.join(args.model, "core.t3")
    try:
        if os.path.exists(core_path):
            model = fileio.load_tucker_model(args.model)
        else:
            model = fileio.load_cp_model(args.model)
    except FileNotFoundError as exc:
        raise CliError(2, f"cannot load model from {args.model}: {exc}") from exc
    report = variance_explained(x, model, args.k)
    os.makedirs(args.out, exist_ok=True)
    rows = [(k + 1, value) for k, value in enumerate(report.cumulative)]
    fileio.write_table_csv(os.path.join(args.out, "varex.csv"),
                           ["k", "cumulative_varex"], rows)
    for k, value in rows:
        print(f"{k},{value:.12g}")
    return 0


def _cmd_bic(args) -> int:
    x = _load_tensor(args.input)
    if args.mode not in ("u", "v", "w"):
        raise CliError(1, "mode must be u, v or w")
    cfg = SolverConfig(max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    fit = tpa_rank_one(x, cfg)
    contraction = {"u": lambda: contract_u(x, fit.v, fit.w),
                   "v": lambda: contract_v(x, fit.u, fit.w),
                   "w": lambda: contract_w(x, fit.u, fit.v)}[args.mode]()
    grid = _parse_lambda(args.grid) if args.grid else "bic"
    if grid == "bic":
        grid = default_lambda_grid(float(np.max(np.abs(contraction))))
    elif np.isscalar(grid):
        grid = [grid]
    selection = bic_select(x, contraction, grid)
    os.makedirs(args.out, exist_ok=True)
    rows = list(zip(selection.grid, selection.bic_values, selection.nnz))
    fileio.write_table_csv(os.path.join(args.out, "bic.csv"),
                           ["lambda", "bic", "nnz"], rows)
    print(f"lambda*={selection.lam:.12g}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopca",
                     description="Higher-order PCA toolkit for third-order "
                                 "tensors")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_solver_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iter", type=int, default=500)
        p.add_argument("--tol", type=float, default=1e-6)

    dec = sub.add_parser("decompose", help="fit a decomposition on a .t3 file")
    dec.add_argument("--method", required=True, choices=tuple(METHODS))
    dec.add_argument("--rank", default="1",
                     help="K for CP-style methods, K or K1,K2,K3 for Tucker")
    dec.add_argument("--input", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--lambda-u", dest="lambda_u")
    dec.add_argument("--lambda-v", dest="lambda_v")
    dec.add_argument("--lambda-w", dest="lambda_w")
    dec.add_argument("--penalty", choices=("lasso", "nonneg", "group"),
                     default="lasso")
    dec.add_argument("--group-size", type=int, default=2)
    dec.add_argument("--q1")
    dec.add_argument("--q2")
    dec.add_argument("--q3")
    dec.add_argument("--alpha", type=float, default=1.0)
    dec.add_argument("--diff-order", type=int, choices=(2, 4), default=2)
    dec.add_argument("--init", choices=("hosvd", "random"), default="hosvd")
    dec.add_argument("--orthogonalize", action="store_true")
    add_solver_flags(dec)
    dec.set_defaults(func=_cmd_decompose)

    def add_scenario_flags(p):
        p.add_argument("--scenario", type=int, required=True,
                       choices=(1, 2, 3, 4))
        p.add_argument("--k", type=int, default=2, choices=(1, 2))
        p.add_argument("--sparsity", type=float, default=0.5)
        p.add_argument("--signal", choices=("high", "low"), default="high")
        p.add_argument("--noise", type=float, default=1.0)

    sim = sub.add_parser("simulate", help="draw one scenario instance")
    add_scenario_flags(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    tab = sub.add_parser("table", help="replicated recovery-metric table")
    add_scenario_flags(tab)
    tab.add_argument("--methods", required=True,
                     help=f"comma list from: {', '.join(TABLE_METHODS)}")
    tab.add_argument("--replicates", type=int, default=10)
    tab.add_argument("--grid", help="lambda grid (comma list) or 'auto'")
    tab.add_argument("--jobs", type=_positive_int, default=1)
    tab.add_argument("--out", required=True)
    add_solver_flags(tab)
    tab.set_defaults(func=_cmd_table)

    roc = sub.add_parser("roc", help="replicated ROC sweep")
    add_scenario_flags(roc)
    roc.add_argument("--methods", required=True,
                     help=f"comma list from: {', '.join(ROC_METHODS)}")
    roc.add_argument("--replicates", type=int, default=5)
    roc.add_argument("--grid", help="lambda grid (comma list) or 'auto'")
    roc.add_argument("--points", type=int, default=20)
    roc.add_argument("--jobs", type=_positive_int, default=1)
    roc.add_argument("--out", required=True)
    add_solver_flags(roc)
    roc.set_defaults(func=_cmd_roc)

    var = sub.add_parser("varex", help="cumulative variance explained")
    var.add_argument("--input", required=True)
    var.add_argument("--model", required=True,
                     help="directory written by decompose")
    var.add_argument("--k", type=int, default=None)
    var.add_argument("--out", default=".")
    var.set_defaults(func=_cmd_varex)

    bic = sub.add_parser("bic", help="BIC path for one mode's penalty")
    bic.add_argument("--input", required=True)
    bic.add_argument("--mode", required=True, choices=("u", "v", "w"))
    bic.add_argument("--grid", help="lambda grid (comma list); default auto")
    bic.add_argument("--out", default=".")
    add_solver_flags(bic)
    bic.set_defaults(func=_cmd_bic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except CliError as exc:
        print(f"hopca: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"hopca: file not found: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hopca: I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"hopca: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
