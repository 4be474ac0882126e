"""Command-line interface.

Subcommands: ``decompose`` (fit any method on a ``.t3`` tensor),
``simulate`` (draw a scenario instance), ``table`` / ``roc`` (replicated
experiments), ``varex`` (variance explained), and ``bic`` (penalty
selection path).  Exit codes: 0 ok, 1 usage, 2 I/O, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import fileio
from .decompose import CpModel, SolverConfig, _check_ranks, tpa_rank_one
from .decompose import contract_u, contract_v, contract_w
from .evaluate import _checked_k, bic_select, variance_explained
from .generalized import (
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
from .sparse import ModePenalty, PenaltySpec, _require_lasso
from .tensor3 import frob_norm


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextmanager
def _flag_values(message: str | None = None):
    """Report a flag value that the library (or a flag parser) rejects
    as a usage error, exit 1, rather than as a numerical failure; with
    ``message`` in place of the library's text."""
    try:
        yield
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise CliError(1, message or f"bad flag value: {exc}") from exc


def _parse_lambda(text: str | None):
    """None -> unpenalized; 'bic'/'auto' -> default grid; scalar; or grid."""
    if text is None:
        return None
    if text in ("bic", "auto"):
        return "bic"
    with _flag_values():
        values = [float(tok) for tok in text.split(",") if tok]
    if not values:
        raise CliError(1, "empty lambda specification")
    return values[0] if len(values) == 1 else values


def _parse_grid(text: str | None) -> ModePenalty:
    """The --grid flag, read as :func:`_parse_lambda` reads a lambda, as
    the lasso penalty that selects over it: its level or grid is checked
    by the library's rule (non-negative, strictly increasing) before any
    input is read, and ``lam`` is None for the default grid."""
    grid = _parse_lambda(text or "bic")
    with _flag_values():
        return ModePenalty("lasso", None if grid == "bic" else grid)


def _parse_ranks(text: str, tucker: bool):
    # a single K is (K, K, K) for Tucker
    parts = [_positive_int(tok) for tok in text.split(",") if tok]
    if len(parts) == 1:
        return (parts[0],) * 3 if tucker else parts[0]
    if tucker and len(parts) == 3:
        return tuple(parts)
    raise CliError(1, "Tucker methods need --rank K or K1,K2,K3" if tucker
                   else "CP-style methods take a single --rank K")


def _load(read, path, what: str):
    """``read(path)``, with a missing or unreadable file as exit 2."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise CliError(2, f"cannot read {what} {path}: {exc}") from exc


def _unread_flags(args, entry) -> list[str]:
    """The decompose flags given that the registry entry's solver would
    not read: ``--orthogonalize`` outside tpa, a random ``--init`` where
    the solver starts from singular vectors (``tucker``), a lambda
    without a ``penalty``, a penalty kind where the solver takes no spec
    (only lasso levels, if any), the group penalty outside
    sparse-cp-tpa, a matrix file without an ``operator``, a smoother
    flag without smoothers, a difference order beside roughness files
    and a group size without groups."""
    files = {"--q1": args.q1, "--q2": args.q2, "--q3": args.q3}
    given = {"--orthogonalize": args.orthogonalize and args.method != "tpa",
             "--init": entry.tucker and args.init != "hosvd"}
    if not entry.penalty:
        given.update({"--lambda-u": args.lambda_u, "--lambda-v": args.lambda_v,
                      "--lambda-w": args.lambda_w})
    if entry.penalty != "spec":
        given["--penalty"] = args.penalty != "lasso"
    elif args.method != "sparse-cp-tpa":
        given["--penalty"] = args.penalty == "group"
    if not entry.operator:
        given.update(files)
    if entry.operator != "s":
        given["--alpha"] = args.alpha is not None
    if entry.operator != "s" or any(files.values()):
        given["--diff-order"] = args.diff_order is not None
    if args.penalty != "group":
        given["--group-size"] = args.group_size is not None
    return [flag for flag, value in given.items() if value]


def _cmd_decompose(args) -> int:
    method = args.method
    entry = METHODS[method]
    tucker = entry.tucker
    unread = _unread_flags(args, entry)
    if unread:
        raise CliError(1, f"{method} does not read {', '.join(unread)}")
    group = args.penalty == "group"
    cfg = _solver_config(args, init=args.init,
                         orthogonalize=args.orthogonalize)
    lams = [_parse_lambda(v) for v in (args.lambda_u, args.lambda_v,
                                       args.lambda_w)]
    kind = {"nonneg": "nonneg_lasso"}.get(args.penalty, "lasso")
    alpha = 1.0 if args.alpha is None else args.alpha
    with _flag_values():
        ranks = _parse_ranks(args.rank, tucker)
        # the group levels are checked as lasso levels, then used as given
        pen = PenaltySpec.lasso(*lams, kind=kind) if entry.penalty else None
        if method == "sparse-cp-als":
            _require_lasso(pen)
        if entry.operator == "s":
            # the library's rule for --alpha, checked before any input
            SmootherSet(*np.zeros((3, 1, 1)), alpha=alpha)
    if group or entry.penalty == "fixed":
        with _flag_values(f"{method} --penalty {args.penalty} takes fixed "
                          "scalar lambdas"):
            for mode_pen in pen.by_mode().values():
                mode_pen.fixed_level()
    x = _load(fileio.read_tensor3, args.input, "tensor")
    if tucker:
        with _flag_values():
            _check_ranks(x, ranks)
    if group:
        model = _fit_group(x, ranks, lams, args.group_size or 2, cfg)
    else:
        mats = [_load(fileio.read_matrix_csv, path, "matrix") if path else None
                for path in (args.q1, args.q2, args.q3)]
        model = entry.fit(x, ranks, cfg, pen, entry.build_operator(
            x.shape, mats, alpha, args.diff_order or 2))
    fileio.save_model(args.out, model)
    _name_unconverged(method, model.diagnostics, args.max_iter)
    if tucker:
        print(f"{method}: core norm {frob_norm(model.core):.6g} -> {args.out}")
    else:
        weights = " ".join(f"{v:.6g}" for v in model.d)
        print(f"{method}: d = [{weights}] -> {args.out}")
    return 0


def _name_unconverged(method, diag, max_iter) -> None:
    """Name on stderr each loop of the fit (numbered in run order, as in
    ``trace.csv``) that stopped at ``max_iter`` sweeps before
    converging."""
    for k, converged in enumerate(diag["converged"]):
        if not converged:
            print(f"hopca: {method}: loop {k} did not converge within "
                  f"--max-iter {max_iter}", file=sys.stderr)


def _fit_group(x, ranks, lams, size, cfg):
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
    with _flag_values():
        return SimScenarioSpec(scenario=args.scenario, k=args.k,
                               sparsity=args.sparsity, signal=args.signal,
                               seed=args.seed, noise=args.noise)


def _cmd_simulate(args) -> int:
    spec = _scenario_spec(args)
    truth = simulate(spec)
    # the truth is a sparse CP model; its reconstruction is the noise-free
    # signal, and the spec rides in its diagnostics
    dims = "x".join(map(str, spec.dims))
    fileio.save_model(args.out, CpModel(truth.U, truth.V, truth.W, truth.d, {
        **dataclasses.asdict(spec), "dims": dims, "sparse": True}))
    fileio.write_tensor3(os.path.join(args.out, "x.t3"), truth.x)
    print(f"scenario {spec.scenario} ({dims}) -> {args.out}")
    return 0


def _methods_list(text: str, allowed) -> list[str]:
    names = [tok for tok in text.split(",") if tok]
    if not names:
        raise CliError(1, f"--methods names no method; choose from "
                       f"{', '.join(allowed)}")
    for name in names:
        if name not in allowed:
            raise CliError(1, f"unknown method {name!r}; choose from "
                           f"{', '.join(allowed)}")
    return names


def _check_out(out) -> None:
    """Exit 2 before any input is read or any fit runs when ``--out``, or
    the nearest of its ancestors that exists, is not a directory, where
    every subcommand would fail only on its first write."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if os.path.isdir(path):
        return
    if path != os.path.abspath(out):
        raise CliError(2, f"I/O error: --out {out} lies under {path}, "
                          "which is not a directory")
    raise CliError(2, f"I/O error: --out {out} is not a directory")


def _write_csv(out, name, header, rows) -> None:
    """Write the CSV ``out/name``, making the directory ``out``."""
    os.makedirs(out, exist_ok=True)
    fileio.write_table_csv(os.path.join(out, name), list(header), rows)


def _cmd_table(args) -> int:
    spec, cfg = _scenario_spec(args), _solver_config(args)
    methods = _methods_list(args.methods, TABLE_METHODS)
    grid = _parse_grid(args.grid).lam
    result = run_table_experiment(spec, methods, args.replicates, cfg=cfg,
                                  jobs=args.jobs, lam_grid=grid)
    _write_csv(args.out, "metrics.csv", result.header, result.rows)
    _write_csv(args.out, "timings.csv", result.timing_header, result.timings)
    if result.failures:
        _write_csv(args.out, "failures.csv", ["method", "replicate", "error"],
                   result.failures)
    for row in result.rows:
        print(",".join(str(v) for v in row))
    if result.failures and not result.rows:
        raise CliError(3, "every replicate of every method failed; see "
                       f"{os.path.join(args.out, 'failures.csv')}")
    return 0


def _cmd_roc(args) -> int:
    spec, cfg = _scenario_spec(args), _solver_config(args)
    methods = _methods_list(args.methods, ROC_METHODS)
    grid = _parse_grid(args.grid).lam
    grid = None if grid is None else np.atleast_1d(grid)
    result = run_roc_experiment(spec, methods, args.replicates, grid=grid,
                                cfg=cfg, jobs=args.jobs, points=args.points)
    _write_csv(args.out, "roc.csv", result.header, result.rows)
    print(f"wrote {len(result.rows)} ROC rows -> {args.out}/roc.csv")
    return 0


def _solver_config(args, **settings) -> SolverConfig:
    with _flag_values():
        return SolverConfig(max_iter=args.max_iter, tol=args.tol,
                            seed=args.seed, **settings)


def _cmd_varex(args) -> int:
    model = _load(fileio.load_model, args.model, "model")
    with _flag_values():
        upto_k = _checked_k(model, args.k, "--k")
    x = _load(fileio.read_tensor3, args.input, "tensor")
    report = variance_explained(x, model, upto_k)
    rows = [(k + 1, value) for k, value in enumerate(report.cumulative)]
    _write_csv(args.out, "varex.csv", ["k", "cumulative_varex"], rows)
    for k, value in rows:
        print(f"{k},{value:.12g}")
    return 0


def _cmd_bic(args) -> int:
    cfg = _solver_config(args)
    pen = _parse_grid(args.grid)
    x = _load(fileio.read_tensor3, args.input, "tensor")
    fit = tpa_rank_one(x, cfg)
    contraction = {"u": lambda: contract_u(x, fit.v, fit.w),
                   "v": lambda: contract_v(x, fit.u, fit.w),
                   "w": lambda: contract_w(x, fit.u, fit.v)}[args.mode]()
    selection = bic_select(x, contraction, pen.grid_for(contraction))
    rows = list(zip(selection.grid, selection.bic_values, selection.nnz))
    _write_csv(args.out, "bic.csv", ["lambda", "bic", "nnz"], rows)
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
        p.add_argument("--tol", type=float, default=1e-6,
                       help="stop once the objective changes by at most tol "
                       "times its last value (cp-als, sparse-cp-als: once "
                       "the relative residual changes by less than tol)")

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
    dec.add_argument("--group-size", type=_positive_int,
                     help="block length of the group penalty (default 2)")
    dec.add_argument("--q1")
    dec.add_argument("--q2")
    dec.add_argument("--q3")
    dec.add_argument("--alpha", type=float, help="smoother weight "
                     "(default 1)")
    dec.add_argument("--diff-order", type=int, choices=(2, 4),
                     help="difference order of the default smoothers "
                     "(default 2)")
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

    def add_experiment(name, text, methods, replicates, func):
        p = sub.add_parser(name, help=text)
        add_scenario_flags(p)
        p.add_argument("--methods", required=True,
                       help=f"comma list from: {', '.join(methods)}")
        p.add_argument("--replicates", type=_positive_int, default=replicates)
        p.add_argument("--grid", help="lambda grid (comma list) or 'auto'")
        p.add_argument("--jobs", type=_positive_int, default=1)
        p.add_argument("--out", required=True)
        add_solver_flags(p)
        p.set_defaults(func=func)
        return p

    add_experiment("table", "replicated recovery-metric table",
                   TABLE_METHODS, 10, _cmd_table)
    roc = add_experiment("roc", "replicated ROC sweep", ROC_METHODS, 5,
                         _cmd_roc)
    roc.add_argument("--points", type=_positive_int, default=20)

    var = sub.add_parser("varex", help="cumulative variance explained")
    var.add_argument("--input", required=True)
    var.add_argument("--model", required=True,
                     help="directory written by decompose")
    var.add_argument("--k", type=_positive_int, default=None)
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
        _check_out(args.out)
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
