"""What the traced run wraps, and the per-layer metrics read from its spans.

Every function a module lists in ``__all__`` is wrapped, plus the
internal names the per-layer metrics need (the contractions, the
singular-vector init, the CLI subcommand handlers).  Elementwise
thresholds run once per coordinate-descent column and would cost more to
wrap than to run, so they are left alone; the q-weighted lasso KKT check
is counted without a span for the same reason.  Names a later version of
the package no longer has are skipped, and their metrics read zero.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os

import numpy as np

from tracer import Target, Tracer

MODULES = ("tensor3", "decompose", "sparse", "generalized", "evaluate",
           "simulate", "fileio", "cli")
_EXTRA = {
    "decompose": ("contract_u", "contract_v", "contract_w",
                  "leading_singular_vectors", "init_rank_one"),
    "simulate": ("fit_method",),
    "cli": ("main", "_cmd_simulate", "_cmd_decompose", "_cmd_varex"),
}
_UNWRAPPED = {"sparse.soft_threshold", "generalized.positive_threshold"}
_COUNT_ONLY = {"generalized.qnorm_lasso_kkt_residual"}

FIT_SPANS = {"decompose.cp_als": "cp-als", "decompose.tpa": "tpa",
             "decompose.hosvd": "hosvd", "decompose.hooi": "hooi",
             "sparse.sparse_cp_tpa": "sparse-cp-tpa",
             "sparse.sparse_cp_als": "sparse-cp-als",
             "sparse.sparse_hosvd": "sparse-hosvd",
             "sparse.sparse_hooi": "sparse-hooi"}
_CONTRACTIONS = ("decompose.contract_u", "decompose.contract_v",
                 "decompose.contract_w")


def _fingerprint(m) -> str:
    """Cheap identity of a matrix: shape, full sum and 257 sampled entries."""
    m = np.asarray(m)
    idx = np.linspace(0, m.size - 1, num=min(m.size, 257)).astype(np.int64)
    digest = hashlib.blake2b(np.ascontiguousarray(m.flat[idx]).tobytes(),
                             digest_size=16)
    digest.update(repr((m.shape, float(np.sum(m)))).encode())
    return digest.hexdigest()


def _svd_info(args, kwargs):
    m = np.asarray(args[0] if args else kwargs["m"])
    return (m.shape[0], m.shape[1], _fingerprint(m))


def _contract_bytes(kept_axis):
    # the two tensordots read x, then the (n, p) or (n, q) intermediate
    def describe(args, kwargs):
        x = np.asarray(args[0] if args else kwargs["x"])
        return x.nbytes + x.itemsize * x.shape[0] * x.shape[kept_axis]
    return describe


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


_DESCRIBE = {"decompose.leading_singular_vectors": _svd_info,
             "decompose.contract_u": _contract_bytes(1),
             "decompose.contract_v": _contract_bytes(1),
             "decompose.contract_w": _contract_bytes(2),
             "fileio.write_tensor3": _file_bytes,
             "fileio.read_tensor3": _file_bytes}


def targets() -> list[Target]:
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"hopca.{short}")
        names = list(getattr(mod, "__all__", ())) + list(_EXTRA.get(short, ()))
        for attr in dict.fromkeys(names):
            fn = getattr(mod, attr, None)
            key = f"{short}.{attr}"
            if not inspect.isfunction(fn) or key in _UNWRAPPED:
                continue
            out.append(Target(f"hopca.{short}", attr, _DESCRIBE.get(key),
                              key in _COUNT_ONLY))
    return out


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "decompose.leading_singular_vectors.calls": "count",
    "decompose.leading_singular_vectors.wide_s": "s",
    "decompose.leading_singular_vectors.tall_s": "s",
    "decompose.leading_singular_vectors.repeat_frac": "frac",
    "decompose.contract.calls": "count",
    "decompose.contract.s": "s",
    "decompose.contract.bytes_computed": "bytes",
    **{f"fit.{method}.s": "s" for method in FIT_SPANS.values()},
    "evaluate.bic_path.calls": "count",
    "evaluate.bic_path.s": "s",
    "sparse.lasso_coordinate_descent.calls": "count",
    "sparse.lasso_coordinate_descent.s": "s",
    "sparse.sparse_pca.calls": "count",
    "sparse.sparse_pca.s": "s",
    "generalized.qnorm_lasso_solve.calls": "count",
    "generalized.qnorm_lasso_solve.s": "s",
    "generalized.qnorm_lasso_kkt_residual.calls": "count",
    "generalized.kkt_checks_per_solve": "checks/solve",
    "generalized.gcp_rank_one.s": "s",
    "generalized.sparse_gcp_rank_one.s": "s",
    "generalized.fpca_rank_one.s": "s",
    "sparse.sparse_cp_tpa_rank_one.s": "s",
    "fileio.write_tensor3.s": "s",
    "fileio.write_tensor3.bytes": "bytes",
    "fileio.read_tensor3.s": "s",
    "fileio.read_tensor3.bytes": "bytes",
    "fileio.save_model.s": "s",
    "cli.simulate.self_s": "s",
    "cli.decompose.self_s": "s",
    "cli.varex.self_s": "s",
    "evaluate.support_metrics.calls": "count",
    "evaluate.support_metrics.s": "s",
    "evaluate.roc_sweep.calls": "count",
    "evaluate.roc_sweep.s": "s",
    "evaluate.variance_explained.s": "s",
    "simulate.simulate.calls": "count",
    "simulate.simulate.s": "s",
    "tensor3.matricize.calls": "count",
    "tensor3.matricize.s": "s",
    "tensor3.mode_mult.calls": "count",
    "tensor3.mode_mult.s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values for the spans of one traced pass.

    ``.s`` values are inclusive seconds, ``.self_s`` exclude the time of
    wrapped callees.  ``trace.overhead_frac`` needs an untraced pass and
    is filled in by the caller.
    """
    table = tracer.table()

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def incl(name):
        return table.get(name, {}).get("s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    svd = [(s[2] - s[1], s[4]) for s in tracer.spans
           if s[0] == "decompose.leading_singular_vectors"]
    seen, repeats = set(), 0
    for _, (_, _, digest) in svd:
        repeats += digest in seen
        seen.add(digest)
    fit_time = dict.fromkeys(FIT_SPANS.values(), 0.0)
    for idx in tracer.outermost(FIT_SPANS):
        name, start, end, _, _ = tracer.spans[idx]
        fit_time[FIT_SPANS[name]] += end - start

    solves = calls("generalized.qnorm_lasso_solve")
    kkt = calls("generalized.qnorm_lasso_kkt_residual")
    out = {
        "decompose.leading_singular_vectors.calls": len(svd),
        "decompose.leading_singular_vectors.wide_s":
            sum(dt for dt, (r, c, _) in svd if c > r),
        "decompose.leading_singular_vectors.tall_s":
            sum(dt for dt, (r, c, _) in svd if c <= r),
        "decompose.leading_singular_vectors.repeat_frac":
            repeats / len(svd) if svd else 0.0,
        "decompose.contract.calls": sum(calls(n) for n in _CONTRACTIONS),
        "decompose.contract.s": sum(incl(n) for n in _CONTRACTIONS),
        "decompose.contract.bytes_computed":
            sum(s[4] for s in tracer.spans if s[0] in _CONTRACTIONS),
        **{f"fit.{method}.s": dt for method, dt in fit_time.items()},
        "generalized.kkt_checks_per_solve": kkt / solves if solves else 0.0,
        "generalized.qnorm_lasso_kkt_residual.calls": kkt,
        "fileio.write_tensor3.bytes":
            sum(s[4] for s in tracer.spans if s[0] == "fileio.write_tensor3"),
        "fileio.read_tensor3.bytes":
            sum(s[4] for s in tracer.spans if s[0] == "fileio.read_tensor3"),
        "fileio.save_model.s": (incl("fileio.save_cp_model")
                                + incl("fileio.save_tucker_model")),
        "cli.simulate.self_s": own("cli._cmd_simulate"),
        "cli.decompose.self_s": own("cli._cmd_decompose"),
        "cli.varex.self_s": own("cli._cmd_varex"),
    }
    for metric in PER_LAYER:
        if metric in out or metric == "trace.overhead_frac":
            continue
        span, _, kind = metric.rpartition(".")
        out[metric] = calls(span) if kind == "calls" else incl(span)
    return out
