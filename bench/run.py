"""hopca benchmark: one command, four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 bench/run.py --workload all                 # every workload
    python3 bench/run.py --workload roc-s1 --seed 7
    python3 bench/run.py --workload table-s2 --trace 1  # per-layer run
    python3 bench/run.py --selftest                     # tracer self-test

Each workload runs as a closed loop with one caller: passes run back
to back, and a new pass starts while less than ``--seconds`` (by
default ``run_seconds`` of ``BENCHMARK.json``) have gone by since the
first one started.  ``--workload all`` runs each workload in turn in a
child ``run.py --workload W``, so no workload inherits another's
memory peak or warm caches, and merges their results.  No process pool
is started and BLAS threads are capped at the number of usable cores.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (the
median pass), ``setup_s`` (the median of five set-up rounds, each a
fresh interpreter importing numpy and hopca, then BLAS warm-up and
staging of the first pass's inputs) and ``peak_rss_mb`` (the
process's high-water mark).  With ``--trace 1`` each round is one
untraced pass followed by one traced pass on the same inputs; the
per-layer metrics are the mean over the traced passes, and
``trace.overhead_frac`` compares the two.  Spans are written to
``bench/out/``.

Every run checks the outputs (see ``workloads.py``); a failed gate
makes the result ``correct: false`` and the exit code 1.  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decompose-s1", "table-s2", "roc-s1", "mono-small")
SETUP_ROUNDS = 5
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        return os.cpu_count() or 1


def _cap_blas_threads(nproc: int) -> None:
    # must run before numpy is imported
    for key in _BLAS_ENV:
        try:
            current = int(os.environ.get(key, nproc))
        except ValueError:
            current = nproc
        os.environ[key] = str(max(1, min(current, nproc)))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv, seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blas_facts(np) -> dict:
    facts = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["name"], facts["version"] = blas["name"], blas["version"]
    except (KeyError, TypeError):
        pass
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = int(fn())
                return facts
    facts["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return facts


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(np, nproc) -> dict:
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas_facts(np),
            "commit": _commit(), "platform": platform.platform()}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                 "import numpy, hopca; print(time.perf_counter() - start)")


def _fresh_import_s() -> float:
    """Seconds a new interpreter takes to import numpy and the package."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def _warm_up(np) -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 1000))
    np.linalg.svd(a, full_matrices=False)
    np.linalg.eigh(a @ a.T)


def measure(np, wl, seed, seconds, trace):
    """Set up, then run passes of one workload; return its result dict."""
    import selftest
    import targets
    import tracer as tracing
    import workloads

    clock = time.perf_counter
    setups = []
    for _ in range(SETUP_ROUNDS):
        imported = _fresh_import_s()
        start = clock()
        _warm_up(np)
        inputs = wl.stage(seed, 0)
        setups.append(imported + clock() - start)
    failures, attempted = [], 0
    quality: dict[str, list[float]] = {}
    walls, traced_walls, self_sums, layers, span_log = [], [], [], [], []

    if trace:
        problems = selftest.selftest()
        attempted += 1
        failures += [f"tracer self-test: {p}" for p in problems]
        tracer = tracing.Tracer()
        wrapped = targets.targets()

    def one_pass(inputs, traced):
        nonlocal attempted
        if traced:
            tracer.reset()
            tracer.install(wrapped)
        start = clock()
        try:
            outcome = wl.run(inputs)
        finally:
            wall = clock() - start
            if traced:
                tracer.restore()
        wl.check(inputs, outcome)
        attempted += outcome.attempted
        failures.extend(outcome.failures)
        for key, value in outcome.quality.items():
            quality.setdefault(key, []).append(value)
        return wall

    deadline = clock() + seconds
    index = 0
    while True:
        if index:
            inputs = None  # so peak RSS does not grow with the pass count
            inputs = wl.stage(seed, index)
        walls.append(one_pass(inputs, False))
        if trace:
            traced_walls.append(one_pass(inputs, True))
            # never more than the traced pass: the root spans run one
            # after another inside it (selftest.py checks self time)
            self_sums.append(sum(tracer.self_times()))
            layers.append(targets.layer_metrics(tracer))
            span_log.append(tracer.spans)
        index += 1
        if clock() >= deadline:
            break

    medians = {k: statistics.median(v) for k, v in quality.items()}
    for held, message in workloads.gate_run(wl.name, medians):
        attempted += 1
        if not held:
            failures.append(message)
    result = {
        "workload": wl.name, "seed": seed, "trace": trace,
        "passes": len(walls), "pass_walls_s": walls,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "quality": medians, "pass_quality": quality,
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "setup_rounds_s": setups,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        per_layer = {name: statistics.fmean(layer[name] for layer in layers)
                     for name in layers[0]}
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        result["traced_pass_walls_s"] = traced_walls
        result["self_s_sums"] = self_sums
        result["per_layer"] = per_layer
        result["span_table"] = tracer.table()  # the last traced pass
        result["span_file"] = _write_spans(wl.name, seed, span_log)
    return result


def _write_spans(name, seed, span_log) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for pass_no, spans in enumerate(span_log):
            for idx, (span, start, end, parent, _) in enumerate(spans):
                fh.write(json.dumps({"pass": pass_no, "id": idx,
                                     "name": span, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return str(path.relative_to(ROOT))


def _print_human(result) -> None:
    wl, trace = result["workload"], result["trace"]
    walls = result["pass_walls_s"]
    print(f"== {wl} seed={result['seed']} trace={trace}: "
          f"{result['passes']} pass(es)")
    if not trace:
        print(f"  wall_s       {result['wall_s']:.4f} s  (median of "
              f"{len(walls)}; min {min(walls):.4f}, max {max(walls):.4f})")
        print(f"  setup_s      {result['setup_s']:.4f} s  (median of "
              f"{SETUP_ROUNDS} rounds of a fresh import, BLAS warm-up and "
              f"staging)")
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB  (process "
              f"high-water mark)")
    frac = result["failed"] / result["attempted"]
    print(f"  fail_frac    {frac:.4f} frac  ({result['failed']}/"
          f"{result['attempted']} operations failed)")
    for key, value in result["quality"].items():
        unit = "frac" if key.endswith(("_tp", "_fp", "dominance")) else ""
        print(f"  {key:<12} {value:.6g} {unit}".rstrip())
    if trace:
        print(f"  self times   {statistics.fmean(result['self_s_sums']):.4f} "
              f"s summed, traced pass "
              f"{statistics.fmean(result['traced_pass_walls_s']):.4f} s "
              f"(means over traced passes)")
        for name, value in result["per_layer"].items():
            print(f"  {name:<48} {value:.6g}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def _result_line(results) -> dict:
    import targets

    trace = results[0]["trace"]
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        if trace:
            for name, unit in targets.PER_LAYER.items():
                metrics[prefix + name] = {"value": res["per_layer"][name],
                                          "unit": unit}
        else:
            for name, unit in END_TO_END.items():
                metrics[prefix + name] = {"value": res[name], "unit": unit}
    return {"correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def _check_spec(spec) -> None:
    """The metric names here must be the ones BENCHMARK.json promises."""
    import targets

    for key, ours in (("end_to_end", END_TO_END),
                      ("per_layer", targets.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != ours:
            raise SystemExit(f"BENCHMARK.json {key} does not match the "
                             f"benchmark: {sorted(set(listed) ^ set(ours))}")


def _run_children(args) -> list:
    """Run each workload in a child ``run.py`` and collect its results."""
    results = []
    for name in WORKLOADS:
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        print("\n".join(done.stdout.splitlines()[:-1]))  # all but its result
        if done.returncode not in (0, 1) or not path.is_file():
            raise SystemExit(f"bench: {name} exited {done.returncode} "
                             f"without a result")
        results += json.loads(path.read_text())
    return results


def _import_library():
    """Cap BLAS threads, then import numpy and this checkout's hopca."""
    nproc = _nproc()
    _cap_blas_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import hopca

    if Path(hopca.__file__).resolve().parent != ROOT / "src" / "hopca":
        print(f"bench: imported hopca from {hopca.__file__}, not from this "
              f"checkout", file=sys.stderr)
        raise SystemExit(2)
    return np, nproc


def _selftest() -> int:
    import selftest

    _import_library()
    problems = selftest.selftest()
    for problem in problems:
        print(f"FAILED: {problem}")
    print("tracer self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def _run_one(args, spec) -> dict:
    """Run one workload in this process and return its result."""
    np, nproc = _import_library()
    import workloads

    _check_spec(spec)
    facts = machine_facts(np, nproc)
    loads = workloads.all_workloads(OUT / "work")
    try:
        res = measure(np, loads[args.workload], args.seed, args.seconds,
                      args.trace)
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)
    res["machine"] = facts
    _print_human(res)
    print(f"machine: nproc={facts['nproc']} python={facts['python']} "
          f"numpy={facts['numpy']} blas={facts['blas']['name']} "
          f"{facts['blas']['version']} threads={facts['blas']['threads']} "
          f"commit={facts['commit']}")
    return res


def main(argv=None) -> int:
    spec = _spec()
    args = _parse(argv, spec["run_seconds"])
    if not (ROOT / "src" / "hopca" / "__init__.py").is_file():
        print(f"bench: no hopca sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.selftest:
        return _selftest()
    if args.workload == "all":
        results = _run_children(args)
    else:
        results = [_run_one(args, spec)]
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(results, fh, indent=1)
    line = _result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
