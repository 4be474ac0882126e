"""Self-test of the benchmark's tracer.

Run ``python3 bench/run.py --selftest``; every traced run also runs it
first and counts a failure against its result.
"""

from __future__ import annotations

import importlib
import sys
import types

from targets import targets
from tracer import Target, Tracer


def selftest() -> list[str]:
    """Check self time on nested synthetic spans and the patch/restore cycle.

    Returns a list of failure messages (empty when the tracer is sound).
    """
    failures = []

    # a clock that advances one unit per reading makes every span exact
    ticks = iter(range(1_000_000))
    tracer = Tracer(clock=lambda: float(next(ticks)), package="_tracer_probe")
    probe = types.ModuleType("_tracer_probe")

    def inner(value):
        return value + 1

    def outer(value):
        return probe.inner(probe.inner(value))

    probe.inner, probe.outer = inner, outer
    sys.modules["_tracer_probe"] = probe
    try:
        tracer.install([Target("_tracer_probe", "inner"),
                        Target("_tracer_probe", "outer")])
        result = probe.outer(1)
        tracer.restore()
    finally:
        del sys.modules["_tracer_probe"]
    # outer: ticks 0..5, each inner spans one tick -> self 5 - 2 = 3
    table = tracer.table()
    if result != 3:
        failures.append(f"wrapped call returned {result}, expected 3")
    if table.get("_tracer_probe.outer") != {"calls": 1, "s": 5.0,
                                             "self_s": 3.0}:
        failures.append(f"outer span {table.get('_tracer_probe.outer')}")
    if table.get("_tracer_probe.inner") != {"calls": 2, "s": 2.0,
                                             "self_s": 2.0}:
        failures.append(f"inner spans {table.get('_tracer_probe.inner')}")
    if [s[3] for s in tracer.spans] != [-1, 0, 0]:
        failures.append(f"span parents {[s[3] for s in tracer.spans]}")
    if probe.inner is not inner or probe.outer is not outer:
        failures.append("synthetic module not restored")

    # wrap and restore the real targets: every module that bound a
    # target (sparse.contract_u, simulate.support_metrics, ...) must see
    # the wrapper, and every attribute must come back afterwards
    def snapshot():
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if mod is not None and name.split(".")[0] == "hopca"}

    before = snapshot()
    wrapped = targets()
    originals = {id(fn): fn for fn in (
        getattr(importlib.import_module(t.module), t.attr) for t in wrapped)}
    tracer = Tracer()
    tracer.install(wrapped)
    during = snapshot()
    for name, attrs in before.items():
        for key, value in attrs.items():
            if originals.get(id(value)) is not value:
                continue
            now = during[name][key]
            if getattr(now, "__wrapped__", None) is not value:
                failures.append(f"{name}.{key} was not wrapped")
    tracer.restore()
    after = snapshot()
    changed = [f"{name}.{key}" for name, attrs in before.items()
               for key, value in attrs.items()
               if after.get(name, {}).get(key) is not value]
    if changed:
        failures.append(f"not restored: {', '.join(sorted(changed)[:5])}")
    return failures
