"""Outside-in span tracer for the hopca benchmark.

The tracer wraps library functions from outside the package: each
wrapped call records a span (name, start, end, parent span, optional
info) in memory.  A wrapped name is patched in every ``hopca`` module
that holds the same function object, so ``from .decompose import
contract_u`` bindings in ``sparse`` and ``generalized`` are traced too.
:meth:`Tracer.restore` puts every original back, so untimed-versus-timed
comparisons run on the unwrapped library.

Self time is a span's duration minus the time covered by its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` from the ``hopca`` package.

    ``describe(args, kwargs)`` runs after the call has returned (outside
    the span) and stores its result as the span's info.  A count-only
    target records no span, only a call count, for helpers too small
    for a span to be cheap next to them.
    """

    module: str
    attr: str
    describe: Callable | None = None
    count_only: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Span recorder plus the patch/restore bookkeeping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 package: str = "hopca"):
        self.clock = clock
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn, describe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, None]
            tracer.spans.append(record)
            tracer._stack.append(idx)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                record[1] = start
                tracer._stack.pop()
                if describe is not None:
                    record[4] = describe(args, kwargs)

        return traced

    def wrap_count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None
                and (key == self.package or key.startswith(prefix))]

    def install(self, targets) -> int:
        """Wrap every target wherever a package module binds it.

        Returns the number of attributes patched.  Modules are reached
        through ``importlib`` because the package ``__init__`` may rebind
        a submodule's name to a function (``hopca.simulate``).
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for target in targets:
            original = getattr(importlib.import_module(target.module),
                               target.attr)
            if id(original) in wrappers:
                raise ValueError(f"{target.name} is listed twice")
            wrapper = (self.wrap_count(target.name, original)
                       if target.count_only
                       else self.wrap(target.name, original, target.describe))
            wrappers[id(original)] = (original, wrapper)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patched.append((mod, key, value))
        return len(self._patched)

    def restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), own in zip(self.spans,
                                                 self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own
        for name, count in self.counts.items():
            out[name]["calls"] += count
        return dict(out)

    def outermost(self, names) -> list[int]:
        """Indices of spans in ``names`` with no ancestor in ``names``."""
        names = set(names)
        picked = []
        for idx, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                picked.append(idx)
        return picked

