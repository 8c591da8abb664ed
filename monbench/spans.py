"""Spans recorded around the program's layer entry points, from outside it.

A traced run replaces each entry point where the program looks it up (a
module attribute or a class method) with a wrapper that records a span:
its name, start, end, the span that caused it, and the operation it belongs
to. Spans stay in memory and are written out when the run ends. An entry
point that the program no longer has is skipped, so it reads as 0 calls.

The untraced runs use `NullTracer`, whose `call` is a plain call.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): where the program looks each layer up.
PROGRAM_ENTRY_POINTS = (
    ("hybridmon.simulate", "simulate", "simulate.run"),
    ("hybridmon.simulate", "step_continuous", "kalman.step"),
    ("hybridmon.simulate", "step_discrete", "observer.step"),
    ("hybridmon.simulate", "validate_model", "model.validate"),
    ("hybridmon.simulate", "synthesize_gains", "kalman.synthesize"),
    ("hybridmon.simulate", "build_observer", "observer.build"),
    ("hybridmon.conflicts", "intersects_box", "reachability.intersects"),
    ("hybridmon.conflicts", "compute_all_deltas", "reachability.deltas"),
    ("hybridmon.conflicts", "decompose_regions", "model.decompose"),
    ("hybridmon.reachability", "linprog", "reachability.lp"),
    ("hybridmon.reachability", "reach", "reachability.reach"),
    ("hybridmon.guarantees", "reach", "reachability.reach"),
    ("hybridmon.guarantees", "decompose_regions", "guarantees.decompose"),
    ("hybridmon.model_io", "parse_model", "model_io.parse"),
)
# (module, class, method, span name)
PROGRAM_METHODS = (
    ("hybridmon.conflicts", "Detector", "__init__", "conflicts.build"),
    ("hybridmon.conflicts", "Detector", "evaluate", "conflicts.evaluate"),
)


def _riccati_iterations(args, kwargs, result) -> dict:
    return {"kalman.riccati_iterations": sum(g.iterations for g in result.gains.values())}


def _observer_nodes(args, kwargs, result) -> dict:
    return {"observer.nodes": len(result.nodes)}


# Counts read off a layer's result where the layer returns it.
RESULT_COUNTS = {
    "kalman.synthesize": _riccati_iterations,
    "observer.build": _observer_nodes,
}


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = True

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float) -> None:
        pass


class Tracer:
    """Span recorder; `install` wraps the program, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op: object = "setup"
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
        hook = RESULT_COUNTS.get(name)
        if hook is not None:
            for key, value in hook(args, kwargs, result).items():
                self.counts[key] += value
        return result

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def _wrap(self, owner, attr: str, name: str) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        for module_name, attr, name in PROGRAM_ENTRY_POINTS:
            self._wrap(importlib.import_module(module_name), attr, name)
        for module_name, cls_name, method, name in PROGRAM_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is not None:
                self._wrap(cls, method, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: calls and total self time in seconds.

        Self time is a span's duration minus the durations of the spans it
        directly caused.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_time: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
        return {name: (calls[name], self_time[name]) for name in calls}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
