"""Spans around calls into modbalance's layers, recorded from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in every
namespace that holds it: its own module, the package's re-exports, and the
modules that imported it by name (``solver`` calls ``metrics`` and
``dm_closed_form_linear`` through its own globals, ``cli`` calls
``sweep_lambda``, and so on). Spans stay in memory as (name, start, end,
parent) and are written out when the run ends.

Only layer entry points are traced. Per-user functions such as
``best_response`` run 1e5 times per ``metrics`` call at the population
workload's size, so wrapping them would make tracing cost the dominant term.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager


# layer name -> (module, attribute, counters); "model.from_arrays" is the
# Population.from_arrays classmethod. A counter is (name, f(args, result)),
# summed over calls.
LAYERS = {
    "cli.run": ("modbalance.cli", "run", ()),
    "data.generate": ("modbalance.data", "generate", ()),
    "data.save": ("modbalance.data", "save", (("bytes", lambda a, r: os.path.getsize(a[1])),)),
    "data.load": ("modbalance.data", "load", (("rows", lambda a, r: r.n),)),
    "model.from_arrays": ("modbalance.model", "Population.from_arrays", ()),
    "metrics.metrics": ("modbalance.metrics", "metrics", (("users", lambda a, r: r.n),)),
    "metrics.dm_closed_form_linear": ("modbalance.metrics", "dm_closed_form_linear", ()),
    "solver.pgd_solve": ("modbalance.solver", "pgd_solve", (
        ("iters", lambda a, r: r.iterations_used),
        ("unconverged", lambda a, r: int(not r.converged)),
    )),
    "solver.sweep_lambda": ("modbalance.solver", "sweep_lambda", ()),
    "solver.calibrate_lambda": ("modbalance.solver", "calibrate_lambda", (
        ("solves", lambda a, r: r.solve_count),
        ("dm", lambda a, r: r.result.dm),
    )),
    "solver.polish_penalized": ("modbalance.solver", "polish_penalized", (
        ("polls", lambda a, r: r.iterations_used),
    )),
    "oracle.oracle_2d": ("modbalance.oracle", "oracle_2d", ()),
    # the oracles store their candidate count in iterations_used
    "oracle.oracle_penalized_2d": ("modbalance.oracle", "oracle_penalized_2d", (
        ("candidates", lambda a, r: r.iterations_used),
    )),
}

OP = "op"


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = name.rsplit(".", 1)[1]
    if last == "ops_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    return "dm" if last == "dm" else "count"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, layer: str, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            for name, count in counters:
                self.counts[f"{layer}.{name}"] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in every loaded modbalance namespace holding it."""
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "modbalance"]
        for layer, (module_name, attr, counters) in LAYERS.items():
            module = sys.modules[module_name]
            if attr == "Population.from_arrays":
                cls = module.Population
                fn = cls.__dict__["from_arrays"].__func__
                cls.from_arrays = classmethod(self._wrap(layer, fn, counters))
                continue
            original = getattr(module, attr)
            traced = self._wrap(layer, original, counters)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, traced)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op busy time, self time, calls and counts of every layer.

        A span's self time is its duration minus its children's. The op
        spans' own self time is the part of an op no traced layer covers.
        """
        busy, own, calls = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            busy[name] += duration
            own[name] += duration
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        out = {
            "trace.ops_per_s": ops / busy[OP],
            "trace.op_s": busy[OP] / ops,
            "trace.unattributed_s": own[OP] / ops,
        }
        for layer, (_, _, counters) in LAYERS.items():
            out[f"{layer}.busy_s"] = busy[layer] / ops
            out[f"{layer}.self_s"] = own[layer] / ops
            out[f"{layer}.calls"] = calls[layer] / ops
            for name, _ in counters:
                out[f"{layer}.{name}"] = self.counts[f"{layer}.{name}"] / ops
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
