"""Spans around calls into crashlearn's public functions, recorded from the
benchmark's side: each function is replaced at its call sites by a timing
wrapper while tracing is installed, and restored afterwards. The package
itself is not edited.

A span has a name, a start, an end, a parent and the id of the operation
that caused it. Hot functions (called per reduced graph or per belief
update) are only aggregated, not kept one by one. Self time is a span's
duration minus the time of its traced children.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time

MODULES = ("engine", "analysis", "graphs", "observation", "harness", "cli")


def _run_execution_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    kind = ("round_based" if config.adversary.mode == "adversarial_latest"
            else "event_driven")
    return f"engine.run_execution.{kind}"


def link_removal_candidates(g, f: int) -> int:
    """Size of the per-node link-removal choice space enumeration walks."""
    return math.prod(sum(math.comb(len(g.in_neighbors[i]), k)
                         for k in range(min(f, len(g.in_neighbors[i])) + 1))
                     for i in sorted(g.nodes))


# (defining module, function, span name, hot, only patch the defining module)
TARGETS = (
    ("engine", "run_execution", _run_execution_name, False, False),
    ("engine", "validate_trace", "engine.validate_trace", False, False),
    ("engine", "write_trace", "engine.write_trace", False, False),
    ("engine", "read_trace", "engine.read_trace", False, False),
    # The engine's own updates only; the analysis replay calls its import.
    ("engine", "update_belief", "engine.belief_update", True, True),
    ("engine", "partial_update_belief", "engine.belief_update", True, True),
    ("analysis", "trace_matrices", "analysis.trace_matrices", False, False),
    ("analysis", "pseudo_belief_evolution", "analysis.pseudo_belief_evolution",
     False, False),
    ("analysis", "structure_constants", "analysis.structure_constants",
     False, False),
    ("analysis", "run_checks", "analysis.run_checks", False, False),
    ("graphs", "enumerate_reduced_graphs", "graphs.enumerate_reduced_graphs",
     False, False),
    ("graphs", "source_decomposition", "graphs.source_decomposition", True, False),
    ("graphs", "check_condition1", "graphs.check_condition1", False, False),
    ("graphs", "check_condition2", "graphs.check_condition2", False, False),
    ("graphs", "detectability_report", "graphs.detectability_report",
     False, False),
    ("observation", "check_assumption1", "observation.check_assumption1",
     False, False),
    ("harness", "identifiability_gate", "harness.identifiability_gate",
     False, False),
    ("harness", "run_batch", "harness.run_batch", False, False),
    ("harness", "report_metrics", "harness.report_metrics", False, False),
    ("harness", "analyze_trace", "harness.analyze_trace", False, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []           # [name, start, end, parent, op]
        self.totals: dict[str, list[float]] = {}   # name -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self.captured: dict[str, object] = {}
        self.op = None
        self._stack: list[list] = []          # [span index or None, child time]
        self._patched: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, start: float, hot: bool) -> list:
        index = None
        if not hot:
            parent = next((f[0] for f in reversed(self._stack)
                           if f[0] is not None), None)
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op])
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if frame[0] is not None:
            self.spans[frame[0]][2] = end
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name: str, fn, *args, hot: bool = False, **kwargs):
        """Run fn inside a span called name."""
        start = time.perf_counter()
        frame = self._open(name, start, hot)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, start, time.perf_counter())

    def _wrapper(self, fn, name, hot: bool):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = tracer.call(label, fn, *args, hot=hot, **kwargs)
            tracer._observe(label, args, kwargs, result)
            return result
        return traced

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counts taken at span boundaries, outside the span's own time."""
        if name == "engine.write_trace":
            self.count("engine.trace_bytes", os.path.getsize(args[1]))
        elif name == "graphs.enumerate_reduced_graphs":
            self.count("graphs.chi", len(result))
            f = args[1] if len(args) > 1 else kwargs["f"]
            self.count("graphs.link_removal_candidates",
                       link_removal_candidates(args[0], f))
        if name.startswith("engine.run_execution") or name == "engine.read_trace":
            self.captured.setdefault("trace", result)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"crashlearn.{name}")
                   for name in MODULES}
        modules["package"] = sys.modules["crashlearn"]
        for home, attr, name, hot, home_only in TARGETS:
            original = getattr(modules[home], attr)
            wrapper = self._wrapper(original, name, hot)
            for key, module in modules.items():
                if (key == home or not home_only) \
                        and getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
