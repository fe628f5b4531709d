"""The benchmark in perfbench/ still runs against the package: its tracer
finds, wraps and restores every function it times, and its reference
beliefs are reproduced. perfbench's modules are imported from their own
directory, without writing bytecode there; nothing under it is edited."""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's make_reference, tracing and workloads modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return tuple(importlib.import_module(name)
                 for name in ("make_reference", "tracing", "workloads"))


def test_perfbench_tracer_wraps_and_restores_every_target(perfbench):
    _, tracing, _ = perfbench
    modules = {name: importlib.import_module(f"crashlearn.{name}")
               for name in tracing.MODULES}
    modules["package"] = sys.modules["crashlearn"]

    def bound():
        return {(key, attr): getattr(module, attr, None)
                for key, module in modules.items()
                for _, attr, *_ in tracing.TARGETS}

    before = bound()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for home, attr, *_ in tracing.TARGETS:
            assert before[home, attr] is not None, (home, attr)
            assert modules[home].__dict__[attr] is not before[home, attr], (home, attr)
    finally:
        tracer.uninstall()
    after = bound()
    assert all(after[key] is before[key] for key in before)


def test_perfbench_reference_beliefs_are_reproduced(perfbench):
    make_reference, _, workloads = perfbench
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    for label, (mode, iterations) in workloads.CONFIGS.items():
        state = make_reference.final_state(mode, iterations, 1000)
        assert workloads.final_state_errors(
            f"{label} seed 1000", reference[label]["1000"], state["min_posterior"],
            state["final_log_belief"]) == []
