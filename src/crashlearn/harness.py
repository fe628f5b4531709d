"""Seed sweeps over one configuration: gate, simulate, check, aggregate.

A batch refuses to run when the (model, graph, f) triple cannot support
learning under worst-case crashes, because every seed would then measure
noise; the override flag exists precisely to demonstrate that failure mode.
All outputs are deterministic functions of the batch description, so repeated
runs produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .analysis import DEFAULT_CHECKS, check_names, run_checks
from .engine import (ConfigError, ExecutionTrace, SimulationConfig,
                     min_final_posterior, run_execution, validate_trace,
                     write_trace, read_trace)
from .graphs import (DirectedGraph, config_float, config_integer, config_list,
                     parse_config)
from .observation import (IdentifiabilityPreconditionError, LikelihoodModel,
                          check_assumption1)


class IdentifiabilityGateError(RuntimeError):
    """The batch was refused: worst-case crash survivors cannot learn."""


@dataclass(frozen=True)
class ExperimentBatch:
    """One configuration swept over seeds, with the acceptance threshold on
    the final posterior and the trace checks to run per seed."""

    base_config: SimulationConfig
    seeds: tuple[int, ...]
    convergence_threshold: float = 0.99
    checks: tuple[str, ...] = DEFAULT_CHECKS

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("batch needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("batch seeds must be distinct")
        # Building every seed's config refuses a bad seed before any runs.
        for seed in self.seeds:
            replace(self.base_config, seed=seed)
        if not 0.0 < self.convergence_threshold <= 1.0:
            raise ConfigError(f"threshold {self.convergence_threshold} "
                              f"outside (0, 1]")
        check_names(self.checks)

    def to_dict(self) -> dict:
        return {"config": self.base_config.to_dict(),
                "seeds": list(self.seeds),
                "convergence_threshold": self.convergence_threshold,
                "checks": list(self.checks)}

    @classmethod
    def from_dict(cls, payload: Mapping, base_dir: Path | None = None,
                  ) -> ExperimentBatch:
        config = load_simulation_config(payload["config"], base_dir=base_dir)
        checks = payload.get("checks")
        return cls(base_config=config,
                   seeds=tuple(config_integer(s, "seed")
                               for s in config_list(payload["seeds"], "seeds")),
                   convergence_threshold=config_float(
                       payload.get("convergence_threshold", 0.99),
                       "convergence_threshold"),
                   checks=DEFAULT_CHECKS if checks is None
                   else tuple(config_list(checks, "checks")))


@dataclass
class SeedOutcome:
    seed: int
    converged: bool
    min_posterior: float
    checks: dict[str, dict]
    trace_path: str | None = None

    @property
    def all_checks_passed(self) -> bool:
        return all(result["passed"] for result in self.checks.values())

    def to_dict(self) -> dict:
        # Traces land next to summary.json, so the name alone keeps the
        # report portable and byte-identical across output directories.
        name = Path(self.trace_path).name if self.trace_path else None
        return {"seed": self.seed, "converged": self.converged,
                "min_posterior": self.min_posterior, "checks": self.checks,
                "trace_file": name}


@dataclass
class BatchSummary:
    batch: ExperimentBatch
    identifiability: dict
    outcomes: tuple[SeedOutcome, ...]

    @property
    def convergence_rate(self) -> float:
        return sum(o.converged for o in self.outcomes) / len(self.outcomes)

    @property
    def all_checks_passed(self) -> bool:
        return all(o.all_checks_passed for o in self.outcomes)

    @property
    def check_pass_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            for name, result in outcome.checks.items():
                counts[name] = counts.get(name, 0) + bool(result["passed"])
        return counts

    def to_dict(self) -> dict:
        return {"batch": self.batch.to_dict(),
                "identifiability": self.identifiability,
                "aggregate": {"num_seeds": len(self.outcomes),
                              "num_converged": sum(o.converged
                                                   for o in self.outcomes),
                              "convergence_rate": self.convergence_rate,
                              "all_checks_passed": self.all_checks_passed,
                              "check_pass_counts": self.check_pass_counts},
                "outcomes": [o.to_dict() for o in self.outcomes]}


def identifiability_gate(config: SimulationConfig) -> dict:
    """Raise IdentifiabilityGateError unless worst-case crash survivors can
    separate every hypothesis pair; returns the report as a dict."""
    try:
        report = check_assumption1(config.model, config.graph, config.f)
    except IdentifiabilityPreconditionError as exc:
        raise IdentifiabilityGateError(
            f"refused: topology fails the crash-detectability condition "
            f"({exc})") from exc
    if not report.assumption1_ok:
        witness = report.worst_pair_and_source
        raise IdentifiabilityGateError(
            f"refused: hypothesis pair ({witness[0]}, {witness[1]}) is "
            f"indistinguishable to worst-case source {sorted(witness[2])}")
    return report.to_dict()


def run_batch(batch: ExperimentBatch, override_gate: bool = False,
              write_traces: bool = False, out_dir=None) -> BatchSummary:
    try:
        identifiability = identifiability_gate(batch.base_config)
    except IdentifiabilityGateError as exc:
        if not override_gate:
            raise
        identifiability = {"gate_overridden": True, "refusal": str(exc)}
    directory = None
    if write_traces:
        if out_dir is None:
            raise ConfigError("write_traces requires an output directory")
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)

    outcomes = []
    for seed in batch.seeds:
        config = replace(batch.base_config, seed=seed)
        trace = run_execution(config)
        validate_trace(trace)
        path = None
        if directory is not None:
            path = str(directory / f"trace_{seed}.jsonl")
            write_trace(trace, path)
        checks = run_checks(trace, batch.checks) if batch.checks else {}
        posterior = min_final_posterior(trace)
        outcomes.append(SeedOutcome(
            seed=seed, converged=posterior >= batch.convergence_threshold,
            min_posterior=posterior, checks=checks, trace_path=path))
    return BatchSummary(batch=batch, identifiability=identifiability,
                        outcomes=tuple(outcomes))


def analyze_trace(path, checks: Sequence[str] | None = None) -> dict:
    """Load, validate, and check one persisted trace."""
    trace = read_trace(path)
    validate_trace(trace)
    report = run_checks(trace, checks)
    return {"trace": str(path),
            "iterations": trace.iterations,
            "final_alive": sorted(trace.final_alive),
            "min_posterior": min_final_posterior(trace),
            "checks": report,
            "all_checks_passed": all(r["passed"] for r in report.values())}


# -- reports --------------------------------------------------------------------

def write_trajectory_csv(trace: ExecutionTrace, path) -> None:
    """One row per (iteration, agent alive at its start), posteriors expanded
    into one column per hypothesis, in the text csv.writer gives. Rows are
    formatted from trace.step_blocks(), one block of BELIEF_CHUNK iterations
    at a time: the completed, crash-phase, signal and quorum fields once per
    distinct fields of the block, quoted by csv, and every posterior as
    repr(math.exp(v))."""
    m = trace.config.model.m
    record = "%d,%d,%s" + ",%r" * m + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            ["t", "agent", "completed", "crash_phase", "signal", "quorum"]
            + [f"posterior_{h}" for h in trace.config.model.hypotheses])
        for ts, agents, fields, index, beliefs in trace.step_blocks():
            middles = []
            for _, phase, completed, signal, quorum in fields:
                text = io.StringIO()
                csv.writer(text).writerow(
                    [int(completed), phase or "", signal or "",
                     "|".join(str(j) for j in quorum or ())])
                middles.append(text.getvalue()[:-2])
            cells = np.empty((len(ts), m + 3), dtype=object)
            cells[:, 0] = ts
            cells[:, 1] = agents
            cells[:, 2] = np.array(middles, dtype=object)[index]
            cells[:, 3:] = np.reshape(list(map(
                math.exp, beliefs.ravel().tolist())), (-1, m))
            fh.write(record * len(ts) % tuple(cells.ravel().tolist()))


def report_metrics(summary: BatchSummary, out_dir) -> dict[str, str]:
    """Write summary.json and seeds.csv under out_dir; deterministic bytes."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "summary.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = directory / "seeds.csv"
    names = list(summary.batch.checks)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "converged", "min_posterior"]
                        + [f"check_{name}" for name in names])
        for outcome in summary.outcomes:
            writer.writerow(
                [outcome.seed, int(outcome.converged),
                 repr(outcome.min_posterior)]
                + [int(outcome.checks[name]["passed"]) for name in names])
    return {"summary": str(json_path), "seeds": str(csv_path)}


# -- config loading ----------------------------------------------------------------

def _load_json(path: Path) -> Mapping:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors.
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return payload


def _payload(source, base_dir: Path | None, what: str,
             ) -> tuple[Mapping, Path | None]:
    """A config given inline (a mapping) or as the path of a JSON file,
    relative to base_dir, as (payload, the directory that the payload's own
    relative paths resolve against)."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return _load_json(path), path.parent
    if isinstance(source, Mapping):
        return source, base_dir
    raise ConfigError(f"cannot load a {what} from {type(source)}")


def _simulation_config(payload: Mapping, base_dir: Path | None,
                       ) -> SimulationConfig:
    sections = {key: _payload(payload[key], base_dir, key)[0]
                for key in ("graph", "model")}
    return SimulationConfig.from_dict({**payload, **sections})


def load_simulation_config(source, base_dir: Path | None = None,
                           ) -> SimulationConfig:
    """Accepts a mapping, or a path to a JSON file; the graph and model
    sections may themselves be paths, resolved relative to the config file."""
    payload, base_dir = _payload(source, base_dir, "configuration")
    return parse_config("configuration", _simulation_config, payload,
                        base_dir)


def load_batch(source) -> ExperimentBatch:
    payload, base_dir = _payload(source, None, "batch description")
    return parse_config("batch description", ExperimentBatch.from_dict,
                        payload, base_dir)


def load_graph(source) -> DirectedGraph:
    return parse_config("graph", DirectedGraph.from_dict,
                        _payload(source, None, "graph")[0])


def load_model(source) -> LikelihoodModel:
    return parse_config("model", LikelihoodModel.from_dict,
                        _payload(source, None, "model")[0])
