"""SHA-256 digests of everything a simulation records, for comparing the
engine and the analysis bit for bit across versions.

One line per config: its label, then these digests:
  - the trace's step lines (iter_trace_lines without its header: every
    record's quorum, signal, completion, crash phase and log belief, in
    (t, agent) order);
  - pseudo_belief_evolution's output;
  - the bytes write_trajectory_csv writes;
  - every line of iter_trace_lines, header included, of the trace that
    read_trace returns for the file write_trace wrote;
  - on the checked configs, json.dumps(run_checks(trace), sort_keys=True);
  - on the test suite's configs only, the JSON of every field of
    decompose_log_ratio_drift(trace, None, "theta2", "theta1", 1.0).
The configs are the test suite's suite_configs() (checked), simulation
seeds 1000-1063 of the benchmark's two simulation configs (seeds 1000-1003
checked), and seeds 1000-1003 of complete-4, f=1, uniform delays up to 3,
T=60, agent 4 crashing at t=10 in each crash phase (checked). Run it once
per checkout, each time with that checkout's src/ on the path, and diff:

    PYTHONPATH=src python3 tools/belief_digests.py > new.txt
    PYTHONPATH=OTHER/src python3 tools/belief_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1000, 1064)
CHECKED_SEEDS = range(1000, 1004)


def configs():
    """(label, SimulationConfig, digest the checks, digest the drift)
    tuples, built from this checkout's tests and benchmark definitions."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    from conftest import make_config, suite_configs
    from workloads import CONFIGS, simulation_payload

    from crashlearn.engine import (CRASH_PHASES, AdversarySchedule,
                                   CrashEvent, SimulationConfig)
    from crashlearn.graphs import DirectedGraph
    for label, config in suite_configs().items():
        yield label, config, True, True
    for label, (mode, iterations) in CONFIGS.items():
        for seed in SEEDS:
            payload = simulation_payload(mode, iterations, seed)
            yield (f"{label}-{seed}", SimulationConfig.from_dict(payload),
                   seed in CHECKED_SEEDS, False)
    for phase in CRASH_PHASES:
        crash = CrashEvent(4, 10, phase, 1 if phase == "mid_update" else None)
        for seed in CHECKED_SEEDS:
            yield (f"{phase}-{seed}", make_config(
                DirectedGraph.complete(4), 1, iterations=60, seed=seed,
                adversary=AdversarySchedule(mode="uniform", dmax=3.0,
                                            crash_plan=(crash,))), True, False)


def _lines_digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def digests(config, with_checks: bool, with_drift: bool,
            workdir: Path) -> list[str]:
    from crashlearn.analysis import (decompose_log_ratio_drift,
                                     pseudo_belief_evolution, run_checks)
    from crashlearn.engine import (iter_trace_lines, read_trace,
                                   run_execution, write_trace)
    from crashlearn.harness import write_trajectory_csv
    trace = run_execution(config)
    out = [_lines_digest(islice(iter_trace_lines(trace), 1, None)),
           hashlib.sha256(pseudo_belief_evolution(trace).tobytes()).hexdigest()]
    csv_path, trace_path = workdir / "trajectory.csv", workdir / "trace.jsonl"
    write_trajectory_csv(trace, csv_path)
    out.append(hashlib.sha256(csv_path.read_bytes()).hexdigest())
    write_trace(trace, trace_path)
    out.append(_lines_digest(iter_trace_lines(read_trace(trace_path))))
    if with_checks:
        out.append(_json_digest(run_checks(trace)))
    if with_drift:
        drift = decompose_log_ratio_drift(trace, None, "theta2", "theta1", 1.0)
        out.append(_json_digest(dataclasses.asdict(drift)))
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for label, config, with_checks, with_drift in configs():
            print(label, *digests(config, with_checks, with_drift, Path(workdir)),
                  flush=True)


if __name__ == "__main__":
    main()
