"""SHA-256 digests of everything a simulation records, for comparing the
engine bit for bit across versions.

One line per config: its label, then these digests:
  - the trace's step lines (iter_trace_lines without its header: every
    record's quorum, signal, completion, crash phase and log belief, in
    (t, agent) order);
  - pseudo_belief_evolution's output;
  - the bytes write_trajectory_csv writes;
  - every line of iter_trace_lines, header included, of the trace that
    read_trace returns for the file write_trace wrote;
  - on the test suite's configs only, json.dumps(run_checks(trace),
    sort_keys=True).
The configs are the test suite's suite_configs() and simulation seeds
1000-1063 of the benchmark's two simulation configs. Run it once per
checkout, each time with that checkout's src/ on the path, and diff:

    PYTHONPATH=src python3 tools/belief_digests.py > new.txt
    PYTHONPATH=OTHER/src python3 tools/belief_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1000, 1064)


def configs():
    """(label, SimulationConfig, whether to digest the checks) triples,
    built from this checkout's tests and benchmark definitions."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    from conftest import suite_configs
    from workloads import CONFIGS, simulation_payload

    from crashlearn.engine import SimulationConfig
    for label, config in suite_configs().items():
        yield label, config, True
    for label, (mode, iterations) in CONFIGS.items():
        for seed in SEEDS:
            payload = simulation_payload(mode, iterations, seed)
            yield f"{label}-{seed}", SimulationConfig.from_dict(payload), False


def _lines_digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def digests(config, with_checks: bool, workdir: Path) -> list[str]:
    from crashlearn.analysis import pseudo_belief_evolution, run_checks
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
        report = json.dumps(run_checks(trace), sort_keys=True)
        out.append(hashlib.sha256(report.encode()).hexdigest())
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for label, config, with_checks in configs():
            print(label, *digests(config, with_checks, Path(workdir)),
                  flush=True)


if __name__ == "__main__":
    main()
