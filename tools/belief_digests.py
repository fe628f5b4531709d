"""SHA-256 digests of everything a simulation records, for comparing the
engine bit for bit across versions.

One line per config: its label, the digest of the trace's step lines
(iter_trace_lines without its header: every record's quorum, signal,
completion, crash phase and log belief, in (t, agent) order), and the
digest of pseudo_belief_evolution's output. The configs are the test
suite's suite_configs() and simulation seeds 1000-1063 of the benchmark's
two simulation configs. Run it once per checkout, each time with that
checkout's src/ on the path, and diff:

    PYTHONPATH=src python3 tools/belief_digests.py > new.txt
    PYTHONPATH=OTHER/src python3 tools/belief_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1000, 1064)


def configs():
    """(label, SimulationConfig) pairs, built from this checkout's tests
    and benchmark definitions."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    from conftest import suite_configs
    from workloads import CONFIGS, simulation_payload

    from crashlearn.engine import SimulationConfig
    yield from suite_configs().items()
    for label, (mode, iterations) in CONFIGS.items():
        for seed in SEEDS:
            payload = simulation_payload(mode, iterations, seed)
            yield f"{label}-{seed}", SimulationConfig.from_dict(payload)


def digests(config) -> tuple[str, str]:
    from crashlearn.analysis import pseudo_belief_evolution
    from crashlearn.engine import iter_trace_lines, run_execution
    trace = run_execution(config)
    steps = hashlib.sha256()
    for line in islice(iter_trace_lines(trace), 1, None):
        steps.update(line.encode())
        steps.update(b"\n")
    pseudo = hashlib.sha256(pseudo_belief_evolution(trace).tobytes())
    return steps.hexdigest(), pseudo.hexdigest()


def main() -> None:
    for label, config in configs():
        print(label, *digests(config), flush=True)


if __name__ == "__main__":
    main()
