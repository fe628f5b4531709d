"""SHA-256 digests of every belief a simulation produces, for comparing the
engine bit for bit across versions.

One line per config: its label, the digest of every record's log belief in
(t, agent) order, and the digest of pseudo_belief_evolution's output. The
configs are the test suite's suite_configs() and simulation seeds
1000-1063 of the benchmark's two simulation configs. Run it once per
checkout, each time with that checkout's src/ on the path, and diff:

    PYTHONPATH=src python3 tools/belief_digests.py > new.txt
    PYTHONPATH=OTHER/src python3 tools/belief_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import sys
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
    from crashlearn.engine import run_execution
    trace = run_execution(config)
    records = hashlib.sha256()
    for per_agent in trace.records:
        for agent, rec in sorted(per_agent.items()):
            records.update(agent.to_bytes(4, "little"))
            records.update(rec.log_belief.tobytes())
    pseudo = hashlib.sha256(pseudo_belief_evolution(trace).tobytes())
    return records.hexdigest(), pseudo.hexdigest()


def main() -> None:
    for label, config in configs():
        print(label, *digests(config), flush=True)


if __name__ == "__main__":
    main()
