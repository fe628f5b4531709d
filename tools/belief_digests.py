"""Compare what a simulation records across two checkouts of crashlearn.

    python3 tools/belief_digests.py digests
    python3 tools/belief_digests.py deviations OTHER/src

`digests` (the default) prints one line per config: its label, then SHA-256
digests of everything that does not depend on belief arithmetic:
  - the trace's phase, quorum and signal arrays;
  - trace_matrices(trace);
  - on the checked configs, json.dumps(run_checks(trace), sort_keys=True),
    every verdict, margin and witness.
Run it once per checkout, each time with that checkout's src/ on the path,
and diff; a change of belief kernel leaves every line unchanged:

    PYTHONPATH=src python3 tools/belief_digests.py > new.txt
    PYTHONPATH=OTHER/src python3 tools/belief_digests.py > old.txt
    diff old.txt new.txt

`deviations` runs the configs once with OTHER/src in a subprocess and once
with the src/ on this process's path. The subprocess runs the other
checkout's own copy of this tool, OTHER/../tools/belief_digests.py, when it
exists (this copy otherwise), so each side calls its API as it stands there.
Both copies must list the same configs in the same order: `dump` writes
each config's label next to its values, and `deviations` stops with a
message naming the first config whose label differs, or the two counts if
they differ (a copy that writes no labels is checked by count alone). It
prints, per config, the largest deviation of each belief-dependent quantity
as |a - b| / max(1, |a|, |b|), so a value at most tol means
math.isclose(a, b, rel_tol=tol, abs_tol=tol) holds for every entry: the
trace's log beliefs, pseudo_belief_evolution's output, the run_checks
margins (checked configs) and every number of
decompose_log_ratio_drift(trace, "theta2", "theta1", 1.0) (the test
suite's configs); "-" where a config has none. The last line is the largest
of each column.

The configs are the test suite's suite_configs() (checked), simulation seeds
1000-1063 of the benchmark's two simulation configs (seeds 1000-1003
checked), seeds 1000-1003 of complete-4, f=1, uniform delays up to 3,
T=60, agent 4 crashing at t=10 in each crash phase (checked), and three
groups on graphs that are not complete, f=1, T=60, seed 1000 (checked):
  - tie-witness-fixed0: a 4-node graph under zero fixed delays, where
    delivery times tie (agents 1 and 2 reach agent 4 at once in iteration
    2, and the lower label must win);
  - ring5-edge-delays: a 5-node ring with chords under per-edge fixed
    delays of 0, 1 or 2, so arrival times tie too;
  - ring5-uniform-<phase>: the same ring under uniform delays up to 3,
    agent 3 crashing at t=10 in each crash phase.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1000, 1064)
CHECKED_SEEDS = range(1000, 1004)


def configs():
    """(label, SimulationConfig, run the checks, decompose the drift)
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
    witness = DirectedGraph.from_edge_list(
        4, [(1, 3), (1, 4), (2, 4), (3, 1), (3, 2), (4, 1)])
    yield "tie-witness-fixed0", make_config(
        witness, 1, iterations=60, seed=1000,
        adversary=AdversarySchedule(mode="fixed", fixed_delays=0.0)), True, False
    ring = DirectedGraph.from_edge_list(
        5, [(j, j % 5 + 1) for j in range(1, 6)]
        + [(j, (j + 1) % 5 + 1) for j in range(1, 6)])
    yield "ring5-edge-delays", make_config(
        ring, 1, iterations=60, seed=1000,
        adversary=AdversarySchedule(mode="fixed", fixed_delays={
            (j, i): float((j * i) % 3) for j, i in ring.edges})), True, False
    for phase in CRASH_PHASES:
        crash = CrashEvent(3, 10, phase, 1 if phase == "mid_update" else None)
        yield f"ring5-uniform-{phase}", make_config(
            ring, 1, iterations=60, seed=1000,
            adversary=AdversarySchedule(mode="uniform", dmax=3.0,
                                        crash_plan=(crash,))), True, False


def _digest(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def digests(config, with_checks: bool) -> list[str]:
    from crashlearn.analysis import run_checks, trace_matrices
    from crashlearn.engine import run_execution
    trace = run_execution(config)
    out = [_digest(np.ascontiguousarray(array).tobytes())
           for array in (trace.phase, trace.quorum, trace.signal,
                         trace_matrices(trace))]
    if with_checks:
        out.append(_digest(run_checks(trace)))
    return out


def belief_values(config, with_checks: bool, with_drift: bool) -> dict:
    """Every belief-dependent quantity of one config, as float arrays."""
    from crashlearn.analysis import (DEFAULT_CHECKS, decompose_log_ratio_drift,
                                     pseudo_belief_evolution, run_checks)
    from crashlearn.engine import run_execution
    trace = run_execution(config)
    values = {"beliefs": trace.log_belief,
              "pseudo": pseudo_belief_evolution(trace)}
    if with_checks:
        report = run_checks(trace)
        values["margins"] = np.array([report[name]["worst_margin"]
                                      for name in DEFAULT_CHECKS])
    if with_drift:
        drift = dataclasses.asdict(
            decompose_log_ratio_drift(trace, "theta2", "theta1", 1.0))
        values["drift"] = np.array(
            [drift["C0"], drift["C1"]]
            + [value for checkpoint in drift["checkpoints"]
               for value in checkpoint.values()], dtype=np.float64)
    return values


def deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(1, |a|, |b|); equal entries (infinities too)
    count as 0."""
    if a.shape != b.shape:
        return math.inf
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        gaps = np.where(a == b, 0.0, np.abs(a - b) / scale)
    return float(np.max(gaps, initial=0.0))


COLUMNS = ("beliefs", "pseudo", "margins", "drift")


def dump(directory: Path) -> None:
    """Write belief_values of every config, with its label, to
    DIRECTORY/<index>.npz."""
    for index, (label, config, with_checks, with_drift) in enumerate(configs()):
        np.savez(directory / f"{index}.npz", label=np.array(label),
                 **belief_values(config, with_checks, with_drift))


def deviations(other_src: Path) -> None:
    # the other checkout's own copy of this tool calls its API as it stands
    # there; an older checkout without one runs this copy
    other_tool = other_src.resolve().parent / "tools" / Path(__file__).name
    tool = other_tool if other_tool.exists() else Path(__file__)
    with tempfile.TemporaryDirectory() as workdir:
        env = dict(os.environ, PYTHONPATH=str(other_src.resolve()))
        subprocess.run([sys.executable, str(tool), "dump", workdir],
                       env=env, check=True)
        listed = list(configs())
        dumped = len(list(Path(workdir).glob("*.npz")))
        if dumped != len(listed):
            sys.exit(f"deviations: {tool} lists {dumped} configs and this copy "
                     f"{len(listed)}; both copies must list the same configs")
        print("config", *COLUMNS)
        worst = dict.fromkeys(COLUMNS, 0.0)
        for index, (label, config, with_checks, with_drift) in enumerate(listed):
            ours = belief_values(config, with_checks, with_drift)
            with np.load(Path(workdir) / f"{index}.npz") as theirs:
                # a copy older than the label entry is paired by position
                theirs_label = str(theirs["label"]) if "label" in theirs else label
                if theirs_label != label:
                    sys.exit(f"deviations: config {index} is {theirs_label!r} "
                             f"in {tool} and {label!r} in this copy; both "
                             f"copies must list the same configs in the "
                             f"same order")
                row = []
                for column in COLUMNS:
                    if column not in ours:
                        row.append("-")
                        continue
                    gap = deviation(ours[column], theirs[column])
                    worst[column] = max(worst[column], gap)
                    row.append(f"{gap:.3e}")
            print(label, *row, flush=True)
        print("max", *(f"{worst[column]:.3e}" for column in COLUMNS))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("digests", help="belief-free digests, one line per config")
    compare = sub.add_parser("deviations",
                             help="belief deviations from another checkout")
    compare.add_argument("other_src", type=Path,
                         help="the other checkout's src/ directory")
    inner = sub.add_parser("dump", help="write belief values as .npz files "
                                        "(what deviations runs in the other checkout)")
    inner.add_argument("directory", type=Path)
    args = parser.parse_args()
    if args.command == "deviations":
        deviations(args.other_src)
    elif args.command == "dump":
        dump(args.directory)
    else:
        for label, config, with_checks, _ in configs():
            print(label, *digests(config, with_checks), flush=True)


if __name__ == "__main__":
    main()
