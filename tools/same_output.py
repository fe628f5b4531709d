"""Show in one command that two checkouts of crashlearn give the same output.

    python3 tools/same_output.py              # this checkout's lines
    python3 tools/same_output.py OTHER/src    # compare with another checkout

With no argument the tool prints one line per case, its label then SHA-256
digests, from the crashlearn on the path (else this checkout's src/):
  - 155 simulation cases: the tests' suite_configs(); seeds 1000-1063 of the
    benchmark's two configs; seeds 1000-1003 of complete-4, f=1, uniform
    delays up to 3, T=60, agent 4 crashing at t=10 in each phase; and with
    f=1, T=60, seed 1000 on graphs that are not complete, fixed delays that
    tie (tie-witness-fixed0, ring5-edge-delays) and agent 3 crashing in each
    phase (ring5-uniform-<phase>). Digests of the phase, quorum and signal
    arrays, trace_matrices and, but on benchmark seeds 1004-1063, the
    run_checks report: nothing that depends on belief arithmetic.
  - 60 graph cases: the tests' HAND_CASES and FROZEN, K3-K6 with f=1, K5 with
    f=2 and 40 seeded random digraphs. Digests of the ordered reduced graphs
    with their removals, detectability_report, structure_constants with its
    sources in order and sorted (so order alone shows in one column),
    check_assumption1 with Bernoulli(0.3)/(0.7) agents, and both
    conditions with their witnesses; the cap's message if it refuses.
  - 18 CLI cases, `python -m crashlearn.cli` with the side's src/ on
    PYTHONPATH, each in a fresh temporary directory with relative file
    names: `batch --write-traces --out-dir` (all eight checks) on seeds
    1000-1003 of each benchmark config; `simulate --out --csv`, and
    `analyze --out` of its trace, on seeds 1000 and 1001 of each; `detect`
    and `identify` (Bernoulli agents) on K4-K7 with f=1. Each command's exit
    code (recorded, not judged), stdout and stderr digests, then
    `path=digest` for every file left in the directory.

With OTHER/src two children run at once, each with its side's src/ on
PYTHONPATH: this copy, and the other checkout's own copy of the tool (this
copy if it has none). The internal argument `dump DIR` makes a child print
its lines and write each simulation case's belief values to DIR/<label>.npz.
Labels only one side lists are named, then the first differing line and
field, then per simulation case the largest |a - b| / max(1, |a|, |b|) of the
log beliefs, pseudo-beliefs, run_checks margins and (suite configs) every
number of decompose_log_ratio_drift(trace, "theta2", "theta1", 1.0), so at
most tol means math.isclose(a, b, rel_tol=tol, abs_tol=tol) holds for each
entry; a last row of maxima. Exit 0 only when all lines match.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the cases' inputs come from this checkout's tests and benchmark; the
# package is the crashlearn on the path, else this checkout's
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
sys.path.append(str(ROOT / "src"))
sys.dont_write_bytecode = True

import crashlearn
from conftest import make_config, standard_model, suite_configs
from crashlearn.analysis import (
    DEFAULT_CHECKS, decompose_log_ratio_drift, pseudo_belief_evolution,
    run_checks, structure_constants, trace_matrices)
from crashlearn.engine import (CRASH_PHASES, AdversarySchedule, CrashEvent,
                               SimulationConfig, run_execution)
from crashlearn.graphs import (
    BudgetExceededError, DirectedGraph, check_condition1, check_condition2,
    detectability_report, enumerate_reduced_graphs)
from crashlearn.observation import (IdentifiabilityPreconditionError,
                                    check_assumption1)
from test_graphs import FROZEN, HAND_CASES
from workloads import CONFIGS, complete_edges, simulation_payload

SEEDS = range(1000, 1064)
CHECKED_SEEDS = range(1000, 1004)
COLUMNS = ("beliefs", "pseudo", "margins", "drift")


def simulation_cases():
    """(label, SimulationConfig, run the checks, decompose the drift)."""
    def crashing(agent: int, phase: str) -> AdversarySchedule:
        crash = CrashEvent(agent, 10, phase,
                           1 if phase == "mid_update" else None)
        return AdversarySchedule(mode="uniform", dmax=3.0, crash_plan=(crash,))

    for label, config in suite_configs().items():
        yield label, config, True, True
    for label, (mode, iterations) in CONFIGS.items():
        for seed in SEEDS:
            payload = simulation_payload(mode, iterations, seed)
            yield (f"{label}-{seed}", SimulationConfig.from_dict(payload),
                   seed in CHECKED_SEEDS, False)
    for phase in CRASH_PHASES:
        for seed in CHECKED_SEEDS:
            yield (f"{phase}-{seed}", make_config(
                DirectedGraph.complete(4), 1, iterations=60, seed=seed,
                adversary=crashing(4, phase)), True, False)
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
        yield f"ring5-uniform-{phase}", make_config(
            ring, 1, iterations=60, seed=1000,
            adversary=crashing(3, phase)), True, False


def graph_cases():
    """(label, DirectedGraph, f)."""
    for k, (n, edges, f) in enumerate(HAND_CASES):
        yield f"hand{k}-f{f}", DirectedGraph.from_edge_list(n, edges), f
    for k, (build, f, *_) in enumerate(FROZEN):
        yield f"frozen{k}-f{f}", build(), f
    for n, f in [(3, 1), (4, 1), (5, 1), (6, 1), (5, 2)]:
        yield f"K{n}-f{f}", DirectedGraph.complete(n), f
    rng = np.random.default_rng(4242)
    for k in range(40):
        n = int(rng.integers(2, 7))
        p = float(rng.choice([0.3, 0.5, 0.8]))
        f = int(rng.integers(0, 3))
        edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                 if j != i and rng.random() < p]
        yield f"random{k}-n{n}-f{f}", DirectedGraph.from_edge_list(n, edges), f


def cli_cases():
    """(label, {input file: JSON payload}, [argv of each command])."""
    for name, (mode, iterations) in CONFIGS.items():
        yield (f"cli-batch-{name}",
               {"sim.json": simulation_payload(mode, iterations, 1000),
                "batch.json": {"config": "sim.json", "seeds": list(CHECKED_SEEDS)}},
               [["batch", "--config", "batch.json", "--write-traces",
                 "--out-dir", "out"]])
    simulate = ["simulate", "--config", "sim.json", "--out", "trace.jsonl",
                "--csv", "beliefs.csv"]
    analyze = ["analyze", "--trace", "trace.jsonl", "--out", "report.json"]
    for command, steps in [("simulate", [simulate]),
                           ("analyze", [simulate, analyze])]:
        for name, (mode, iterations) in CONFIGS.items():
            for seed in CHECKED_SEEDS[:2]:
                yield (f"cli-{command}-{name}-{seed}",
                       {"sim.json": simulation_payload(mode, iterations, seed)},
                       steps)
    model = simulation_payload("uniform", 1, 1000)["model"]
    for command in ("detect", "identify"):
        for n in range(4, 8):
            inputs = {"graph.json": {"n": n, "edges": complete_edges(n)}}
            argv = [command, "--graph", "graph.json", "--f", "1"]
            if command == "identify":
                inputs["model.json"] = dict(model,
                                            agents=model["agents"][:1] * n)
                argv += ["--model", "model.json"]
            yield f"cli-{command}-K{n}-f1", inputs, [argv]


def cases() -> list[tuple[str, str, tuple]]:
    """Every case as (kind, label, spec), in output order, none of them run."""
    return [(kind, label, tuple(spec)) for kind, listed in
            [("simulation", simulation_cases()), ("graph", graph_cases()),
             ("cli", cli_cases())]
            for label, *spec in listed]


def _digest(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def simulation_line(config, with_checks: bool, with_drift: bool):
    """The belief-free digests of one run, and its belief-dependent values
    as float arrays."""
    trace = run_execution(config)
    fields = [_digest(np.ascontiguousarray(array).tobytes())
              for array in (trace.phase, trace.quorum, trace.signal,
                            trace_matrices(trace))]
    values = {"beliefs": trace.log_belief,
              "pseudo": pseudo_belief_evolution(trace)}
    if with_checks:
        report = run_checks(trace)
        fields.append(_digest(report))
        values["margins"] = np.array([report[name]["worst_margin"]
                                      for name in DEFAULT_CHECKS])
    if with_drift:
        drift = dataclasses.asdict(
            decompose_log_ratio_drift(trace, "theta2", "theta1", 1.0))
        values["drift"] = np.array(
            [drift["C0"], drift["C1"]]
            + [value for checkpoint in drift["checkpoints"]
               for value in checkpoint.values()], dtype=np.float64)
    return fields, values


def _fields(rg) -> list:
    """A reduced graph's nodes, edges, removed_in_links and removed_sinks."""
    return [sorted(rg.nodes), sorted(rg.edges),
            [[i, sorted(dropped)] for i, dropped in rg.removed_in_links],
            sorted(rg.removed_sinks)]


def graph_line(g, f) -> list[str]:
    try:
        reduced = enumerate_reduced_graphs(g, f)
        report = detectability_report(g, f)
        structure = structure_constants(g, f)
        holds, witness = check_condition1(g, f)
        split_holds, split = check_condition2(g, f)
    except BudgetExceededError as exc:
        return ["refused:", str(exc)]
    try:
        identify = check_assumption1(standard_model(g.n), g, f).to_dict()
    except IdentifiabilityPreconditionError as exc:
        identify = str(exc)
    census = hashlib.sha256()
    for rg in reduced:
        census.update(json.dumps(_fields(rg)).encode())
        census.update(b"\n")
    sources = [sorted(source) for source in structure.sources]
    return [census.hexdigest(), _digest(report.to_dict()),
            _digest([structure.chi, structure.gamma, sources]),
            _digest([structure.chi, structure.gamma, sorted(sources)]),
            _digest(identify),
            _digest([holds, witness and _fields(witness)]),
            _digest([split_holds, split and [sorted(side) for side in split]])]


def cli_line(inputs: dict, steps: list, src: Path) -> list[str]:
    fields = []
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        for name, payload in inputs.items():
            (work / name).write_text(json.dumps(payload), encoding="utf-8")
        for argv in steps:
            run = subprocess.run([sys.executable, "-m", "crashlearn.cli", *argv],
                                 cwd=work, env=env, capture_output=True)
            fields += [f"{argv[0]}.exit={run.returncode}",
                       f"{argv[0]}.stdout={_digest(run.stdout)}",
                       f"{argv[0]}.stderr={_digest(run.stderr)}"]
        fields += [f"{path.relative_to(work).as_posix()}="
                   f"{_digest(path.read_bytes())}"
                   for path in sorted(work.rglob("*")) if path.is_file()]
    return fields


def print_lines(values_dir: Path | None) -> None:
    """Print every case's line; with values_dir, also write each simulation
    case's belief values to values_dir/<label>.npz."""
    src = Path(crashlearn.__file__).resolve().parent.parent
    for kind, label, spec in cases():
        if kind == "simulation":
            fields, values = simulation_line(*spec)
            if values_dir is not None:
                np.savez(values_dir / f"{label}.npz", **values)
        elif kind == "graph":
            fields = graph_line(*spec)
        else:
            fields = cli_line(*spec, src)
        print(label, *fields, flush=True)


def deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(1, |a|, |b|); equal entries (infinities too)
    count as 0."""
    if a.shape != b.shape:
        return math.inf
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        gaps = np.where(a == b, 0.0, np.abs(a - b) / scale)
    return float(np.max(gaps, initial=0.0))


def compare(other_src: Path) -> int:
    other_src = other_src.resolve()
    other_tool = other_src.parent / "tools" / Path(__file__).name
    sides = [("this copy", Path(__file__), ROOT / "src"),
             (str(other_src), other_tool if other_tool.exists()
              else Path(__file__), other_src)]
    with tempfile.TemporaryDirectory() as workdir:
        dirs = [Path(workdir) / name for name in ("this", "other")]
        children = []
        for directory, (_, tool, src) in zip(dirs, sides):
            directory.mkdir()
            with open(directory / "lines.txt", "w") as out:
                children.append(subprocess.Popen(
                    [sys.executable, str(tool), "dump", str(directory)],
                    stdout=out, env=dict(os.environ, PYTHONPATH=str(src))))
        for (_, tool, _), child in zip(sides, children):
            if child.wait():
                sys.exit(f"same_output: {tool} exited {child.returncode}")
        ours, theirs = ({label: fields for label, *fields in map(
            str.split, (directory / "lines.txt").read_text().splitlines())}
            for directory in dirs)
        print(f"{len(ours)} cases in this copy, {len(theirs)} in {other_src}")
        for (name, *_), mine, others in zip(sides, (ours, theirs),
                                            (theirs, ours)):
            if only := [label for label in mine if label not in others]:
                print(f"only in {name}: {', '.join(only)}")
        shared = [label for label in ours if label in theirs]
        differ = [label for label in shared if ours[label] != theirs[label]]
        print(f"{len(shared) - len(differ)} lines identical")
        for label in differ[:1]:
            k, mine, others = next((k, a, b) for k, (a, b) in enumerate(
                itertools.zip_longest(ours[label], theirs[label],
                                      fillvalue="-")) if a != b)
            print(f"first difference: {label}, field {k + 1}\n"
                  f"  this copy: {mine}\n  {other_src}: {others}")
        print("config", *COLUMNS)
        worst = dict.fromkeys(COLUMNS, 0.0)
        for label in ours:
            paths = [directory / f"{label}.npz" for directory in dirs]
            if not all(path.exists() for path in paths):
                continue
            with np.load(paths[0]) as a, np.load(paths[1]) as b:
                gaps = {column: deviation(a[column], b[column])
                        for column in COLUMNS if column in a}
            for column, gap in gaps.items():
                worst[column] = max(worst[column], gap)
            print(label, *(f"{gaps[column]:.3e}" if column in gaps else "-"
                           for column in COLUMNS))
        print("max", *(f"{worst[column]:.3e}" for column in COLUMNS))
    return 0 if not differ and ours.keys() == theirs.keys() else 1


def main() -> int:
    args = sys.argv[1:]
    if len(args) == 1:
        return compare(Path(args[0]))
    if args and (len(args) != 2 or args[0] != "dump"):
        sys.exit(__doc__.split("\n\n")[1])
    print_lines(Path(args[1]) if args else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
