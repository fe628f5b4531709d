"""The four workloads: inputs made from a workload seed, the crashlearn
command line of each operation, and the validators of each output.

Simulation seeds come from a fixed range whose final beliefs are recorded
in reference.json (see make_reference.py), so every run, whatever its
workload seed, checks beliefs against the reference. A workload seed picks
a slot of SLOT_WIDTH consecutive simulation seeds; seed 0 gives 1000-1003.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SIM_SEED_BASE = 1000
SEED_SLOTS = 16
SLOT_WIDTH = 4
REFERENCE_SEEDS = range(SIM_SEED_BASE, SIM_SEED_BASE + SEED_SLOTS * SLOT_WIDTH)
BELIEF_TOLERANCE = 1e-9
CONVERGENCE_THRESHOLD = 0.99

DETECT_N = 6
DETECT_F = 1
DETECT_EXPECTED = {"n": 6, "f": 1, "chi": 46662, "gamma": 5, "xi": "1/6",
                   "condition1_holds": True, "condition2_holds": True}


def sim_seed_start(workload_seed: int) -> int:
    return SIM_SEED_BASE + SLOT_WIDTH * (workload_seed % SEED_SLOTS)


def complete_edges(n: int) -> list[list[int]]:
    return [[j, i] for j in range(1, n + 1) for i in range(1, n + 1) if i != j]


def simulation_payload(mode: str, iterations: int, seed: int) -> dict:
    """complete-4, f=1, Bernoulli(0.3)/(0.7) agents, agent 4 crashing
    mid_update at t=10 with one hypothesis rewritten."""
    agent = {"signals": ["a", "b"],
             "likelihood": {"theta1": [0.3, 0.7], "theta2": [0.7, 0.3]}}
    adversary = {"mode": mode,
                 "crash_plan": [{"agent": 4, "iteration": 10,
                                 "phase": "mid_update", "partial_count": 1}]}
    if mode == "uniform":
        adversary["dmax"] = 3.0
    return {"graph": {"n": 4, "edges": complete_edges(4)}, "f": 1,
            "model": {"hypotheses": ["theta1", "theta2"], "agents": [agent] * 4},
            "theta_star": "theta1", "iterations": iterations, "seed": seed,
            "adversary": adversary}


# The two simulation configs the reference covers, by label.
CONFIGS = {"latest": ("adversarial_latest", 5000),
           "async": ("uniform", 1000)}


class OpResult:
    """What validating one operation found."""

    def __init__(self):
        self.errors: list[str] = []
        self.verdicts = 0
        self.verdicts_failed = 0
        self.failed_checks: list[dict] = []

    def count(self, name: str, verdict: dict, where: dict) -> None:
        self.verdicts += 1
        if not verdict.get("passed"):
            self.verdicts_failed += 1
            self.failed_checks.append({**where, "check": name,
                                       "witness": verdict.get("witness")})


# -- validators, kept as small functions so the self-check can feed them
#    tampered outputs -----------------------------------------------------------

def beliefs_match(got, want) -> bool:
    """Equal lengths and every entry within BELIEF_TOLERANCE (relative above 1)."""
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=BELIEF_TOLERANCE, abs_tol=BELIEF_TOLERANCE)
        for g, w in zip(got, want))


def detect_report_errors(report: dict) -> list[str]:
    return [f"detect {key}={report.get(key)!r}, expected {value!r}"
            for key, value in DETECT_EXPECTED.items() if report.get(key) != value]


def final_beliefs_from_trace(path: Path) -> dict[str, list[float]]:
    """Last-iteration log beliefs per agent, read from a JSON-lines trace."""
    lines = path.read_text(encoding="utf-8").splitlines()
    last_t = json.loads(lines[-1])["t"]
    finals = {}
    for line in reversed(lines):
        row = json.loads(line)
        if row.get("t") != last_t:
            break
        finals[str(row["agent"])] = row["log_belief"]
    return finals


def final_state_errors(where: str, want: dict, min_posterior: float,
                       beliefs: dict | None = None) -> list[str]:
    errors = []
    if not beliefs_match([min_posterior], [want["min_posterior"]]):
        errors.append(f"{where}: min_posterior {min_posterior!r} != reference "
                      f"{want['min_posterior']!r}")
    if beliefs is not None:
        if sorted(beliefs) != sorted(want["final_log_belief"]):
            errors.append(f"{where}: final agents {sorted(beliefs)} != reference")
        for agent, vec in want["final_log_belief"].items():
            if agent in beliefs and not beliefs_match(beliefs[agent], vec):
                errors.append(f"{where}: agent {agent} final beliefs "
                              f"{beliefs[agent]} != reference {vec}")
    return errors


class RepeatCheck:
    """Outputs of repeated inputs must be byte-identical to the first one."""

    def __init__(self):
        self._first: dict[int, bytes] = {}

    def errors(self, key: int, data: bytes) -> list[str]:
        first = self._first.setdefault(key, data)
        return [] if first == data else [f"input {key}: output differs on repeat"]


def self_check(reference: dict) -> list[str]:
    """Feed each validator one tampered output; each must reject it."""
    problems = []
    report = dict(DETECT_EXPECTED)
    if detect_report_errors(report):
        problems.append("detect validator rejects the expected report")
    report["chi"] += 1
    if not detect_report_errors(report):
        problems.append("detect validator accepts a tampered chi")
    want = reference["async"][str(SIM_SEED_BASE)]
    agent, vec = next(iter(want["final_log_belief"].items()))
    beliefs = {a: list(v) for a, v in want["final_log_belief"].items()}
    if final_state_errors("self", want, want["min_posterior"], beliefs):
        problems.append("belief validator rejects the reference itself")
    beliefs[agent] = [vec[0] + 1e-6] + vec[1:]
    if not final_state_errors("self", want, want["min_posterior"], beliefs):
        problems.append("belief validator accepts a tampered belief")
    repeats = RepeatCheck()
    summary = b'{"aggregate": {"num_seeds": 1}}\n'
    if repeats.errors(0, summary) or repeats.errors(0, bytes(summary)):
        problems.append("repeat validator rejects identical bytes")
    if not repeats.errors(0, summary.replace(b"1", b"2")):
        problems.append("repeat validator accepts a tampered summary byte")
    return problems


# -- workloads -------------------------------------------------------------------

class Sweep:
    """crashlearn batch over one block of consecutive simulation seeds per op;
    ops cycle over `blocks` blocks, so every later op repeats an earlier block
    and must reproduce its summary.json byte for byte."""

    unit = "seed"

    def __init__(self, config: str, block: int, blocks: int,
                 checks: list[str] | None, write_traces: bool):
        self.config = config
        self.block, self.blocks = block, blocks
        self.checks, self.write_traces = checks, write_traces
        self.units_per_op = block
        self.probe_checks = checks is None      # the traced run times each check
        self.repeats = RepeatCheck()

    def block_seeds(self, workload_seed: int, k: int) -> list[int]:
        start = sim_seed_start(workload_seed) + (k % self.blocks) * self.block
        return list(range(start, start + self.block))

    def generate(self, workdir: Path, workload_seed: int) -> None:
        mode, iterations = CONFIGS[self.config]
        (workdir / "sim.json").write_text(json.dumps(
            simulation_payload(mode, iterations, 0)), encoding="utf-8")
        for k in range(self.blocks):
            batch = {"config": "sim.json",
                     "seeds": self.block_seeds(workload_seed, k),
                     "convergence_threshold": CONVERGENCE_THRESHOLD}
            if self.checks is not None:
                batch["checks"] = self.checks
            (workdir / f"batch_{k}.json").write_text(json.dumps(batch),
                                                      encoding="utf-8")

    def argv(self, workdir: Path, op: int) -> list[str]:
        argv = ["batch", "--config", str(workdir / f"batch_{op % self.blocks}.json"),
                "--out-dir", str(workdir / f"out_{op}")]
        return argv + (["--write-traces"] if self.write_traces else [])

    def validate(self, workdir: Path, workload_seed: int, op: int, code: int,
                 stdout: str, reference: dict) -> OpResult:
        result = OpResult()
        out_dir = workdir / f"out_{op}"
        summary_bytes = (out_dir / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        if json.loads(stdout) != summary:
            result.errors.append("stdout differs from summary.json")
        seeds = self.block_seeds(workload_seed, op)
        outcomes = summary["outcomes"]
        if [o["seed"] for o in outcomes] != seeds:
            result.errors.append(f"outcome seeds {[o['seed'] for o in outcomes]} "
                                 f"!= block {seeds}")
        for outcome in outcomes:
            seed = outcome["seed"]
            for name, verdict in outcome["checks"].items():
                result.count(name, verdict, {"seed": seed})
            want = reference[self.config][str(seed)]
            beliefs = None
            if self.write_traces:
                beliefs = final_beliefs_from_trace(out_dir / outcome["trace_file"])
            result.errors += final_state_errors(f"seed {seed}", want,
                                                outcome["min_posterior"], beliefs)
            if outcome["converged"] != (outcome["min_posterior"]
                                        >= CONVERGENCE_THRESHOLD):
                result.errors.append(f"seed {seed}: converged flag inconsistent")
        passed = summary["aggregate"]["all_checks_passed"]
        if passed != (result.verdicts_failed == 0):
            result.errors.append("all_checks_passed disagrees with the verdicts")
        expected_code = 0 if passed else 4
        if code != expected_code:
            result.errors.append(f"exit code {code}, expected {expected_code}")
        result.errors += self.repeats.errors(op % self.blocks, summary_bytes)
        return result


class Analyze:
    """crashlearn analyze on a stored T=5000 adversarial_latest trace written
    during set-up; every op re-reads it and must reproduce the first report
    byte for byte."""

    unit = "trace"
    units_per_op = 1
    probe_checks = True

    def __init__(self):
        self.repeats = RepeatCheck()

    def generate(self, workdir: Path, workload_seed: int) -> None:
        from crashlearn import SimulationConfig, run_execution, write_trace
        mode, iterations = CONFIGS["latest"]
        config = SimulationConfig.from_dict(simulation_payload(
            mode, iterations, sim_seed_start(workload_seed)))
        write_trace(run_execution(config), workdir / "trace.jsonl")

    def input_errors(self, workdir: Path, workload_seed: int,
                     reference: dict) -> list[str]:
        seed = sim_seed_start(workload_seed)
        beliefs = final_beliefs_from_trace(workdir / "trace.jsonl")
        # theta1, the true hypothesis, is entry 0 of every belief vector
        star = min(math.exp(vec[0]) for vec in beliefs.values())
        return final_state_errors(f"trace seed {seed}", reference["latest"][str(seed)],
                                  star, beliefs)

    def argv(self, workdir: Path, op: int) -> list[str]:
        return ["analyze", "--trace", str(workdir / "trace.jsonl")]

    def validate(self, workdir: Path, workload_seed: int, op: int, code: int,
                 stdout: str, reference: dict) -> OpResult:
        result = OpResult()
        report = json.loads(stdout)
        seed = sim_seed_start(workload_seed)
        for name, verdict in report["checks"].items():
            result.count(name, verdict, {"seed": seed})
        want = reference["latest"][str(seed)]
        result.errors += final_state_errors(f"trace seed {seed}", want,
                                            report["min_posterior"])
        if report["final_alive"] != sorted(int(a) for a in want["final_log_belief"]):
            result.errors.append(f"final_alive {report['final_alive']} != reference")
        if report["iterations"] != CONFIGS["latest"][1]:
            result.errors.append(f"iterations {report['iterations']}")
        passed = report["all_checks_passed"]
        if passed != (result.verdicts_failed == 0):
            result.errors.append("all_checks_passed disagrees with the verdicts")
        expected_code = 0 if passed else 4
        if code != expected_code:
            result.errors.append(f"exit code {code}, expected {expected_code}")
        result.errors += self.repeats.errors(0, stdout.encode())
        return result


class Detect:
    """crashlearn detect on complete-6 with f=1; the seed relabels the nodes
    and shuffles the edge list, which leaves the answer unchanged."""

    unit = "graph"
    units_per_op = 1

    def generate(self, workdir: Path, workload_seed: int) -> None:
        rng = random.Random(workload_seed)
        labels = list(range(1, DETECT_N + 1))
        rng.shuffle(labels)
        edges = [[labels[j - 1], labels[i - 1]] for j, i in complete_edges(DETECT_N)]
        rng.shuffle(edges)
        (workdir / "graph.json").write_text(
            json.dumps({"n": DETECT_N, "edges": edges}), encoding="utf-8")

    def argv(self, workdir: Path, op: int) -> list[str]:
        return ["detect", "--graph", str(workdir / "graph.json"),
                "--f", str(DETECT_F)]

    def validate(self, workdir: Path, workload_seed: int, op: int, code: int,
                 stdout: str, reference: dict) -> OpResult:
        result = OpResult()
        report = json.loads(stdout)
        for name in ("condition1_holds", "condition2_holds"):
            result.count(name, {"passed": report.get(name) is True,
                                "witness": report.get("witness")}, {})
        result.errors += detect_report_errors(report)
        if code != 0:
            result.errors.append(f"exit code {code}, expected 0")
        return result


def make_workload(name: str):
    if name == "sweep-latest":
        return Sweep("latest", block=1, blocks=2, checks=[],
                     write_traces=False)
    if name == "sweep-async":
        return Sweep("async", block=1, blocks=SLOT_WIDTH, checks=None,
                     write_traces=True)
    if name == "analyze":
        return Analyze()
    if name == "detect":
        return Detect()
    raise KeyError(name)


WORKLOADS = ("sweep-latest", "sweep-async", "analyze", "detect")
