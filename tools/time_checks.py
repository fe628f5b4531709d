"""Time the engine, the trace checks, trace I/O and the graph layer of two
checkouts of crashlearn against each other.

    python3 tools/time_checks.py OTHER/src OUT.json

Runs PAIRS pairs of measuring subprocesses, one with OTHER/src (the base)
and one with this checkout's src/ on the path, alternating which of the two
runs first. Each subprocess builds the traces of simulation seeds 1000-1003
of the benchmark's two simulation configs (perfbench/workloads.py: complete-4,
f=1, agent 4 crashing mid_update at t=10; "latest" is adversarial_latest
with T=5000, "async" uniform delays up to 3 with T=1000). It then times,
in-process with perf_counter, REPEATS times per seed: run_execution of the
config, the schedule alone (engine._schedule), the belief pass alone on
the trace's stored schedule (`<config>/belief_recursion`: engine._belief_pass,
which draws the signals and runs belief_recursion) and validate_trace of
the trace; then, after one warm-up run_checks call, the full run_checks and
run_checks of each check alone, write_trace of the trace to a temporary
file, read_trace of that file and write_trajectory_csv of the trace
(`simulate --csv`). A figure is the median of those repeats
summed over the four seeds, in seconds; `<config>/peak_mb` is the peak
tracemalloc size of one run_checks call on seed 1000. The same configs on
the complete graph of LARGE_N agents with T=2000, seed 1000 ("n32-latest"
and "n32-async"), give `<config>/run_execution`, the median of REPEATS
runs, and `<config>/peak_mb`, the peak tracemalloc size of one run. A
RING_N-cycle with f=0 under zero fixed delays, T=RING_ITERATIONS, seed
1000, whose pi horizons fall short of T, gives `ring12/prop3`, the median
of REPEATS run_checks calls of prop3 alone after one warm-up call, and
`ring12/peak_mb`, the peak tracemalloc size of one such call. The graph
layer is timed REPEATS times on the complete graph K6 with f=1:
`graph/detect` (detectability_report), `graph/census` (source_census),
`graph/condition1` and `graph/condition2`, each the median of its repeats;
`graph7/detect` and `graph7/census` time the first two on K7 with f=1,
and `graph/witness` times detectability_report on two disjoint K4s with
f=1, where condition 1 fails and a witness is built. Every cache of the
graph layer is cleared before each call, so each one builds what it reads.

OUT.json gets, per figure, the median, quartiles and interquartile range of
each side over the pairs, the ratio of the medians (base over this tree),
and the pairs this tree won (a strictly smaller value; ties count for
neither side), plus every raw value.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1000, 1004)
PAIRS = 10
REPEATS = 3
GRAPH_N, GRAPH_F = 6, 1
LARGE_GRAPH_N = 7
LARGE_N, LARGE_ITERATIONS = 32, 2000
RING_N, RING_ITERATIONS = 12, 5000


def traces():
    """(config label, seed, trace) for every timed run."""
    from workloads import CONFIGS, simulation_payload

    from crashlearn.engine import SimulationConfig, run_execution
    for label, (mode, iterations) in CONFIGS.items():
        for seed in SEEDS:
            payload = simulation_payload(mode, iterations, seed)
            yield label, seed, run_execution(SimulationConfig.from_dict(payload))


def large_configs():
    """(label, config) of the two simulation configs on the complete graph
    of LARGE_N agents, T=LARGE_ITERATIONS, seed 1000."""
    from workloads import CONFIGS, complete_edges, simulation_payload

    from crashlearn.engine import SimulationConfig
    for label, (mode, _) in CONFIGS.items():
        payload = simulation_payload(mode, LARGE_ITERATIONS, SEEDS[0])
        payload["graph"] = {"n": LARGE_N, "edges": complete_edges(LARGE_N)}
        payload["model"]["agents"] = payload["model"]["agents"][:1] * LARGE_N
        yield f"n{LARGE_N}-{label}", SimulationConfig.from_dict(payload)


def ring_trace():
    """The run of the RING_N-cycle, built from the public API alone."""
    from crashlearn.engine import (AdversarySchedule, SimulationConfig,
                                   run_execution)
    from crashlearn.graphs import DirectedGraph
    from crashlearn.observation import LikelihoodModel, bernoulli_agent
    spaces, tables = zip(*[bernoulli_agent(0.3, 0.7) for _ in range(RING_N)])
    return run_execution(SimulationConfig(
        graph=DirectedGraph.cycle(RING_N), f=0,
        model=LikelihoodModel(("theta1", "theta2"), spaces, tables),
        theta_star="theta1", iterations=RING_ITERATIONS, seed=SEEDS[0],
        adversary=AdversarySchedule(mode="fixed", fixed_delays=0.0)))


def peak_mb(call) -> float:
    """The peak tracemalloc size of one call, in MB."""
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


def median_time(call) -> float:
    """The median wall time of REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure() -> dict[str, float]:
    """Every figure of the crashlearn on this process's path."""
    sys.path[:0] = [str(ROOT / "perfbench")]
    from crashlearn.analysis import DEFAULT_CHECKS, run_checks
    from crashlearn.engine import (_belief_pass, _schedule, read_trace,
                                   run_execution, validate_trace, write_trace)
    from crashlearn import graphs
    from crashlearn.graphs import (DirectedGraph, check_condition1,
                                   check_condition2, detectability_report,
                                   source_census)
    from crashlearn.harness import write_trajectory_csv
    targets = {"run_checks": None} | {name: (name,) for name in DEFAULT_CHECKS}
    figures: dict[str, float] = {}

    def add(key: str, seconds: float) -> None:
        figures[key] = figures.get(key, 0.0) + seconds

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        csv_path = Path(scratch) / "trajectory.csv"
        for label, seed, trace in traces():
            config = trace.config
            add(f"{label}/run_execution", median_time(lambda: run_execution(config)))
            add(f"{label}/schedule", median_time(lambda: _schedule(config)))
            add(f"{label}/belief_recursion", median_time(
                lambda: _belief_pass(config, trace.phase, trace.quorum)))
            add(f"{label}/validate_trace", median_time(lambda: validate_trace(trace)))
            run_checks(trace)
            for target, checks in targets.items():
                add(f"{label}/{target}",
                    median_time(lambda: run_checks(trace, checks=checks)))
            add(f"{label}/write_trace", median_time(lambda: write_trace(trace, path)))
            add(f"{label}/read_trace", median_time(lambda: read_trace(path)))
            add(f"{label}/write_trajectory_csv",
                median_time(lambda: write_trajectory_csv(trace, csv_path)))
            if seed == SEEDS[0]:
                figures[f"{label}/peak_mb"] = peak_mb(lambda: run_checks(trace))

    for label, config in large_configs():
        add(f"{label}/run_execution", median_time(lambda: run_execution(config)))
        figures[f"{label}/peak_mb"] = peak_mb(lambda: run_execution(config))

    ring = ring_trace()
    run_checks(ring, checks=("prop3",))
    add(f"ring{RING_N}/prop3",
        median_time(lambda: run_checks(ring, checks=("prop3",))))
    figures[f"ring{RING_N}/peak_mb"] = peak_mb(
        lambda: run_checks(ring, checks=("prop3",)))

    def uncached(call):
        """call, after emptying every lru_cache of the graph layer."""
        def run() -> None:
            for cached in vars(graphs).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()
            call()
        return run

    g, f = DirectedGraph.complete(GRAPH_N), GRAPH_F
    add("graph/condition1", median_time(uncached(lambda: check_condition1(g, f))))
    add("graph/condition2", median_time(uncached(lambda: check_condition2(g, f))))
    for label, n in (("graph", GRAPH_N), ("graph7", LARGE_GRAPH_N)):
        g = DirectedGraph.complete(n)
        add(f"{label}/detect", median_time(uncached(lambda: detectability_report(g, f))))
        add(f"{label}/census", median_time(uncached(lambda: source_census(g, f))))
    g = DirectedGraph.from_edge_list(8, ((j, i) for block in (range(1, 5), range(5, 9))
                                         for j in block for i in block if j != i))
    add("graph/witness", median_time(uncached(lambda: detectability_report(g, f))))
    return figures


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def commit(src: Path) -> str | None:
    """`git describe --always --dirty` of the checkout holding src."""
    try:
        return subprocess.run(["git", "-C", str(src), "describe", "--always",
                               "--dirty"], check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base_src: Path, out: Path) -> None:
    sides = {"base": str(base_src.resolve()), "this": str(ROOT / "src")}
    runs: dict[str, list[dict[str, float]]] = {"base": [], "this": []}
    for pair in range(PAIRS):
        order = ("base", "this") if pair % 2 == 0 else ("this", "base")
        for side in order:
            env = dict(os.environ, PYTHONPATH=sides[side])
            result = subprocess.run([sys.executable, __file__, "measure"],
                                    env=env, check=True, capture_output=True,
                                    text=True)
            runs[side].append(json.loads(result.stdout))
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    figures = {}
    for key in runs["base"][0]:
        base = [run[key] for run in runs["base"]]
        this = [run[key] for run in runs["this"]]
        figures[key] = {
            "unit": "MB" if key.endswith("peak_mb") else "s",
            "base": spread(base), "this": spread(this),
            "base_over_this": statistics.median(base) / statistics.median(this),
            "pairs_won": sum(b > t for b, t in zip(base, this)),
            "pairs": PAIRS, "base_runs": base, "this_runs": this}
    report = {"what": __doc__.split("\n\n")[2].replace("\n", " "),
              "base_commit": commit(base_src), "this_commit": commit(ROOT),
              "seeds": list(SEEDS),
              "pairs": PAIRS, "repeats": REPEATS,
              "host": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                       "python": platform.python_version(),
                       "numpy": np.__version__},
              "figures": figures}
    out.write_text(json.dumps(report, indent=1) + "\n")


def main() -> None:
    if sys.argv[1:] == ["measure"]:
        print(json.dumps(measure()))
    elif len(sys.argv) == 3:
        compare(Path(sys.argv[1]), Path(sys.argv[2]))
    else:
        sys.exit(__doc__.split("\n\n")[1])


if __name__ == "__main__":
    main()
