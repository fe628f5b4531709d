"""crashlearn benchmark: closed-loop workloads driven through the CLI.

One client in one process: each operation is an in-process call of
crashlearn.cli.main([...]) with stdout captured, and starts when the
previous one has ended and been validated. Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-latest --seed 0 --seconds 32 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a run that alternates untraced and traced operations. The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment, the remaining end-to-end figures and the
failed check verdicts. See NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import reference_seconds
from tracing import Tracer
from workloads import WORKLOADS, make_workload, self_check

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_OPS = 3
MIN_TRACED_OPS = 2
REF_SHARE = 0.05    # reference time taken around each op, as a share of it
CHECK_NAMES = ("lemma1", "lemma2", "thm2", "prop1", "prop2", "prop3",
               "lemma4", "psi")
GLUE_SPANS = ("harness.run_batch", "harness.analyze_trace",
              "graphs.detectability_report")
LAYER_SPANS = (
    "engine.run_execution.round_based", "engine.run_execution.event_driven",
    "engine.validate_trace", "engine.write_trace", "engine.read_trace",
    "analysis.trace_matrices", "analysis.pseudo_belief_evolution",
    "analysis.structure_constants", "analysis.run_checks",
    "graphs.enumerate_reduced_graphs", "graphs.source_decomposition",
    "graphs.check_condition1", "graphs.check_condition2",
    "observation.check_assumption1", "harness.identifiability_gate",
    "harness.run_batch", "harness.report_metrics", "harness.analyze_trace")
PER_UNIT_COUNTERS = ("engine.trace_bytes", "graphs.chi",
                     "graphs.link_removal_candidates")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------------

def openblas_threads() -> int | None:
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload_seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_threads": openblas_threads(),
            "workload_seed": workload_seed}


# -- set-up and operations --------------------------------------------------------

def set_up(root: Path, name: str, seed: int, workdir: Path) -> dict:
    """One fresh interpreter importing crashlearn and writing the inputs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_inputs.py"), "--workload", name,
         "--seed", str(seed), "--workdir", str(workdir)],
        env=env, capture_output=True, text=True, timeout=170, check=True)
    wall = time.perf_counter() - start
    return {"setup_s": wall, **json.loads(done.stdout.splitlines()[-1])}


def call_cli(main, argv, tracer=None):
    """(exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = (tracer.call("cli.main", main, argv) if tracer
                    else main(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop keeps running and counts the op as failed
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def tail_percentile(values: list[float]) -> dict:
    """Highest whole percentile with at least ten samples above it, by
    nearest rank; omitted, never replaced by the maximum, when there are
    too few samples for any tail."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n}
    return {"omitted": f"{n} ops; a tail with ten samples beyond it needs "
                       f"at least 20"}


def summarize_failed_checks(failed: list[dict]) -> list[dict]:
    """Group failed verdicts by check and witness, listing the seeds."""
    groups: dict[tuple, dict] = {}
    for item in failed:
        key = (item["check"], json.dumps(item["witness"], sort_keys=True))
        entry = groups.setdefault(key, {"check": item["check"],
                                        "witness": item["witness"], "seeds": []})
        if "seed" in item and item["seed"] not in entry["seeds"]:
            entry["seeds"].append(item["seed"])
    return list(groups.values())


def per_layer(tracer, per_op: int, traced: list[float], untraced: list[float],
              setups: list[dict], probes: dict) -> dict:
    """Per-unit figures of the traced ops (inclusive span time per seed,
    trace or graph), with the accounting of where the op time went."""
    totals = tracer.totals
    units = per_op * len(traced)

    def total(name, field=1):
        return totals.get(name, [0, 0.0, 0.0])[field]

    updates = total("engine.belief_update", 0)
    metrics = {f"{name}_s": total(name) / units for name in LAYER_SPANS}
    metrics["engine.belief_updates"] = updates / units
    metrics["engine.belief_update_us"] = (
        total("engine.belief_update") / updates * 1e6 if updates else 0.0)
    for name in PER_UNIT_COUNTERS:
        metrics[name] = tracer.counters.get(name, 0) / units
    for name in CHECK_NAMES:
        metrics[f"analysis.check.{name}_s"] = probes.get(name, 0.0)
    metrics["cli.self_s"] = total("cli.main", 2) / units
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
    op_total = total("cli.main")
    layer_sum = sum(v[2] for k, v in totals.items() if k not in GLUE_SPANS)
    metrics["op_traced_s"] = op_total / units
    metrics["layer_sum_s"] = layer_sum / units
    metrics["other_s"] = (op_total - layer_sum) / units
    metrics["tracing_overhead_s"] = (statistics.median(traced)
                                     - statistics.median(untraced)) / per_op
    return metrics


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "crashlearn" / "__init__.py").is_file():
        print("run from the root of a crashlearn checkout: src/crashlearn "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    seed = abs(args.seed)
    workload = make_workload(args.workload)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workdir = HERE / "out" / f"{args.workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, root, seed, workload, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, seed, workload, reference, workdir) -> int:
    setups = [set_up(root, args.workload, seed, workdir)
              for _ in range(SETUP_REPEATS)]
    from crashlearn.cli import main as cli_main
    problems = self_check(reference)
    if hasattr(workload, "input_errors"):
        problems += workload.input_errors(workdir, seed, reference)

    tracer = Tracer() if args.trace else None
    durations = {False: [], True: []}        # keyed by "was traced"
    refs = []           # reference seconds before op k (and after the last)
    failures, failed_checks = [], []
    verdicts = verdicts_failed = 0
    loop_start = time.perf_counter()
    op = 0
    while True:
        traced = bool(tracer) and op % 2 == 1
        gc.collect()        # start every op from the same heap state
        last = durations[False][-1] if durations[False] else 0.0
        refs.append(reference_seconds(REF_SHARE * last))
        if traced:
            tracer.op = op
            tracer.install()
        try:
            code, stdout, stderr, seconds = call_cli(
                cli_main, workload.argv(workdir, op), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        durations[traced].append(seconds)
        errors = [f"raised or exited {code}: {stderr.strip()[-400:]}"] \
            if code is None else []
        if not errors:
            try:
                result = workload.validate(workdir, seed, op, code, stdout,
                                           reference)
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                errors = [f"output unreadable: {exc!r}"]
            else:
                errors = result.errors
                verdicts += result.verdicts
                verdicts_failed += result.verdicts_failed
                failed_checks += result.failed_checks
        if errors:
            failures.append({"op": op, "argv": workload.argv(workdir, op),
                             "errors": errors[:5]})
        shutil.rmtree(workdir / f"out_{op}", ignore_errors=True)
        op += 1
        elapsed = time.perf_counter() - loop_start
        all_ops = durations[False] + durations[True]
        enough = len(all_ops) >= MIN_OPS and (
            not tracer or min(len(durations[False]),
                              len(durations[True])) >= MIN_TRACED_OPS)
        if enough and (elapsed + (1 + 2 * REF_SHARE)
                       * statistics.median(all_ops) > args.seconds):
            break
    refs.append(reference_seconds(REF_SHARE * durations[False][-1]))

    untraced, traced_ops = durations[False], durations[True]
    units = workload.units_per_op
    # each untraced op's length in reference lengths: its seconds over the
    # mean of the reference times taken just before and just after it
    lengths = [s / ((refs[k] + refs[k + 1]) / 2) for s, k in zip(
        untraced, (k for k in range(op) if not (tracer and k % 2 == 1)))]
    wall = {
        "op_p50_s": statistics.median(untraced),
        "units_per_s": units * len(untraced) / sum(untraced),
        "ref_p50_s": statistics.median(refs),
    }
    report = {
        "workload": args.workload, "unit": workload.unit,
        "units_per_op": units, "environment": environment(seed),
        "setups": setups, "op_seconds": untraced,
        "traced_op_seconds": traced_ops,
        "reference_seconds": refs,
        "op_tail_s": tail_percentile(untraced),
        "fail_ratio": {"value": len(failures) / op, "failed": len(failures),
                       "attempted": op},
        "check_fail_ratio": {
            "value": verdicts_failed / verdicts if verdicts else 0.0,
            "failed": verdicts_failed, "evaluated": verdicts},
        "failed_checks": summarize_failed_checks(failed_checks),
        "failures": failures, "self_check_problems": problems,
        **{name: {"value": value, "unit": unit_of(name)}
           for name, value in wall.items()},
    }
    if tracer:
        probes = {}
        trace = tracer.captured.get("trace")
        if getattr(workload, "probe_checks", False) and trace is not None:
            from crashlearn.analysis import run_checks
            for name in CHECK_NAMES:
                start = time.perf_counter()
                run_checks(trace, checks=(name,))
                probes[name] = time.perf_counter() - start
        values = per_layer(tracer, units, traced_ops, untraced, setups, probes)
        report["peak_rss_mb"] = peak_rss_mb()
        write_spans(tracer, args, seed)
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_p50_ref": statistics.median(lengths),
            "units_per_kref": 1000 * units * len(lengths) / sum(lengths),
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": op, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


UNITS = {"engine.belief_updates": "count", "engine.belief_update_us": "us",
         "engine.trace_bytes": "bytes", "graphs.chi": "count",
         "graphs.link_removal_candidates": "count", "units_per_s": "1/s",
         "op_p50_ref": "ref", "units_per_kref": "1/kref",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")


def write_spans(tracer, args, seed: int) -> None:
    """Keep the spans of the traced run next to the benchmark's outputs."""
    path = HERE / "out" / f"spans-{args.workload}-{seed}.json"
    path.write_text(json.dumps({
        "columns": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
        "totals": {k: dict(zip(("calls", "total_s", "self_s"), v))
                   for k, v in sorted(tracer.totals.items())},
        "counters": tracer.counters}) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(run(parse_args()))
