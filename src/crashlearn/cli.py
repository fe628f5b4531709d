"""Command-line entry points.

Exit codes: 0 success, 2 configuration or usage error, 3 convergence target
missed, 4 protocol invariant or check violation, 5 identifiability gate
refusal.

Input files are parsed behind graphs.parse_config, by the harness loaders
and read_trace: malformed input raises ConfigError (exit 2), or in a trace
TraceInvariantError (exit 4). main catches only the package's own exceptions
and OSError; any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import DEFAULT_CHECKS, check_names
from .engine import (ConfigError, TraceInvariantError, min_final_posterior,
                     run_execution, validate_trace, write_trace)
from .graphs import (DEFAULT_ENUMERATION_CAP, BudgetExceededError,
                     DirectedGraph, detectability_report)
from .harness import (IdentifiabilityGateError, analyze_trace, load_batch,
                      load_graph, load_model, load_simulation_config,
                      report_metrics, run_batch, write_trajectory_csv)
from .observation import IdentifiabilityPreconditionError, check_assumption1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_INVARIANT = 4
EXIT_GATE = 5


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_checks(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    if not names:
        raise ConfigError("empty check list")
    return check_names(names)


def _cmd_simulate(args) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise ConfigError(f"--threshold {args.threshold} outside (0, 1]")
    config = load_simulation_config(args.config)
    trace = run_execution(config)
    validate_trace(trace)
    if args.out:
        write_trace(trace, args.out)
    if args.csv:
        write_trajectory_csv(trace, args.csv)
    posterior = min_final_posterior(trace)
    converged = posterior >= args.threshold
    _emit({"iterations": trace.iterations,
           "final_alive": sorted(trace.final_alive),
           "min_posterior": posterior,
           "threshold": args.threshold,
           "converged": converged,
           "trace": args.out})
    if args.require_convergence and not converged:
        return EXIT_CONVERGENCE
    return EXIT_OK


def _cmd_analyze(args) -> int:
    report = analyze_trace(args.trace, _parse_checks(args.checks))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
    _emit(report)
    return EXIT_OK if report["all_checks_passed"] else EXIT_INVARIANT


def _cmd_batch(args) -> int:
    if args.min_rate is not None and not 0.0 <= args.min_rate <= 1.0:
        raise ConfigError(f"--min-rate {args.min_rate} outside [0, 1]")
    batch = load_batch(args.config)
    summary = run_batch(batch, override_gate=args.override_gate,
                        write_traces=args.write_traces, out_dir=args.out_dir)
    if args.out_dir:
        report_metrics(summary, args.out_dir)
    payload = summary.to_dict()
    _emit(payload["aggregate"] if args.quiet else payload)
    if not summary.all_checks_passed:
        return EXIT_INVARIANT
    if args.min_rate is not None and summary.convergence_rate < args.min_rate:
        return EXIT_CONVERGENCE
    return EXIT_OK


def _check_fault_budget(graph: DirectedGraph, f: int) -> None:
    if not 0 <= f < graph.n:
        raise ConfigError(f"fault budget {f} outside 0..{graph.n - 1}")


def _cmd_detect(args) -> int:
    graph = load_graph(args.graph)
    _check_fault_budget(graph, args.f)
    report = detectability_report(graph, args.f,
                                  max_candidates=args.max_candidates)
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_identify(args) -> int:
    graph = load_graph(args.graph)
    model = load_model(args.model)
    _check_fault_budget(graph, args.f)
    report = check_assumption1(model, graph, args.f)
    _emit(report.to_dict())
    return EXIT_OK


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashlearn",
        description="Simulate and verify crash-tolerant distributed "
                    "hypothesis testing.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configuration")
    sim.add_argument("--config", required=True, help="simulation config JSON")
    sim.add_argument("--out", help="write the trace as JSON lines")
    sim.add_argument("--csv", help="write the belief trajectory as CSV")
    sim.add_argument("--threshold", type=float, default=0.99)
    sim.add_argument("--require-convergence", action="store_true",
                     help="exit 3 if the threshold is missed")
    sim.set_defaults(handler=_cmd_simulate)

    ana = sub.add_parser("analyze", help="validate and check a stored trace")
    ana.add_argument("--trace", required=True)
    ana.add_argument("--checks",
                     help=f"comma-separated subset of {','.join(DEFAULT_CHECKS)}")
    ana.add_argument("--out", help="also write the report JSON here")
    ana.set_defaults(handler=_cmd_analyze)

    bat = sub.add_parser("batch", help="run a seed sweep")
    bat.add_argument("--config", required=True, help="batch description JSON")
    bat.add_argument("--out-dir", help="directory for reports and traces")
    bat.add_argument("--write-traces", action="store_true")
    bat.add_argument("--override-gate", action="store_true",
                     help="run even when the identifiability gate refuses")
    bat.add_argument("--min-rate", type=float,
                     help="exit 3 if the convergence rate falls below this")
    bat.add_argument("--quiet", action="store_true",
                     help="print only the aggregate block")
    bat.set_defaults(handler=_cmd_batch)

    det = sub.add_parser("detect", help="crash-detectability report of a graph")
    det.add_argument("--graph", required=True, help="graph JSON file")
    det.add_argument("--f", type=int, required=True)
    det.add_argument("--max-candidates", type=_positive_int,
                     default=DEFAULT_ENUMERATION_CAP)
    det.set_defaults(handler=_cmd_detect)

    ide = sub.add_parser("identify",
                         help="identifiability constants of (model, graph, f)")
    ide.add_argument("--graph", required=True)
    ide.add_argument("--model", required=True)
    ide.add_argument("--f", type=int, required=True)
    ide.set_defaults(handler=_cmd_identify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except IdentifiabilityGateError as exc:
        print(f"gate: {exc}", file=sys.stderr)
        return EXIT_GATE
    except TraceInvariantError as exc:
        print(f"invariant: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, IdentifiabilityPreconditionError, BudgetExceededError,
            OSError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
