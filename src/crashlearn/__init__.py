"""Crash-tolerant distributed hypothesis testing: simulator and analysis."""

from .analysis import (CheckResult, DEFAULT_CHECKS, DriftCheckpoint,
                       DriftDecomposition, PiEstimate, backward_product,
                       decompose_log_ratio_drift, ergodic_coefficients,
                       estimate_pi, expected_ratio_vectors,
                       geometric_tail_constant, geometric_tail_constant_float,
                       log_ratio_vectors, pseudo_belief_evolution, psi_series,
                       run_checks, structure_constants, theorem2_bound,
                       trace_matrices)
from .engine import (AdversarySchedule, AgentRecord, ConfigError, CrashEvent,
                     ExecutionTrace, SimulationConfig, TraceInvariantError,
                     combine_log_beliefs, min_final_posterior,
                     normalize_log_belief, partial_update_belief, read_trace,
                     run_execution, update_belief, validate_trace, write_trace)
from .graphs import (BudgetExceededError, DetectabilityReport, DirectedGraph,
                     EquivalenceViolationError, SourceCensus,
                     SourceDecomposition, check_condition1, check_condition2,
                     detectability_report)
from .harness import (BatchSummary, ExperimentBatch, IdentifiabilityGateError,
                      SeedOutcome, analyze_trace, identifiability_gate,
                      load_batch, load_simulation_config, report_metrics,
                      run_batch, write_trajectory_csv)
from .observation import (IdentifiabilityPreconditionError,
                          IdentifiabilityReport, LikelihoodModel,
                          bernoulli_agent, check_assumption1,
                          check_failure_free_identifiability,
                          compute_log_ratio_bound, expected_log_ratios,
                          kl_divergence)

__version__ = "0.1.0"

__all__ = [
    "AdversarySchedule", "AgentRecord", "BatchSummary", "BudgetExceededError",
    "CheckResult", "ConfigError", "CrashEvent", "DEFAULT_CHECKS",
    "DetectabilityReport", "DirectedGraph", "DriftCheckpoint",
    "DriftDecomposition", "EquivalenceViolationError", "ExecutionTrace",
    "ExperimentBatch", "IdentifiabilityGateError",
    "IdentifiabilityPreconditionError", "IdentifiabilityReport",
    "LikelihoodModel", "PiEstimate", "SeedOutcome", "SimulationConfig",
    "SourceCensus", "SourceDecomposition", "TraceInvariantError",
    "analyze_trace", "backward_product", "bernoulli_agent",
    "check_assumption1", "check_condition1", "check_condition2",
    "check_failure_free_identifiability", "combine_log_beliefs",
    "compute_log_ratio_bound", "decompose_log_ratio_drift",
    "detectability_report", "ergodic_coefficients", "estimate_pi",
    "expected_log_ratios", "expected_ratio_vectors",
    "geometric_tail_constant", "geometric_tail_constant_float",
    "identifiability_gate", "kl_divergence", "load_batch",
    "load_simulation_config", "log_ratio_vectors", "min_final_posterior",
    "normalize_log_belief", "partial_update_belief", "pseudo_belief_evolution",
    "psi_series", "read_trace", "report_metrics", "run_batch", "run_checks",
    "run_execution", "structure_constants", "theorem2_bound", "trace_matrices",
    "update_belief", "validate_trace", "write_trace", "write_trajectory_csv",
]
