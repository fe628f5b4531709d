"""Acceptance gate: twelve desk-scale criteria, one pass/fail line each.

Every criterion prints exactly one line CRITERION NN <slug>: PASS|FAIL with
the measured quantities, then asserts. Tolerances are stated inline; exact
set and rational comparisons carry no tolerance at all.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from crashlearn.analysis import (check_lemma1, check_lemma2, check_lemma4,
                                 check_prop1, check_prop2, check_prop3,
                                 check_psi, check_thm2, estimate_pi,
                                 psi_series, structure_constants)
from crashlearn.engine import (AdversarySchedule, CrashEvent,
                               min_final_posterior, run_execution)
from crashlearn.graphs import (DirectedGraph, check_condition1,
                               check_condition2, source_decomposition)
from crashlearn.harness import IdentifiabilityGateError, identifiability_gate
from crashlearn.observation import check_assumption1, bernoulli_agent

from conftest import (make_config, random_link_removal_subgraph,
                      two_hypothesis_model)
from oracles import bayes_log_posterior, completed_at


def report(num, slug, ok, detail):
    print(f"CRITERION {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {slug}: {detail}"


def random_instances(count=504, seed=20240814):
    """Random digraphs at the stated sizes with a feasible fault budget."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        n = int(rng.integers(2, 7))
        p = float(rng.choice([0.3, 0.5, 0.8]))
        edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                 if j != i and rng.random() < p]
        g = DirectedGraph.from_edge_list(n, edges)
        f = int(rng.integers(0, min(2, g.min_in_degree) + 1))
        instances.append((g, f))
    return instances, rng


INSTANCES, _SWEEP_RNG = random_instances()
CONDITION2_RESULTS = {}


def test_criterion_01_condition_equivalence():
    started = time.perf_counter()
    mismatches = 0
    holds = 0
    for g, f in INSTANCES:
        ok1, _ = check_condition1(g, f)
        ok2, _ = check_condition2(g, f)
        CONDITION2_RESULTS[(g, f)] = ok2
        mismatches += ok1 != ok2
        holds += ok2
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and len(INSTANCES) >= 500 and elapsed < 60.0
    report(1, "condition-equivalence", ok,
           f"{len(INSTANCES)} digraphs, {holds} satisfy the condition, "
           f"{mismatches} route mismatches, {elapsed:.1f}s")


def test_criterion_02_sampled_removals_keep_unique_source():
    if not CONDITION2_RESULTS:
        for g, f in INSTANCES:
            CONDITION2_RESULTS[(g, f)] = check_condition2(g, f)[0]
    rng = np.random.default_rng(77)
    violations = 0
    sampled = 0
    positives = 0
    for (g, f), holds in CONDITION2_RESULTS.items():
        if not holds:
            continue
        positives += 1
        for _ in range(50):
            nodes, kept = random_link_removal_subgraph(g, f, rng)
            sampled += 1
            if not source_decomposition(nodes, kept).unique_source:
                violations += 1
    ok = violations == 0 and positives > 0
    report(2, "sampled-subgraphs-unique-source", ok,
           f"{positives} positive instances, {sampled} sampled removal "
           f"patterns, {violations} violations")


def test_criterion_03_disagreement_overlap_and_monotonicity(suite_traces):
    worst = math.inf
    for name, (config, trace) in suite_traces.items():
        result = check_lemma1(trace)
        worst = min(worst, result.worst_margin)
        assert result.passed, (name, result.witness)
    ok = worst >= 0.0
    report(3, "hajnal-and-monotonicity", ok,
           f"5 traces, tolerance 1e-12, worst margin {worst:.3e}")


def test_criterion_04_split_contraction_across_twenty_traces():
    g = DirectedGraph.complete(4)
    triples = 0
    worst = math.inf
    for seed in range(100, 120):
        config = make_config(
            g, 1, iterations=160, seed=seed,
            adversary=AdversarySchedule(
                mode="adversarial_latest",
                crash_plan=(CrashEvent(agent=4, iteration=10,
                                       phase="mid_update", partial_count=1),)))
        trace = run_execution(config)
        result = check_lemma2(trace, n_triples=50, seed=seed)
        triples += 50
        worst = min(worst, result.worst_margin)
        assert result.passed, (seed, result.witness)
    ok = triples >= 1000 and worst >= 0.0
    report(4, "split-contraction", ok,
           f"{triples} sampled triples over 20 traces, tolerance 1e-12, "
           f"worst margin {worst:.3e}")


def test_criterion_05_every_iteration_dominated_by_reduced_graph(suite_traces):
    worst = math.inf
    for name, (config, trace) in suite_traces.items():
        result = check_prop1(trace)
        assert result.passed, (name, result.witness)
        worst = min(worst, result.worst_margin)
    ok = worst >= 0.0
    report(5, "reduced-graph-domination", ok,
           f"5 traces, exact rational weight comparisons, worst slack "
           f"{worst:.3e}")


def test_criterion_06_products_respect_crashes_exactly(suite_traces):
    crash_traces = 0
    worst = math.inf
    for name, (config, trace) in suite_traces.items():
        result = check_prop2(trace)
        assert result.passed, (name, result.witness)
        worst = min(worst, result.worst_margin)
        if config.adversary.crash_plan:
            crash_traces += 1
    ok = crash_traces >= 2 and worst >= 0.0
    report(6, "dead-columns-zero-row-sums-one", ok,
           f"{crash_traces} crash traces among 5, exact zeros, row sums "
           f"within 1e-12, worst margin {worst:.3e}")


def test_criterion_07_window_contraction_bound(suite_traces):
    worst = math.inf
    for name, (config, trace) in suite_traces.items():
        result = check_thm2(trace)
        assert result.passed, (name, result.witness)
        worst = min(worst, result.worst_margin - 1e-12)   # margin carries slack
    ok = worst >= -1e-12
    report(7, "contraction-bound", ok,
           f"5 traces, worst slack {worst:.3e} >= -1e-12")


def test_criterion_08_influence_rows(suite_traces):
    worst_prop3 = math.inf
    worst_mass = math.inf
    for name, (config, trace) in suite_traces.items():
        r3 = check_prop3(trace)
        r4 = check_lemma4(trace)
        assert r3.passed, (name, r3.witness)
        assert r4.passed, (name, r4.witness)
        worst_prop3 = min(worst_prop3, r3.worst_margin)
        worst_mass = min(worst_mass, r4.worst_margin)
    # explicit dead-column statement on the crash-before-transmit trace
    _, crash_trace = suite_traces["crash_pre"]
    est = estimate_pi(crash_trace, r=8)
    dead_zero = est.pi[3] == 0.0 and est.dead_columns_zero
    structure = structure_constants(crash_trace.config.graph,
                                    crash_trace.config.f)
    ok = worst_prop3 >= 0.0 and worst_mass >= 0.0 and dead_zero
    report(8, "influence-row-estimates", ok,
           f"rows agree within bound (margin {worst_prop3:.3e}), crashed "
           f"column exactly zero, source floor margin {worst_mass:.3e} with "
           f"gamma={structure.gamma}")


def test_criterion_09_pseudo_belief_identity(suite_traces):
    from crashlearn.analysis import (log_ratio_vectors,
                                     pseudo_belief_evolution, trace_matrices)
    worst_identity = 0.0
    worst_residual = 0.0
    for name, (config, trace) in suite_traces.items():
        assert check_psi(trace).passed, name
        pseudo = pseudo_belief_evolution(trace)
        for t in range(1, trace.iterations + 1):
            for agent in completed_at(trace, t):
                gap = np.max(np.abs(pseudo[t][agent - 1]
                                    - trace.record(t, agent).log_belief))
                worst_identity = max(worst_identity, float(gap))
        matrices = trace_matrices(trace)
        psi = psi_series(trace, "theta2", "theta1", pseudo=pseudo)
        ratios = log_ratio_vectors(trace, "theta2", "theta1")
        for t in range(1, trace.iterations + 1):
            predicted = matrices[t - 1] @ psi[t - 1] + ratios[t - 1]
            gap = np.max(np.abs(psi[t] - predicted))
            worst_residual = max(worst_residual, float(gap))
    ok = worst_identity <= 1e-9 and worst_residual <= 1e-8
    report(9, "pseudo-belief-identity", ok,
           f"completer identity {worst_identity:.3e} <= 1e-9, recursion "
           f"residual {worst_residual:.3e} <= 1e-8")


def test_criterion_10_single_agent_bayes_oracle():
    config = make_config(DirectedGraph.from_edge_list(1, []), 0,
                         iterations=200, seed=12345)
    trace = run_execution(config)
    model = config.model
    worst = 0.0
    rows = []
    for t in range(1, 201):
        rows.append(model.log_likelihoods(1, trace.record(t, 1).signal))
        oracle = bayes_log_posterior([-math.log(2)] * 2, rows)
        got = trace.record(t, 1).log_belief
        worst = max(worst, float(np.max(np.abs(got - np.array(oracle)))))
    ok = worst <= 1e-10
    report(10, "single-agent-bayes-oracle", ok,
           f"T=200, max deviation {worst:.3e} <= 1e-10")


def _learning_config(seed, model=None, crash=None, iterations=5000):
    return make_config(
        DirectedGraph.complete(4), 1, iterations=iterations, seed=seed,
        model=model,
        adversary=AdversarySchedule(
            mode="adversarial_latest",
            crash_plan=(crash,) if crash else
            (CrashEvent(agent=4, iteration=10, phase="mid_update",
                        partial_count=1),)))


def test_criterion_11_learning_at_scale():
    started = time.perf_counter()
    base = _learning_config(seed=0)
    gate = check_assumption1(base.model, base.graph, base.f)
    assert gate.assumption1_ok
    structure = structure_constants(base.graph, base.f)
    # the exact drift threshold -C1 xi^(n chi) / 2 is ~ -1e-626: a drift y
    # meets it when -2 y / C1 >= xi^(n chi), compared exactly, never in floats
    T = 5000
    converged_seeds = 0
    drift_seeds = 0
    for seed in range(1000, 1100):
        trace = run_execution(dataclasses.replace(base, seed=seed))
        if min_final_posterior(trace) >= 0.99:
            converged_seeds += 1
        final = trace.log_belief[-1]
        star = 0    # theta1 index
        drift_ok = True
        for agent in sorted(trace.final_alive):
            log_ratio = float(final[agent - 1][1] - final[agent - 1][star])
            if not structure.compare_xi_window(
                    -2 * Fraction(log_ratio) / T / Fraction(gate.C1))[0]:
                drift_ok = False
        drift_seeds += drift_ok
    elapsed = time.perf_counter() - started
    ok = converged_seeds >= 95 and drift_seeds >= 90 and elapsed < 300.0
    report(11, "learning-at-scale", ok,
           f"T=5000, 100 seeds: posterior>=0.99 in {converged_seeds} "
           f"(need 95), exact drift bound met in {drift_seeds} (need 90), "
           f"{elapsed:.0f}s")


def test_criterion_12_negative_control_gate_and_failure():
    flat = two_hypothesis_model(
        [bernoulli_agent(0.3, 0.7)] + [bernoulli_agent(0.5, 0.5)] * 3)
    # crash the only informative agent before it ever transmits
    kill_informer = CrashEvent(agent=1, iteration=1, phase="before_transmit")
    config = _learning_config(seed=0, model=flat, crash=kill_informer,
                              iterations=1000)
    refused = False
    try:
        identifiability_gate(config)
    except IdentifiabilityGateError:
        refused = True
    failures = 0
    seeds = range(1000, 1050)
    for seed in seeds:
        trace = run_execution(dataclasses.replace(config, seed=seed))
        final = trace.log_belief[-1]
        best = max(math.exp(final[a - 1][0]) for a in sorted(trace.final_alive))
        if best < 0.99:
            failures += 1
    ok = refused and failures >= len(seeds) // 2
    report(12, "negative-control", ok,
           f"gate refused: {refused}; override runs below 0.99 in "
           f"{failures}/{len(seeds)} seeds (need >= 25); uninformative "
           f"survivors keep the uniform belief")
