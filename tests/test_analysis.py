"""Matrix reconstruction, contraction machinery, and the trace checks."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crashlearn.analysis import (ANALYTIC_SLACK, DEFAULT_CHECKS,
                                 PSEUDO_IDENTITY_TOLERANCE,
                                 PSI_RESIDUAL_TOLERANCE, _FORWARD_RANGES,
                                 _Shared, _fold_ranges,
                                 backward_product,
                                 check_prop1, decompose_log_ratio_drift,
                                 ergodic_coefficients, estimate_pi,
                                 expected_ratio_vectors,
                                 geometric_tail_constant,
                                 log_ratio_vectors, pseudo_belief_evolution,
                                 psi_series, run_checks, structure_constants,
                                 theorem2_bound, trace_matrices)
from crashlearn.engine import (CRASH_PHASES, AdversarySchedule, CrashEvent,
                               ExecutionTrace, run_execution)
from crashlearn import graphs
from crashlearn.graphs import (DirectedGraph, SourceCensus,
                               enumerate_reduced_graphs, first_dominated_nodes)
from crashlearn.observation import (ROW_SUM_TOLERANCE, check_assumption1,
                                    kl_divergence)

from conftest import make_config, recursion_runs
from oracles import (alive_at_start, backward_product_by_loop, completed_at,
                     drift_by_loops, ergodic_by_pairs,
                     first_dominated_reduction, geometric_tail_by_power,
                     geometric_tail_sum_direct, lemma1_by_loops,
                     lemma2_by_loops, prop1_by_search,
                     prop2_by_loops, product_by_loop, psi_by_loops, quorums_at,
                     thm2_by_loops, xi_window_by_power)


# -- update matrices --------------------------------------------------------------------

def test_matrix_rows_on_lockstep_cycle(suite_traces):
    _, trace = suite_traces["ring"]
    matrix = trace_matrices(trace)[5 - 1]
    assert alive_at_start(trace, 5) == completed_at(trace, 5) == frozenset({1, 2, 3})
    # each agent averages itself with its single in-neighbor
    expected = np.array([[0.5, 0.0, 0.5],
                         [0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5]])
    np.testing.assert_array_equal(matrix, expected)
    assert quorums_at(trace, 5) == {1: (3,), 2: (1,), 3: (2,)}


def test_matrix_unit_row_for_non_completers(suite_traces):
    _, trace = suite_traces["crash_pre"]       # agent 4 dies at t = 7
    matrix = trace_matrices(trace)[9 - 1]
    completers, quorums = completed_at(trace, 9), quorums_at(trace, 9)
    assert 4 not in completers
    np.testing.assert_array_equal(matrix[3], np.eye(4)[3])
    for agent in completers:
        row = matrix[agent - 1]
        assert row.sum() == pytest.approx(1.0, abs=1e-15)
        weight = 1.0 / (len(quorums[agent]) + 1)
        assert row[agent - 1] == pytest.approx(1.0 - len(quorums[agent])
                                               * weight, abs=0.0)


def test_backward_product_conventions(suite_traces):
    _, trace = suite_traces["ring"]
    ms = trace_matrices(trace)
    np.testing.assert_array_equal(backward_product(ms, 3, 4), np.eye(3))
    single = backward_product(ms, 4, 4)
    np.testing.assert_array_equal(single, ms[3])
    triple = backward_product(ms, 6, 4)
    np.testing.assert_allclose(
        triple, ms[5] @ ms[4] @ ms[3],
        rtol=0, atol=1e-16)
    with pytest.raises(ValueError):
        backward_product(ms, 3, 5)
    # every product of row-stochastic updates stays row-stochastic
    np.testing.assert_allclose(backward_product(ms, 40, 1).sum(axis=1), 1.0,
                               rtol=0, atol=1e-12)


@st.composite
def fold_cases(draw):
    """A row-stochastic (T, n, n) stack with exact zeros, and product ranges
    in a drawn order: random ones plus an empty range, a one-step range, the
    whole run and a repeat."""
    n, T = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.random((T, n, n)) * (rng.random((T, n, n)) < 0.6)
    weights[:, range(n), range(n)] += rng.random((T, n)) + 0.01
    matrices = weights / weights.sum(axis=2, keepdims=True)
    starts = st.integers(1, T + 1)
    ranges = draw(st.lists(starts.flatmap(lambda lo: st.tuples(
        st.just(lo), st.integers(lo - 1, T))), max_size=8))
    empty, one = draw(starts), draw(st.integers(1, T))
    ranges += [(empty, empty - 1), (one, one), (1, T)]
    ranges.append(ranges[draw(st.integers(0, len(ranges) - 1))])
    return matrices, draw(st.permutations(ranges))


@settings(max_examples=150, deadline=None)
@given(fold_cases())
def test_fold_ranges_match_one_range_loops_bitwise(case):
    # stepping ranges together forms each product in the order of its own
    # loop, so every product and every fold entry is equal bit for bit
    matrices, ranges = case
    lo, hi = (np.array(ends) for ends in zip(*ranges))
    for backward, loop in ((False, product_by_loop),
                           (True, backward_product_by_loop)):
        products = _fold_ranges(matrices, lo, hi, backward=backward)
        folds = _fold_ranges(matrices, lo, hi, backward=backward, keep=True)
        assert products.shape == (len(ranges),) + matrices.shape[1:]
        for (a, b), product, fold in zip(ranges, products, folds):
            np.testing.assert_array_equal(product, loop(matrices, b, a))
            assert len(fold) == b - a + 2
            for k, entry in enumerate(fold):
                expected = (loop(matrices, b, a + k) if backward
                            else loop(matrices, a + k - 1, a))
                np.testing.assert_array_equal(entry, expected)


def test_crash_iteration_row_is_free():
    # An agent that transmits at its crash iteration t never transmits
    # again, so its column is zero in every later survivor row: no survivor
    # row of a product over [r, T], r <= t, reads its row of the matrices
    # at t, and any stochastic row there leaves those rows byte for byte.
    @settings(max_examples=100, deadline=None)
    @given(recursion_runs(phases=("mid_update", "after_transmit"),
                          min_crashes=1), st.data())
    def check(config, data):
        trace = run_execution(config)
        matrices = trace_matrices(trace)
        crash = data.draw(st.sampled_from(config.adversary.crash_plan))
        t, n = crash.iteration, trace.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        row = rng.random(n) * (rng.random(n) < 0.6)
        row[rng.integers(n)] += 1.0
        changed = matrices.copy()
        changed[t - 1, crash.agent - 1] = row / row.sum()
        lo = sorted({t, *data.draw(st.lists(st.integers(1, t), max_size=3))})
        survivors = sorted(a - 1 for a in trace.final_alive)
        for backward in (False, True):
            before, after = (_fold_ranges(ms, lo, [trace.iterations] * len(lo),
                                          backward=backward)[:, survivors]
                             for ms in (matrices, changed))
            assert before.tobytes() == after.tobytes()

    check()


def test_fold_ranges_refuse_ranges_outside_the_run(suite_traces):
    ms = trace_matrices(suite_traces["ring"][1])
    T = len(ms)
    for lo, hi in ((0, 3), (2, T + 1), (5, 3)):
        with pytest.raises(ValueError, match="product range"):
            _fold_ranges(ms, [1, lo], [T, hi])
    assert _fold_ranges(ms, [T + 1, 1], [T, 0]).shape == (2, 3, 3)


# -- ergodic coefficients ------------------------------------------------------------------

def test_ergodic_coefficients_hand_values():
    matrix = np.array([[0.5, 0.5, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.25, 0.25, 0.5]])
    delta, eta = ergodic_coefficients(matrix, [1, 2, 3])
    assert delta == pytest.approx(0.5)
    # min over pairs of sum of entrywise minima: rows 1 and 2 share only 0.5
    assert eta == pytest.approx(0.5)
    delta_single, eta_single = ergodic_coefficients(matrix, [2])
    assert delta_single == 0.0
    assert eta_single == pytest.approx(1.0)
    delta2, eta2 = ergodic_coefficients(matrix, [1, 3])
    assert delta2 == pytest.approx(0.5)     # column 3 spreads 0.0 vs 0.5
    assert eta2 == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_disagreement_overlap_inequality_property(seed):
    # one minus the overlap always dominates the disagreement
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    matrix = rng.dirichlet(np.ones(k), size=k)
    delta, eta = ergodic_coefficients(matrix, range(1, k + 1))
    assert delta <= 1.0 - eta + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_disagreement_contracts_through_overlap_property(seed):
    # left-multiplying by a matrix with overlap eta shrinks disagreement by
    # 1 - eta (the spread alone is not submultiplicative)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    a = rng.dirichlet(np.ones(k), size=k)
    b = rng.dirichlet(np.ones(k), size=k)
    rows = range(1, k + 1)
    d_ab, _ = ergodic_coefficients(a @ b, rows)
    _, e_a = ergodic_coefficients(a, rows)
    d_b, _ = ergodic_coefficients(b, rows)
    assert d_ab <= (1.0 - e_a) * d_b + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_ergodic_coefficients_of_a_stack_match_each_matrix(seed):
    # one call over a stack with a row mask per matrix gives, bit for bit,
    # the pair-by-pair values of each matrix alone
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 13))
    stack = rng.dirichlet(np.ones(k), size=(6, k))
    masks = rng.random((6, k)) < 0.5
    deltas, etas = ergodic_coefficients(stack, masks)
    for matrix, mask, delta, eta in zip(stack, masks, deltas, etas):
        labels = (np.flatnonzero(mask) + 1).tolist()
        assert (delta, eta) == ergodic_by_pairs(matrix, labels)
        assert ergodic_coefficients(matrix, labels) == (delta, eta)


# -- contraction bounds ----------------------------------------------------------------------

def test_theorem2_bound_on_ring():
    structure = structure_constants(DirectedGraph.cycle(3), 0)
    assert structure.window == 3
    assert structure.xi_window_float == 0.125
    assert structure.compare_xi_window(Fraction(1, 8)) == (True, 0.0)
    # below one full window the bound is vacuous
    assert theorem2_bound(3, 2, structure, 0) == 1.0
    assert theorem2_bound(5, 1, structure, 0) == pytest.approx(7 / 8)
    assert theorem2_bound(12, 1, structure, 0) == pytest.approx((7 / 8) ** 4)
    # the fault budget delays the onset by f windows
    assert theorem2_bound(5, 1, structure, 1) == 1.0


def test_theorem2_bound_monotone_in_t():
    structure = structure_constants(DirectedGraph.cycle(3), 0)
    values = [theorem2_bound(t, 1, structure, 0) for t in range(1, 40)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] < 0.25


def test_geometric_tail_closed_form_matches_direct_sum():
    structure = structure_constants(DirectedGraph.cycle(3), 0)   # xi 1/2, window 3
    tail = geometric_tail_constant(structure, 0)
    assert tail == 24.0
    direct = geometric_tail_sum_direct(0.5, 3, 1, 0)
    assert tail == pytest.approx(direct, rel=1e-9)
    # with a fault budget the vacuous-window prefix lengthens
    tail_f1 = geometric_tail_constant(structure, 1)
    direct_f1 = geometric_tail_sum_direct(0.5, 3, 1, 1)
    assert tail_f1 == pytest.approx(direct_f1, rel=1e-9)


def test_geometric_tail_float_overflow_is_infinite():
    # (1/4) ** 1040 underflows; its reciprocal overflows the float range
    structure = structure_constants(DirectedGraph.complete(4), 1)
    assert (structure.xi, structure.window) == (Fraction(1, 4), 1040)
    assert geometric_tail_constant(structure, 1) == math.inf
    exact, _ = geometric_tail_by_power(Fraction(1, 4), 1040, 1)
    assert exact > 10 ** 600        # exact arithmetic survives


@st.composite
def xi_window_cases(draw):
    """(1 + d, window, x, f) with xi ** window near 2 ** -1024 (the tail's
    overflow), 2 ** -1075 (a double's underflow) or the bits at which the
    comparison stops building the power for a double x, on both sides."""
    base = draw(st.integers(1, 13))
    bits = draw(st.sampled_from((1024, 1075, 1130, 2200))) + draw(st.integers(-60, 60))
    window = (max(1, round(bits / math.log2(base)) + draw(st.integers(-2, 2)))
              if base > 1 else bits)
    floor = Fraction(1, base ** window)
    kind = draw(st.sampled_from(("double", "tiny", "near", "midpoint", "sum", "zero")))
    if kind == "double":
        x = Fraction(draw(st.floats(-2.0, 2.0)))
    elif kind == "tiny":
        x = Fraction(draw(st.integers(-2 ** 53, 2 ** 53)), 2 ** draw(st.integers(1000, 1130)))
    elif kind == "near":
        x = floor * (1 + Fraction(draw(st.integers(-3, 3)), 2 ** draw(st.integers(1, 70))))
    elif kind == "midpoint":
        v = draw(st.floats(0.0, 2.0))
        x = Fraction(v) + Fraction(math.ulp(v)) / 2
    elif kind == "sum":
        x = sum(map(Fraction, draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7))))
    else:
        x = Fraction(0)
    return base, window, x, draw(st.integers(0, 3))


@settings(max_examples=250, deadline=None)
@given(xi_window_cases())
def test_xi_window_comparison_matches_the_power(case):
    base, window, x, f = case
    xi = Fraction(1, base)
    census = SourceCensus(chi=window, gamma=1, sources=(frozenset({1}),),
                          witness=None, xi=xi, window=window)
    clears, rounded = census.compare_xi_window(x)
    expected_clears, expected = xi_window_by_power(xi, window, x)
    # repr tells -0.0 from 0.0, which a report would print
    assert (clears, repr(rounded)) == (expected_clears, repr(expected))
    assert repr(census.xi_window_float) == repr(float(xi ** window))
    assert (repr(geometric_tail_constant(census, f))
            == repr(geometric_tail_by_power(xi, window, f)[1]))


def test_cold_run_checks_on_complete7_never_builds_the_window_power():
    # n * chi is 5,764,850 here, so xi ** window as an exact rational would
    # hold a 16-million-bit integer
    trace = run_execution(make_config(DirectedGraph.complete(7), 1,
                                      iterations=200, seed=1000))
    for cached in vars(graphs).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        report = run_checks(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result["passed"] for result in report.values())
    assert peak < 4_000_000


# -- pseudo-beliefs ------------------------------------------------------------------------

def test_pseudo_beliefs_match_engine_bitwise(suite_traces):
    for name, (config, trace) in suite_traces.items():
        pseudo = pseudo_belief_evolution(trace)
        for t in range(1, trace.iterations + 1):
            for agent in completed_at(trace, t):
                np.testing.assert_array_equal(
                    pseudo[t][agent - 1], trace.record(t, agent).log_belief,
                    err_msg=f"{name}: t={t} agent={agent}")


def test_pseudo_beliefs_carry_non_completers(suite_traces):
    _, trace = suite_traces["crash_pre"]
    pseudo = pseudo_belief_evolution(trace)
    # dead agent 4 keeps its last recorded value forever
    for t in range(8, trace.iterations + 1):
        np.testing.assert_array_equal(pseudo[t][3], pseudo[7][3])


def test_log_ratio_vectors_shapes_and_zeros(suite_traces):
    _, trace = suite_traces["crash_pre"]
    ratios = log_ratio_vectors(trace, "theta2", "theta1")
    expected = expected_ratio_vectors(trace, "theta2", "theta1")
    assert ratios.shape == expected.shape == (240, 4)
    # the crashed agent contributes nothing after its final iteration
    assert np.all(ratios[7:, 3] == 0.0)
    assert np.all(expected[7:, 3] == 0.0)
    kl = kl_divergence(trace.config.model, 1, "theta1", "theta2")
    live = expected[:6, :]
    np.testing.assert_allclose(live, -kl, rtol=1e-12)


def test_psi_series_is_ratio_of_pseudo(suite_traces):
    _, trace = suite_traces["pair"]
    pseudo = pseudo_belief_evolution(trace)
    psi = psi_series(trace, "theta2", "theta1", pseudo=pseudo)
    np.testing.assert_array_equal(psi, pseudo[:, :, 1] - pseudo[:, :, 0])
    assert np.all(psi[-1] < 0.0)      # wrong hypothesis loses


# -- influence estimation ----------------------------------------------------------------

def test_estimate_pi_uniform_on_ring(suite_traces):
    _, trace = suite_traces["ring"]
    est = estimate_pi(trace, r=1)
    # doubly stochastic lockstep updates leave the uniform influence vector
    np.testing.assert_allclose(est.pi, 1 / 3, rtol=0, atol=1e-15)
    assert est.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert est.residual <= est.bound
    assert est.dead_columns_zero
    structure = structure_constants(trace.config.graph, 0)
    assert all(structure.compare_xi_window(Fraction(float(v)))[0] for v in est.pi)


def test_estimate_pi_zero_for_dead_agents(suite_traces):
    _, trace = suite_traces["crash_pre"]
    est = estimate_pi(trace, r=8)      # agent 4 died at t = 7
    assert est.pi[3] == 0.0
    assert est.dead_columns_zero
    assert est.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_shared_pi_estimates_match_estimate_pi_bitwise(suite_traces):
    # On the rings some horizons, r + 30 n, fall below T, so those estimates
    # read a fold over [r, horizon] that no other check shares. The 3-ring
    # has converged by then; the 12-ring has not, so a product one factor
    # short or long differs there.
    ring12 = run_execution(make_config(
        DirectedGraph.cycle(12), 0, iterations=1000, seed=7,
        adversary=AdversarySchedule(mode="fixed", fixed_delays=0.0)))
    for name, trace in [("ring", suite_traces["ring"][1]),
                        ("crash_pre", suite_traces["crash_pre"][1]),
                        ("ring", ring12)]:
        shared = _Shared(trace)
        # the forward folds run_checks steps first
        shared.folds(sorted({key for ranges in _FORWARD_RANGES.values()
                             for key in ranges(trace)}))
        horizons = []
        for est in shared.pi_samples:
            alone = estimate_pi(trace, est.r)
            horizons.append(est.horizon)
            assert est.horizon == alone.horizon
            assert est.reference_row == alone.reference_row
            np.testing.assert_array_equal(est.pi, alone.pi)
            assert est.residual == alone.residual
            assert est.bound == alone.bound
            assert est.dead_columns_zero == alone.dead_columns_zero
        assert (min(horizons) < trace.iterations) == (name == "ring")


def test_estimate_pi_argument_validation(suite_traces):
    _, trace = suite_traces["ring"]
    with pytest.raises(ValueError):
        estimate_pi(trace, r=0)
    with pytest.raises(ValueError):
        estimate_pi(trace, r=5, horizon=4)


# -- trace checks --------------------------------------------------------------------------

def assert_prop1_matches_search(trace):
    """check_prop1's constructed graphs and margin equal the linear search's."""
    graph, f = trace.config.graph, trace.config.f
    reduced = enumerate_reduced_graphs(graph, f)
    for t in range(1, trace.iterations + 1):
        found = first_dominated_reduction(reduced, quorums_at(trace, t))
        assert first_dominated_nodes(graph, f, quorums_at(trace, t)) == (
            None if found is None else found.nodes), t
    failures, worst = prop1_by_search(reduced, trace,
                                      structure_constants(graph, f).xi)
    result = check_prop1(trace)
    assert result.passed is (not failures)
    assert result.worst_margin == (-1.0 if failures else worst)
    if failures:
        assert result.witness == {"iterations_without_dominated_reduction": failures}


def test_all_checks_pass_on_suite(suite_traces):
    for name, (config, trace) in suite_traces.items():
        results = run_checks(trace)
        failed = {k: v for k, v in results.items() if not v["passed"]}
        assert not failed, f"{name}: {failed}"
        assert set(results) == set(DEFAULT_CHECKS)
        assert_prop1_matches_search(trace)


def test_run_checks_subset_and_unknown(suite_traces):
    _, trace = suite_traces["ring"]
    partial = run_checks(trace, checks=("prop2", "psi"))
    assert set(partial) == {"prop2", "psi"}
    with pytest.raises(ValueError):
        run_checks(trace, checks=("lemma9",))


def test_quorum_domination_check_fails_on_engineered_gap():
    # agent 3 transmits at t = 4 and then crashes without updating; its
    # message still enters a quorum, and no single-removal reduced graph can
    # dominate that iteration's support.
    g = DirectedGraph.complete(3)
    delays = {(3, 1): 0.0, (2, 1): 10.0, (1, 2): 0.0, (3, 2): 0.0,
              (1, 3): 0.0, (2, 3): 0.0}
    config = make_config(
        g, 1, iterations=12, seed=2,
        adversary=AdversarySchedule(
            mode="fixed", fixed_delays=delays,
            crash_plan=(CrashEvent(agent=3, iteration=4,
                                   phase="after_transmit"),)))
    trace = run_execution(config)
    result = run_checks(trace, checks=("prop1",))["prop1"]
    assert not result["passed"]
    assert result["witness"]["iterations_without_dominated_reduction"] == [4]
    assert_prop1_matches_search(trace)
    # every other iteration is dominated, so prop2 still holds throughout
    assert run_checks(trace, checks=("prop2",))["prop2"]["passed"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="prop1 fails at the crash iteration when the "
                          "crashing agent transmitted (ROADMAP item 1)")
@pytest.mark.parametrize("phase, partial_count",
                         [("mid_update", 1), ("after_transmit", None)])
def test_prop1_holds_when_a_transmitting_agent_crashes(phase, partial_count):
    config = make_config(
        DirectedGraph.complete(4), 1, iterations=60, seed=1000,
        adversary=AdversarySchedule(
            mode="uniform", dmax=3.0,
            crash_plan=(CrashEvent(4, 10, phase, partial_count),)))
    result = run_checks(run_execution(config), checks=("prop1",))["prop1"]
    assert result["passed"], result["witness"]


def _retraced(trace, **arrays):
    """The trace rebuilt from its own arrays with some of them replaced."""
    fields = dict(phase=trace.phase, quorum=trace.quorum, signal=trace.signal,
                  log_belief=trace.log_belief)
    return ExecutionTrace(trace.config, trace.initial_log_belief,
                          **dict(fields, **arrays))


def test_checks_fail_on_engineered_traces(suite_traces):
    # ring, idle: every agent transmits but never updates before the last
    # iteration, so every matrix but the last is the identity
    _, ring = suite_traces["ring"]
    phase = ring.phase.copy()
    phase[:-1] = CRASH_PHASES.index("after_transmit") + 1
    idle = run_checks(_retraced(ring, phase=phase),
                      checks=("lemma1", "thm2", "prop3", "lemma4"))
    assert all(result["passed"] is False for result in idle.values())
    assert idle["lemma1"]["witness"] == {"t": 1, "rows": "window", "eta": 0.0,
                                         "floor": 0.125, "windows_checked": 80}
    assert {key: idle["thm2"]["witness"][key]
            for key in ("r", "t", "delta")} == {"r": 1, "t": 237, "delta": 1.0}
    assert {key: idle["prop3"]["witness"][key]
            for key in ("r", "horizon", "residual")} == {"r": 1, "horizon": 91,
                                                         "residual": 1.0}
    assert idle["lemma4"]["witness"] == {"r": 1, "pi": [1.0, 0.0, 0.0],
                                         "reason": "no source clears the "
                                                   "threshold"}

    # crash_pre: a survivor hears the agent that died at t = 7
    _, crash = suite_traces["crash_pre"]
    quorum = crash.quorum.copy()
    quorum[20 - 1, 1 - 1, :2] = [2, 4]
    prop2 = run_checks(_retraced(crash, quorum=quorum),
                       checks=("prop2",))["prop2"]
    assert prop2["passed"] is False
    assert prop2["witness"] == {"r": 8, "tau": 20, "i": 1, "j": 4,
                                "value": 1 / 3}

    # crash_pre: one recorded belief off the replay by 1e-6
    log_belief = crash.log_belief.copy()
    log_belief[30 - 1, 2 - 1, 0] += 1e-6
    psi = run_checks(_retraced(crash, log_belief=log_belief),
                     checks=("psi",))["psi"]
    assert psi["passed"] is False
    assert {key: psi["witness"][key] for key in ("t", "agent", "part")} == {
        "t": 30, "agent": 2, "part": "pseudo_identity"}
    assert psi["witness"]["gap"] == pytest.approx(1e-6, rel=1e-9)


def test_lemma1_fails_on_an_idle_window():
    # complete-4 with f=1: the window is 4 * 260 = 1040 iterations and its
    # floor 4^-1040 is 0.0 as a float. Agents 1-3 (agent 4 crashed at t=10)
    # transmit but never update over the window [2081, 3120], so its product
    # is the identity and its overlap exactly 0, below the true floor.
    config = make_config(
        DirectedGraph.complete(4), 1, iterations=5000, seed=1000,
        adversary=AdversarySchedule(
            mode="adversarial_latest",
            crash_plan=(CrashEvent(4, 10, "mid_update", 1),)))
    trace = run_execution(config)
    assert run_checks(trace, checks=("lemma1",))["lemma1"]["passed"]
    phase = trace.phase.copy()
    phase[2081 - 1:3120, :3] = CRASH_PHASES.index("after_transmit") + 1
    lemma1 = run_checks(_retraced(trace, phase=phase),
                        checks=("lemma1",))["lemma1"]
    assert lemma1["passed"] is False
    assert lemma1["witness"] == {"t": 2081, "rows": "window", "eta": 0.0,
                                 "floor": 0.0, "windows_checked": 3}


def test_checks_match_loop_references(suite_traces):
    # every check that multiplies matrices reports, bit for bit, what the
    # loops forming one product at a time report, on passing and failing
    # traces alike
    _, ring = suite_traces["ring"]
    _, crash = suite_traces["crash_pre"]
    phase, quorum = ring.phase.copy(), crash.quorum.copy()
    phase[:-1] = CRASH_PHASES.index("after_transmit") + 1
    quorum[20 - 1, 1 - 1, :2] = [2, 4]
    traces = [trace for _, trace in suite_traces.values()]
    traces += [_retraced(ring, phase=phase), _retraced(crash, quorum=quorum)]
    for trace in traces:
        matrices, model = trace_matrices(trace), trace.config.model
        structure = structure_constants(trace.config.graph, trace.config.f)
        pairs = [(a, b, psi_series(trace, a, b),
                  log_ratio_vectors(trace, a, b))
                 for a, b in itertools.permutations(model.hypotheses, 2)]
        expected = {
            "lemma1": lemma1_by_loops(trace, matrices, structure.window,
                                      structure.xi, ANALYTIC_SLACK),
            "lemma2": lemma2_by_loops(trace, matrices, ANALYTIC_SLACK),
            "thm2": thm2_by_loops(
                trace, matrices,
                lambda t, r: theorem2_bound(t, r, structure, trace.config.f),
                ANALYTIC_SLACK),
            "prop2": prop2_by_loops(trace, matrices, ROW_SUM_TOLERANCE),
            "psi": psi_by_loops(trace, matrices, pseudo_belief_evolution(trace),
                                pairs, (PSEUDO_IDENTITY_TOLERANCE,
                                        PSI_RESIDUAL_TOLERANCE)),
        }
        report = run_checks(trace, checks=tuple(expected))
        for name, (worst, witness) in expected.items():
            assert report[name] == {"passed": worst >= 0.0, "worst_margin": worst,
                                    "witness": witness}, name


def test_each_check_alone_reports_as_in_the_full_run(suite_traces):
    # checks share memoized folds, so a report must not depend on which
    # checks ran before it: alone, in the default order or reversed
    _, ring = suite_traces["ring"]
    _, crash = suite_traces["crash_pre"]
    phase, quorum = ring.phase.copy(), crash.quorum.copy()
    phase[:-1] = CRASH_PHASES.index("after_transmit") + 1
    quorum[20 - 1, 1 - 1, :2] = [2, 4]
    traces = [trace for _, trace in suite_traces.values()]
    traces += [_retraced(ring, phase=phase), _retraced(crash, quorum=quorum)]
    for trace in traces:
        full = run_checks(trace)
        assert run_checks(trace, checks=DEFAULT_CHECKS[::-1]) == full
        for name in DEFAULT_CHECKS:
            assert run_checks(trace, checks=(name,)) == {name: full[name]}, name


def test_checks_report_margins(suite_traces):
    _, trace = suite_traces["crash_mid"]
    results = run_checks(trace)
    for name, payload in results.items():
        assert payload["passed"], name
        assert isinstance(payload["worst_margin"], float)
        assert payload["worst_margin"] >= -1e-12


# -- drift decomposition ---------------------------------------------------------------------

def test_drift_decomposition_on_crash_trace(suite_traces):
    config, trace = suite_traces["crash_mid"]
    rep = check_assumption1(config.model, config.graph, config.f)
    dec = decompose_log_ratio_drift(trace, "theta2", "theta1", rep.C1)
    assert dec.passed
    assert len(dec.checkpoints) == 3
    for cp in dec.checkpoints:
        assert cp.drift <= cp.drift_bound + 1e-9
        assert cp.identity_residual <= 1e-8
        assert abs(cp.slln) <= cp.slln_bound
        assert cp.drift_bound == pytest.approx(
            -rep.C1 * (0.25 ** 1040) * cp.t)    # underflows to -0.0
        assert cp.drift < -1.0                   # the real drift is large


def test_drift_decomposition_solo_agent_is_exact(suite_traces):
    config, trace = suite_traces["solo"]
    kl = kl_divergence(config.model, 1, "theta1", "theta2")
    dec = decompose_log_ratio_drift(trace, "theta2", "theta1", kl,
                                    checkpoints=(100, 200))
    for cp in dec.checkpoints:
        # no averaging: drift is exactly -KL * t and nothing else deviates
        assert cp.drift == pytest.approx(-kl * cp.t, rel=1e-12)
        assert cp.max_fluctuation == 0.0
        assert cp.identity_residual <= 1e-10


def test_drift_decomposition_matches_loop_reference(suite_traces):
    for name, (config, trace) in suite_traces.items():
        args = (trace, "theta2", "theta1")
        dec = decompose_log_ratio_drift(*args, 1.0)
        for cp in dec.checkpoints:
            rows = sorted(alive_at_start(trace, cp.t + 1))
            drift, slln, deviations, residual = drift_by_loops(
                trace_matrices(trace), psi_series(*args), log_ratio_vectors(*args),
                expected_ratio_vectors(*args), cp.t, rows)
            fluctuation = float(np.max(np.abs(deviations[[i - 1 for i in rows]])))
            assert (cp.reference_row, cp.drift, cp.slln, cp.max_fluctuation,
                    cp.identity_residual) == (rows[0], drift, slln, fluctuation,
                                              residual), (name, cp.t)


def test_drift_checkpoint_validation(suite_traces):
    _, trace = suite_traces["solo"]
    with pytest.raises(ValueError):
        decompose_log_ratio_drift(trace, "theta2", "theta1", 1.0,
                                  checkpoints=(0,))
