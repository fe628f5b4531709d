"""Protocol engine: updates, scheduling, crashes, traces, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crashlearn
from crashlearn.analysis import pseudo_belief_evolution
from crashlearn.engine import (ADVERSARY_MODES, BELIEF_CHUNK, CRASH_PHASES,
                               AdversarySchedule, ConfigError, CrashEvent,
                               ExecutionTrace, SimulationConfig,
                               TraceInvariantError, _schedule,
                               belief_recursion, combine_log_beliefs,
                               log_likelihood_rows, log_normalizer,
                               min_final_posterior,
                               normalize_log_belief, partial_update_belief,
                               read_trace, run_execution, update_belief,
                               validate_trace, write_trace)
from crashlearn.graphs import DirectedGraph
from crashlearn.harness import write_trajectory_csv
from crashlearn.observation import LikelihoodModel

from conftest import (make_config, recursion_runs, standard_model,
                      suite_configs)
from oracles import (alive_at_start, bayes_log_posterior,
                     belief_recursion_by_chunks, completed_at,
                     crash_events_observed, heap_schedule, log_belief_before,
                     read_trace_by_lines, step_rows, stepwise_schedule,
                     transmitters_at, write_trace_by_dumps,
                     write_trajectory_csv_by_rows)


# -- belief arithmetic ----------------------------------------------------------------

def test_combine_weights_sum_to_one_exactly():
    current = np.array([-0.5, -1.5])
    others = [np.array([-1.0, -2.0]), np.array([-3.0, -0.1])]
    lik = np.array([-0.2, -0.3])
    out = combine_log_beliefs(current, others, 2, lik)
    expected = (current + others[0] + others[1]) / 3.0 + lik
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
    # quorum of zero keeps the prior untouched up to the likelihood term
    np.testing.assert_array_equal(combine_log_beliefs(current, [], 0, lik),
                                  current + lik)


def test_combine_arity_mismatch():
    with pytest.raises(ValueError):
        combine_log_beliefs(np.zeros(2), [np.zeros(2)], 2, np.zeros(2))


def test_normalize_log_belief():
    out = normalize_log_belief(np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [-math.log(2)] * 2, rtol=0, atol=1e-15)
    assert abs(np.logaddexp.reduce(out)) < 1e-15


def test_update_belief_hand_value():
    model = standard_model(1)
    prior = np.array([-math.log(2)] * 2)
    post = update_belief(prior, [], "a", model, 1, 0)
    # Bayes with likelihoods (.3, .7): posterior (.3, .7)
    np.testing.assert_allclose(np.exp(post), [0.3, 0.7], rtol=1e-15)


def test_partial_update_freezes_suffix():
    model = standard_model(1)
    prior = normalize_log_belief(np.array([-0.3, -2.0]))
    full_unnormalized = combine_log_beliefs(
        prior, [], 0, model.log_likelihoods(1, "a"))
    mixed = partial_update_belief(prior, [], "a", model, 1, 0, 1)
    expected = normalize_log_belief(np.array([full_unnormalized[0], prior[1]]))
    np.testing.assert_array_equal(mixed, expected)
    # partial_count == m reproduces the full update
    np.testing.assert_array_equal(
        partial_update_belief(prior, [], "a", model, 1, 0, 2),
        update_belief(prior, [], "a", model, 1, 0))


@st.composite
def belief_blocks(draw):
    """(k, m) blocks of finite rows with exact ties and entries near -1e3."""
    m = draw(st.integers(2, 12))
    k = draw(st.integers(1, 6))
    value = st.one_of(st.floats(-1001.0, 60.0), st.floats(-1000.5, -999.5),
                      st.sampled_from([0.0, -1e3, -math.log(2)]))
    pool = draw(st.lists(value, min_size=1, max_size=m))
    entry = st.one_of(st.sampled_from(pool), value)
    return np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=k, max_size=k)), dtype=np.float64)


def test_log_normalizer_matches_scipy_bitwise():
    logsumexp = pytest.importorskip("scipy.special").logsumexp

    @settings(max_examples=400, deadline=None)
    @given(belief_blocks())
    def check(block):
        got = log_normalizer(block)[:, 0]
        want = np.array([logsumexp(row) for row in block])
        assert got.tobytes() == want.tobytes()
        normalized = normalize_log_belief(block)
        for row, out in zip(block, normalized):
            assert out.tobytes() == (row - logsumexp(row)).tobytes()
            assert normalize_log_belief(row).tobytes() == out.tobytes()

    check()


@pytest.mark.parametrize("m", [9, 12])
def test_log_normalizer_matches_scipy_on_wide_rows(m):
    # From 8 entries on, numpy's last-axis sum adds in eight interleaved
    # partial sums, so on these rows a left-to-right sum over the columns
    # rounds differently and would break the bitwise agreement.
    logsumexp = pytest.importorskip("scipy.special").logsumexp
    rows = np.random.default_rng(m).normal(0.0, 3.0, (64, m))
    top = rows.max(axis=1, keepdims=True)
    shifted = np.where(rows == top, 0.0, np.exp(rows - top))
    assert (sum(shifted.T) != np.add.reduce(shifted, axis=-1)).any()
    want = np.array([logsumexp(row) for row in rows])
    assert log_normalizer(rows)[:, 0].tobytes() == want.tobytes()


# -- configuration validation -----------------------------------------------------------

def build_directly(config, **overrides):
    return dataclasses.replace(config, **overrides)


def build_from_dict(config, **overrides):
    return SimulationConfig.from_dict({**config.to_dict(), **{
        key: value.to_dict() if isinstance(value, AdversarySchedule) else value
        for key, value in overrides.items()}})


def test_config_validation_rejections():
    # One rule refuses each config with the same message whether it is
    # built in code or read from a payload.
    ok = make_config(DirectedGraph.complete(3), 1, iterations=10, seed=0)
    cases = [
        (dict(f=5),                                    # exceeds min in-degree
         "f=5 outside [0, min in-degree=2]"),
        (dict(f=-1), "f=-1 outside [0, min in-degree=2]"),
        (dict(theta_star="missing"), "theta_star 'missing' not a hypothesis"),
        (dict(iterations=0), "iterations=0 must be >= 1"),
        (dict(adversary=AdversarySchedule(mode="warp")),
         "unknown adversary mode 'warp'"),
        (dict(adversary=AdversarySchedule(dmax=-2.0)),
         "uniform mode needs dmax > 0, got -2.0"),
        (dict(adversary=AdversarySchedule(crash_plan=(
            CrashEvent(1, 2, "before_transmit"),
            CrashEvent(2, 3, "before_transmit")))),   # two crashes, f = 1
         "2 crash events exceed f=1"),
        (dict(adversary=AdversarySchedule(crash_plan=(
            CrashEvent(9, 2, "before_transmit"),))),  # no such agent
         "crash agent 9 outside 1..3"),
        (dict(adversary=AdversarySchedule(crash_plan=(
            CrashEvent(1, 99, "before_transmit"),))),  # beyond the horizon
         "crash iteration 99 outside 1..10"),
        (dict(adversary=AdversarySchedule(crash_plan=(
            CrashEvent(1, 2, "sideways"),))),
         "unknown crash phase 'sideways'"),
        (dict(adversary=AdversarySchedule(crash_plan=(
            CrashEvent(1, 2, "mid_update"),))),       # needs partial_count
         "mid_update partial_count must lie in 1..1, got None"),
        (dict(adversary=AdversarySchedule(crash_plan=(
            CrashEvent(1, 2, "mid_update", partial_count=7),))),
         "mid_update partial_count must lie in 1..1, got 7"),
        (dict(f=2, adversary=AdversarySchedule(crash_plan=(
            CrashEvent(1, 2, "before_transmit"),
            CrashEvent(1, 5, "after_update")))),      # same agent twice
         "crash plan agents must be distinct"),
    ]
    for build in (build_directly, build_from_dict):
        assert build(ok) == ok and hash(build(ok)) == hash(ok)
        for overrides, message in cases:
            with pytest.raises(ConfigError) as err:
                build(ok, **overrides)
            assert str(err.value) == message, (build.__name__, overrides)


def test_config_constructor_holds_integers_to_the_payload_rule():
    # A bool seed would be written to the trace as true, which read_trace
    # refuses, and a float iteration count would reach numpy.
    ok = make_config(DirectedGraph.complete(3), 1, iterations=10, seed=0)
    for build in (build_directly, build_from_dict):
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got True$"):
            build(ok, seed=True)
    with pytest.raises(ConfigError,
                       match=r"^iterations must be an integer, got 10\.0$"):
        build_directly(ok, iterations=10.0)
    # A payload's integral float is read as its integer.
    assert build_from_dict(ok, iterations=10.0).to_dict() == ok.to_dict()


def test_config_round_trip():
    config = suite_configs()["crash_mid"]
    again = SimulationConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()


def test_delay_for_fixed_mapping():
    sched = AdversarySchedule(mode="fixed",
                              fixed_delays={(1, 2): 3.5, (2, 1): 0.25})
    assert sched.delay_for(1, 2) == 3.5
    assert sched.delay_for(2, 1) == 0.25
    with pytest.raises(KeyError):
        sched.delay_for(1, 3)                  # a mapping must cover the edge
    flat = AdversarySchedule(mode="fixed", fixed_delays=1.5)
    assert flat.delay_for(4, 2) == 1.5
    round_trip = AdversarySchedule.from_dict(sched.to_dict())
    assert round_trip.delay_for(1, 2) == 3.5


# -- single-agent exactness ---------------------------------------------------------------

def test_single_agent_matches_batch_bayes():
    config = make_config(DirectedGraph.from_edge_list(1, []), 0,
                         iterations=200, seed=9)
    trace = run_execution(config)
    rows = [config.model.log_likelihoods(1, trace.record(t, 1).signal)
            for t in range(1, 201)]
    oracle = bayes_log_posterior([-math.log(2)] * 2, rows)
    np.testing.assert_allclose(trace.record(200, 1).log_belief, oracle,
                               rtol=0, atol=1e-12)


# -- scheduling paths ----------------------------------------------------------------------

# On this graph the earliest-arrival tie at agent 4 in iteration 2 (agents 1
# and 2, both at time 0) must go to agent 1, the lower label.
TIE_WITNESS = DirectedGraph.from_edge_list(
    4, [(1, 3), (1, 4), (2, 4), (3, 1), (3, 2), (4, 1)])
ZERO_DELAY_RUNS = {
    "crash-free-complete-4": (DirectedGraph.complete(4), ()),
    "tie-witness": (TIE_WITNESS, ()),
    **{f"tie-witness-{phase}": (TIE_WITNESS, (CrashEvent(
        3, 2, phase, 1 if phase == "mid_update" else None),))
       for phase in CRASH_PHASES},
}


@pytest.mark.parametrize("graph, plan", ZERO_DELAY_RUNS.values(),
                         ids=ZERO_DELAY_RUNS)
def test_zero_delay_equals_adversarial_latest(graph, plan):
    base = make_config(graph, 1, iterations=60, seed=17,
                       adversary=AdversarySchedule(mode="fixed", fixed_delays=0.0,
                                                   crash_plan=plan))
    other = dataclasses.replace(
        base, adversary=AdversarySchedule(mode="adversarial_latest",
                                          crash_plan=plan))
    ta, tb = run_execution(base), run_execution(other)
    for name in ("phase", "quorum", "signal", "log_belief"):
        assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes(), name
    # Lockstep: every quorum is the lowest-labeled transmitting in-neighbors.
    for t in range(1, 61):
        heard = sorted(transmitters_at(ta, t))
        for agent, rec in ta.records[t - 1].items():
            if rec.quorum is not None:
                need = len(graph.in_neighbors[agent]) - 1
                assert rec.quorum == tuple(
                    j for j in heard if j in graph.in_neighbors[agent])[:need]


def test_uniform_delays_still_complete_every_iteration():
    config = suite_configs()["crash_pre"]
    trace = run_execution(config)
    validate_trace(trace)
    # crashed agent 4 leaves; 1..3 always complete
    assert trace.final_alive == frozenset({1, 2, 3})
    for t in range(8, 241):
        assert completed_at(trace, t) == frozenset({1, 2, 3})


def test_determinism_bitwise():
    config = suite_configs()["crash_mid"]
    ta, tb = run_execution(config), run_execution(config)
    for t in range(1, config.iterations + 1):
        assert sorted(ta.records[t - 1]) == sorted(tb.records[t - 1])
        for agent in ta.records[t - 1]:
            np.testing.assert_array_equal(ta.record(t, agent).log_belief,
                                          tb.record(t, agent).log_belief)


def test_seed_changes_signals():
    g = DirectedGraph.complete(3)
    a = run_execution(make_config(g, 0, iterations=30, seed=1))
    b = run_execution(make_config(g, 0, iterations=30, seed=2))
    sig_a = [a.record(t, 1).signal for t in range(1, 31)]
    sig_b = [b.record(t, 1).signal for t in range(1, 31)]
    assert sig_a != sig_b


ONE_STEP_TOLERANCE = 1e-12


def assert_one_step_updates(trace) -> None:
    """Every record agrees, within ONE_STEP_TOLERANCE (relative above
    magnitude 1, absolute below), with the one-row update (combine_log_beliefs,
    then for a mid_update crash the partial write) applied to the trace's own
    beliefs of the iteration before; a record without a quorum repeats its
    previous belief exactly. The run's updates are normalized as one block,
    which gives each row the bits the one-row call gives it."""
    model = trace.config.model
    partial = {ev.agent: ev.partial_count
               for ev in trace.config.adversary.crash_plan}
    cells, unnormalized = [], []
    for t in range(1, trace.iterations + 1):
        for agent, rec in trace.records[t - 1].items():
            before = log_belief_before(trace, t, agent)
            if rec.quorum is None:
                assert rec.log_belief.tobytes() == before.tobytes(), \
                    f"t={t} agent={agent}"
                continue
            row = combine_log_beliefs(
                before, [log_belief_before(trace, t, j) for j in rec.quorum],
                len(rec.quorum), model.log_likelihoods(agent, rec.signal))
            if rec.crash_phase == "mid_update":
                row[partial[agent]:] = before[partial[agent]:]
            cells.append((t, agent, rec.log_belief))
            unnormalized.append(row)
    for (t, agent, got), want in zip(cells, normalize_log_belief(
            np.array(unnormalized))):
        assert all(math.isclose(g, w, rel_tol=ONE_STEP_TOLERANCE,
                                abs_tol=ONE_STEP_TOLERANCE)
                   for g, w in zip(got.tolist(), want.tolist())), \
            f"t={t} agent={agent}: {got} != {want}"


@pytest.mark.parametrize("mode", ["adversarial_latest", "uniform"])
def test_mixed_quorum_sizes_and_mid_update_match_per_agent_replay(mode):
    # K4 plus agent 5, which hears everyone and is heard by agent 1: agents
    # 1 and 5 need quorums of 3, agents 2-4 of 2, so each round mixes two
    # quorum sizes, and agent 4's mid_update crash lands in such a round.
    # Both schedulers are checked against the one-row updates.
    edges = [(j, i) for i in range(1, 5) for j in range(1, 5) if i != j]
    edges += [(j, 5) for j in range(1, 5)] + [(5, 1)]
    graph = DirectedGraph.from_edge_list(5, edges)
    table = np.array([[0.3, 0.7], [0.7, 0.3], [0.45, 0.55]])
    model = LikelihoodModel(("theta1", "theta2", "theta3"),
                            [("a", "b")] * 5, [table] * 5)
    crash = CrashEvent(agent=4, iteration=6, phase="mid_update",
                       partial_count=2)
    trace = run_execution(make_config(
        graph, 1, iterations=40, seed=5, model=model,
        adversary=AdversarySchedule(mode=mode, crash_plan=(crash,))))
    validate_trace(trace)
    assert_one_step_updates(trace)
    for t in range(1, trace.iterations + 1):
        assert {len(rec.quorum) for rec in trace.records[t - 1].values()
                if rec.quorum is not None} == {2, 3}
    assert trace.record(6, 4).crash_phase == "mid_update"


def assert_recursion_properties(trace) -> None:
    """The engine's records follow the one-row updates, and the analysis
    replay reproduces them on completers bit for bit."""
    validate_trace(trace)
    assert_one_step_updates(trace)
    pseudo = pseudo_belief_evolution(trace)
    assert (pseudo[1:][trace.completed] == trace.log_belief[trace.completed]).all()


def test_belief_recursion_matches_one_step_updates():
    @settings(max_examples=40, deadline=None)
    @given(recursion_runs())
    def check(config):
        assert_recursion_properties(run_execution(config))

    check()


def test_schedule_matches_heap_simulation_on_uniform_delays():
    # Uniform delays do not tie, so the discrete-event simulation and the
    # ready-time recursion must take the same quorums; the long runs draw
    # delays across a BELIEF_CHUNK boundary.
    @settings(max_examples=40, deadline=None)
    @given(recursion_runs(modes=("uniform",), dmaxes=(0.5, 3.0)))
    def check(config):
        trace = run_execution(config)
        phase, quorum = heap_schedule(config)
        for ours, theirs in ((trace.phase, phase), (trace.quorum, quorum)):
            assert ((ours.dtype, ours.shape, ours.tobytes())
                    == (theirs.dtype, theirs.shape, theirs.tobytes()))

    check()


@st.composite
def tied_runs(draw):
    """recursion_runs in every adversary mode, fixed mode with a delay of 0,
    1 or 2 on each edge, so that delivery times tie often."""
    config = draw(recursion_runs())
    if config.adversary.mode != "fixed":
        return config
    delays = {edge: float(draw(st.integers(0, 2)))
              for edge in sorted(config.graph.edges)}
    return dataclasses.replace(config, adversary=dataclasses.replace(
        config.adversary, fixed_delays=delays))


def test_schedule_matches_stepwise_recursion_with_ties():
    # The heap simulation cannot order tied deliveries by label; the
    # one-iteration-at-a-time recursion pins the tie rule in every mode.
    @settings(max_examples=40, deadline=None)
    @given(tied_runs())
    def check(config):
        for ours, theirs in zip(_schedule(config), stepwise_schedule(config)):
            assert ((ours.dtype, ours.shape, ours.tobytes())
                    == (theirs.dtype, theirs.shape, theirs.tobytes()))

    check()


@pytest.mark.parametrize("mode", ["adversarial_latest", "uniform"])
@pytest.mark.parametrize("crash_at", [BELIEF_CHUNK, BELIEF_CHUNK + 1,
                                      BELIEF_CHUNK + 2],
                         ids=["before-boundary", "at-boundary", "after-boundary"])
def test_belief_recursion_across_chunk_boundaries(mode, crash_at):
    # Iteration BELIEF_CHUNK + 1 opens the second chunk of the crash-free
    # span that starts the run.
    crash = CrashEvent(agent=4, iteration=crash_at, phase="mid_update",
                       partial_count=1)
    assert_recursion_properties(run_execution(make_config(
        DirectedGraph.complete(4), 1, iterations=2 * BELIEF_CHUNK + 20, seed=7,
        adversary=AdversarySchedule(mode=mode, crash_plan=(crash,)))))


def test_belief_recursion_matches_chunk_scans():
    # Byte for byte against one full scan per chunk: the engine's beliefs,
    # the analysis replay's, and the engine's arrays with every chunk
    # holding one quorum row of the run throughout, the first that differs
    # from the row the chunk before held, which puts steady chunks with
    # different quorums into one span.
    @settings(max_examples=100, deadline=None)
    @given(recursion_runs())
    def check(config):
        trace = run_execution(config)
        log_likelihood = log_likelihood_rows(config.model, trace.signal)
        keep = np.zeros(log_likelihood.shape, dtype=bool)
        for ev in config.adversary.crash_plan:
            if ev.partial_count is not None:
                keep[ev.iteration - 1, ev.agent - 1, ev.partial_count:] = True

        def reference(rows, quorum, keep):
            return belief_recursion_by_chunks(
                trace.initial_log_belief, trace.phase, rows, quorum,
                log_likelihood, keep).tobytes()

        assert (trace.log_belief.tobytes()
                == reference(trace.takes_quorum, trace.quorum, keep))
        assert (pseudo_belief_evolution(trace)[1:].tobytes()
                == reference(trace.completed, trace.quorum, None))
        held, row = trace.quorum.copy(), trace.quorum[0]
        cuts = np.flatnonzero((trace.phase[1:] != trace.phase[:-1]).any(axis=1)) + 1
        for lo, hi in zip([0, *cuts], [*cuts, trace.iterations]):
            for a in range(lo, hi, BELIEF_CHUNK):
                row = trace.quorum[np.argmax((trace.quorum != row).any(axis=(1, 2)))]
                held[a:min(a + BELIEF_CHUNK, hi)] = row
        assert (belief_recursion(trace.initial_log_belief, trace.phase,
                                 trace.completed, held, log_likelihood).tobytes()
                == reference(trace.completed, held, None))

    check()


def test_belief_recursion_rebuilds_powers_for_a_new_quorum():
    # One span on complete-4 with f=1: the first chunk takes quorum q1
    # throughout, the second alternates q1 and q2, and the third chunk and
    # the five-iteration tail take q2. The third chunk is steady again but
    # must not reuse q1's powers; the tail reuses q2's.
    T = 3 * BELIEF_CHUNK + 5
    q1 = [[2, 3], [1, 3], [1, 2], [1, 2]]
    q2 = [[3, 4], [3, 4], [2, 4], [2, 3]]
    quorum = np.array([q1] * BELIEF_CHUNK + [q1, q2] * (BELIEF_CHUNK // 2)
                      + [q2] * (BELIEF_CHUNK + 5), dtype=np.int32)
    args = (np.full((4, 2), -math.log(2)), np.zeros((T, 4), dtype=np.int8),
            np.ones((T, 4), dtype=bool), quorum,
            np.log(np.random.default_rng(16).dirichlet([1.0, 1.0], (T, 4))))
    assert (belief_recursion(*args).tobytes()
            == belief_recursion_by_chunks(*args).tobytes())


def test_partial_write_is_a_leaf():
    # A mid_update agent never transmits after its crash iteration t, so no
    # agent reads its belief at t: the run with that crash made
    # after_transmit gives every other agent, and this one before t, the
    # same bytes.
    @settings(max_examples=100, deadline=None)
    @given(recursion_runs(phases=("mid_update",), min_crashes=1))
    def check(config):
        crash, *rest = config.adversary.crash_plan
        sent = dataclasses.replace(crash, phase="after_transmit",
                                   partial_count=None)
        other = dataclasses.replace(config, adversary=dataclasses.replace(
            config.adversary, crash_plan=(sent, *rest)))
        ours, theirs = (run_execution(c).log_belief for c in (config, other))
        same = np.ones(ours.shape[:2], dtype=bool)
        same[crash.iteration - 1:, crash.agent - 1] = False
        assert ours[same].tobytes() == theirs[same].tobytes()

    check()


def test_no_scipy_at_run_time(tmp_path):
    config = dataclasses.replace(suite_configs()["crash_mid"], iterations=50)
    (tmp_path / "sim.json").write_text(json.dumps(config.to_dict()))
    script = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import crashlearn
assert "scipy" not in sys.modules
from crashlearn.cli import main
assert main(["simulate", "--config", "sim.json", "--out", "t.jsonl"]) == 0
assert main(["analyze", "--trace", "t.jsonl"]) == 0
assert "scipy" not in sys.modules
"""
    src = str(Path(crashlearn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- crash semantics -------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["adversarial_latest", "uniform"])
def test_crash_phases_and_alive_sets(mode):
    g = DirectedGraph.complete(4)

    def run_with(phase, partial=None, t_crash=12):
        return run_execution(make_config(
            g, 1, iterations=20, seed=3,
            adversary=AdversarySchedule(
                mode=mode,
                crash_plan=(CrashEvent(4, t_crash, phase, partial),))))

    pre = run_with("before_transmit")
    rec = pre.record(12, 4)
    assert not rec.completed and rec.crash_phase == "before_transmit"
    assert rec.quorum is None and rec.signal is None
    np.testing.assert_array_equal(rec.log_belief, log_belief_before(pre, 12, 4))
    assert 4 in alive_at_start(pre, 12)
    assert 4 not in alive_at_start(pre, 13)
    assert 4 not in transmitters_at(pre, 12)

    sent = run_with("after_transmit")
    rec = sent.record(12, 4)
    assert not rec.completed and rec.crash_phase == "after_transmit"
    assert rec.quorum is None and rec.signal is None
    np.testing.assert_array_equal(rec.log_belief, log_belief_before(sent, 12, 4))
    assert 4 in transmitters_at(sent, 12)    # it sent before dying
    assert 4 not in alive_at_start(sent, 13)

    mid = run_with("mid_update", partial=1)
    rec = mid.record(12, 4)
    assert not rec.completed and rec.crash_phase == "mid_update"
    assert rec.quorum is not None and rec.signal is not None
    assert 4 in transmitters_at(mid, 12)     # transmit happens before the crash
    assert 4 not in alive_at_start(mid, 13)

    post = run_with("after_update")
    rec = post.record(12, 4)
    assert rec.completed and rec.crash_phase == "after_update"
    assert 4 in alive_at_start(post, 12)
    assert 4 not in alive_at_start(post, 13)

    for trace in (pre, sent, mid, post):
        validate_trace(trace)
        assert trace.final_alive == frozenset({1, 2, 3})
        assert crash_events_observed(trace) == (
            (4, 12, trace.record(12, 4).crash_phase),)
        # no quorum ever cites the crashed agent once it stopped transmitting
        for t in range(13, 21):
            for agent in trace.records[t - 1]:
                quorum = trace.record(t, agent).quorum
                if quorum:
                    assert 4 not in quorum


def test_crashed_agent_has_no_records_after_crash():
    trace = run_execution(suite_configs()["crash_pre"])
    assert all(4 not in trace.records[t - 1] for t in range(8, 241))
    assert 4 in trace.records[7 - 1]


def test_alive_after_names_the_next_alive_set(suite_traces):
    # agent 4 crashes in the last iteration, after its update
    last = run_execution(make_config(
        DirectedGraph.complete(4), 1, iterations=12, seed=5,
        adversary=AdversarySchedule(crash_plan=(CrashEvent(4, 12, "after_update"),))))
    traces = [trace for _, trace in suite_traces.values()] + [last]
    # a tampered trace: agent 1 of crash_pre is absent from iteration 21 only
    _, trace = suite_traces["crash_pre"]
    phase = trace.phase.copy()
    phase[20, 0] = -1
    tampered = ExecutionTrace(trace.config, trace.initial_log_belief, phase,
                              trace.quorum, trace.signal, trace.log_belief)
    for trace in traces + [tampered]:
        assert trace.alive_after.shape == (trace.iterations, trace.n)
        for t in range(1, trace.iterations + 1):
            assert (set(np.flatnonzero(trace.alive_after[t - 1]) + 1)
                    == alive_at_start(trace, t + 1)), t
    assert 1 not in alive_at_start(tampered, 21) and 1 in alive_at_start(tampered, 22)
    assert alive_at_start(last, 13) == last.final_alive == frozenset({1, 2, 3})
    with pytest.raises(TraceInvariantError, match="iteration 21 alive set"):
        validate_trace(tampered)


# -- trace serialization and validation --------------------------------------------------------

def test_trace_round_trip_is_byte_identical(tmp_path):
    config = suite_configs()["crash_mid"]
    trace = run_execution(config)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(trace, p1)
    again = read_trace(p1)
    write_trace(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    validate_trace(again)
    assert again.final_alive == trace.final_alive
    for t in range(1, config.iterations + 1):
        for agent in trace.records[t - 1]:
            np.testing.assert_array_equal(trace.record(t, agent).log_belief,
                                          again.record(t, agent).log_belief)


def test_validate_trace_catches_tampering(tmp_path):
    config = suite_configs()["crash_mid"]
    trace = run_execution(config)
    path = tmp_path / "t.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()

    def corrupt(mutate, match):
        # mutate edits rows in file order until it returns True, or "drop"
        # to delete the row it was given.
        rows = [json.loads(line) for line in lines]
        for position, row in enumerate(rows):
            done = mutate(row)
            if done == "drop":
                del rows[position]
            if done:
                break
        out = tmp_path / "bad.jsonl"
        out.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows)
                       + "\n")
        with pytest.raises(TraceInvariantError, match=match):
            validate_trace(read_trace(out))

    def break_normalization(row):
        if row.get("agent") == 1 and row.get("t") == 5:
            row["log_belief"] = [0.0, 0.0]
            return True
        return False

    def break_quorum(row):
        if row.get("agent") == 1 and row.get("t") == 5:
            row["quorum"] = [1, 2]          # self-citation is not a quorum
            return True
        return False

    def break_signal(row):
        if row.get("agent") == 2 and row.get("t") == 3:
            row["signal"] = "zzz"
            return True
        return False

    def non_finite_belief(row):
        if row.get("agent") == 3 and row.get("t") == 4:
            row["log_belief"] = [float("nan"), 0.0]
            return True
        return False

    def belief_of_wrong_length(row):
        if row.get("agent") == 2 and row.get("t") == 6:
            row["log_belief"] = row["log_belief"] + [-50.0]
            return True
        return False

    unnormalized = []

    def two_unnormalized(row):
        # (t=7, agent=3) comes first in the file; (t=8, agent=1) follows
        if (row.get("t"), row.get("agent")) in ((7, 3), (8, 1)):
            row["log_belief"] = [v - 0.5 for v in row["log_belief"]]
            unnormalized.append(row["agent"])
        return len(unnormalized) == 2

    def crash_as(phase, completed):
        # Rewrites the plan along with agent 4's t=10 record, so the plan
        # comparison passes and only the phase rule can object.
        def mutate(row):
            if row["kind"] == "header":
                row["config"]["adversary"]["crash_plan"][0].update(
                    phase=phase,
                    partial_count=1 if phase == "mid_update" else None)
            elif (row["t"], row["agent"]) == (10, 4):
                row.update(crash_phase=phase, completed=completed)
                return True
            return False
        return mutate

    corrupt(break_normalization,
            match=r"^t=5 agent=1: beliefs unnormalized \(logsumexp=6\.931e-01\)$")
    corrupt(break_quorum,
            match=r"^t=5 agent=1: quorum members \[1\] are not in-neighbors$")
    corrupt(break_signal, match=r"^t=3 agent=2: unknown signal 'zzz'$")
    corrupt(non_finite_belief, match=r"^t=4 agent=3: malformed log beliefs$")
    corrupt(belief_of_wrong_length, match=r"^t=6 agent=2: malformed log beliefs$")
    corrupt(two_unnormalized,
            match=r"^t=7 agent=3: beliefs unnormalized \(logsumexp=5\.000e-01\)$")
    for phase in ("before_transmit", "after_transmit"):
        corrupt(crash_as(phase, completed=False),
                match=rf"^t=10 agent=4: {phase} record must not carry "
                      rf"quorum or signal$")
    corrupt(crash_as("after_update", completed=False),
            match=r"^t=10 agent=4: incomplete record needs a crash phase, "
                  r"got after_update$")
    corrupt(crash_as("mid_update", completed=True),
            match=r"^t=10 agent=4: completed record with phase mid_update$")

    def step(t, agent, /, **fields):
        def mutate(row):
            if (row.get("t"), row.get("agent")) == (t, agent):
                row.update(fields)
                return True
            return False
        return mutate

    def drop(t, agent):
        return lambda row: ("drop" if (row.get("t"), row.get("agent"))
                            == (t, agent) else False)

    def header_and_step(plan, t, agent, **fields):
        # Rewrites the crash plan along with one record, so that only the
        # check the test names can object.
        def mutate(row):
            if row["kind"] == "header":
                row["config"]["adversary"]["crash_plan"] = plan
                return False
            return step(t, agent, **fields)(row)
        return mutate

    corrupt(step(5, 1, quorum=[2]), match=r"^t=5 agent=1: quorum size 1 != 2$")
    corrupt(step(5, 1, quorum=[3, 2]),
            match=r"^t=5 agent=1: quorum not strictly increasing$")
    corrupt(step(5, 1, quorum=[2, 2]),
            match=r"^t=5 agent=1: quorum not strictly increasing$")
    corrupt(step(5, 1, quorum=[2, 3, 4]), match=r"^t=5 agent=1: quorum size 3 != 2$")
    corrupt(step(5, 1, quorum=[0, 2]),
            match=r"^t=5 agent=1: quorum members \[0\] are not in-neighbors$")
    corrupt(step(12, 1, quorum=[2, 4]),
            match=r"^t=12 agent=1: quorum members \[4\] did not transmit at t=12$")
    corrupt(step(5, 1, signal=None),
            match=r"^t=5 agent=1: missing quorum or signal$")
    corrupt(step(240, 3, agent=0), match=r"^t=240 agent=0: unknown agent$")
    corrupt(step(3, 2, agent=1),
            match=r"^duplicate record for t=3 agent=1$")
    corrupt(step(240, 3, t=241), match=r"^step iteration 241 out of range$")
    corrupt(drop(1, 1), match=r"^iteration 1 must include every agent$")
    after_transmit = [{"agent": 4, "iteration": 10, "phase": "after_transmit",
                       "partial_count": None}]
    corrupt(header_and_step(after_transmit, 10, 4, crash_phase="after_transmit",
                            quorum=None, signal=None),
            match=r"^t=10 agent=4: belief changed without an update$")
    corrupt(header_and_step([], 10, 4, crash_phase=None, completed=True),
            match=r"^iteration 11 alive set \[1, 2, 3\] != survivors of "
                  r"iteration 10 \[1, 2, 3, 4\]$")
    def record_then_alive_set(row):
        # Two faults: agent 1's quorum at t=50 and agent 3's missing record
        # at t=51. A record comes before the alive set after its iteration.
        if (row.get("t"), row.get("agent")) == (50, 1):
            row["quorum"] = [2]
        return "drop" if (row.get("t"), row.get("agent")) == (51, 3) else False

    corrupt(record_then_alive_set, match=r"^t=50 agent=1: quorum size 1 != 2$")
    late_plan = [{"agent": 4, "iteration": 11, "phase": "mid_update",
                  "partial_count": 1}]
    corrupt(header_and_step(late_plan, 10, 4),
            match=r"^observed crashes \(\(4, 10, 'mid_update'\),\) differ from "
                  r"plan \(\(4, 11, 'mid_update'\),\)$")


def test_read_trace_bounds_iterations_by_step_records(tmp_path):
    # Every iteration has at least n - f step records, so a header claiming
    # T iterations needs T * (n - f) of them before any array is allocated.
    config = suite_configs()["crash_mid"]
    path = tmp_path / "short.jsonl"
    write_trace(run_execution(config), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:301]) + "\n")
    assert 240 <= 300 < 240 * (4 - 1)
    with pytest.raises(TraceInvariantError,
                       match=r"^header claims 240 iterations but the trace "
                             r"has 300 step records$"):
        read_trace(path)


# -- trace file format: the fast writer and reader against the per-record ones ----

# Signal names json.dumps escapes: a quote, a backslash, a control character
# and non-ASCII text.
ESCAPED_SIGNALS = ('say "a"', "back\\slash", "bell\x07", "naïve", "雨",
                   "a", "b")


@st.composite
def escaped_runs(draw):
    """recursion_runs, every agent's two signals renamed from ESCAPED_SIGNALS."""
    config = draw(recursion_runs())
    payload = config.model.to_dict()
    for agent in payload["agents"]:
        agent["signals"] = draw(st.lists(st.sampled_from(ESCAPED_SIGNALS),
                                         min_size=2, max_size=2, unique=True))
    return dataclasses.replace(config, model=LikelihoodModel.from_dict(payload))


def test_records_match_the_step_rows_oracle(suite_traces):
    # records is built from step_blocks, the oracle reads the arrays one
    # cell at a time. The long run spans three BELIEF_CHUNK blocks, with a
    # crash in the second.
    long_run = run_execution(make_config(
        DirectedGraph.complete(4), 1, iterations=2 * BELIEF_CHUNK + 7, seed=5,
        adversary=AdversarySchedule(mode="uniform", dmax=3.0, crash_plan=(
            CrashEvent(2, BELIEF_CHUNK + 3, "after_transmit"),))))
    for trace in [trace for _, trace in suite_traces.values()] + [long_run]:
        got = [(t, agent, rec.completed, rec.crash_phase, rec.signal,
                None if rec.quorum is None else list(rec.quorum),
                rec.log_belief.tolist())
               for t, records in enumerate(trace.records, start=1)
               for agent, rec in records.items()]
        assert got == list(step_rows(trace))


def test_write_trace_matches_json_dumps_per_record(tmp_path):
    # Every adversary mode, crash phase and run length of recursion_runs,
    # the long runs across BELIEF_CHUNK boundaries.
    fast, slow = tmp_path / "fast.jsonl", tmp_path / "dumps.jsonl"

    @settings(max_examples=40, deadline=None)
    @given(escaped_runs())
    def check(config):
        trace = run_execution(config)
        write_trace(trace, fast)
        write_trace_by_dumps(trace, slow)
        assert fast.read_bytes() == slow.read_bytes()

    check()


def test_write_trajectory_csv_matches_csv_writer_per_record(tmp_path):
    # The same runs as the trace writer's property, signal names that need
    # CSV quoting among them.
    fast, slow = tmp_path / "fast.csv", tmp_path / "rows.csv"

    @settings(max_examples=40, deadline=None)
    @given(escaped_runs())
    def check(config):
        trace = run_execution(config)
        write_trajectory_csv(trace, fast)
        write_trajectory_csv_by_rows(trace, slow)
        assert fast.read_bytes() == slow.read_bytes()

    check()


def test_write_trace_spells_non_finite_beliefs_as_json(tmp_path):
    trace = run_execution(dataclasses.replace(suite_configs()["crash_mid"],
                                              iterations=12))
    beliefs = trace.log_belief.copy()
    beliefs[2, 0] = [-np.inf, -0.0]
    beliefs[3, 1] = [np.nan, -0.5]
    beliefs[9, 3] = [np.inf, -np.inf]       # agent 4's mid_update record
    odd = ExecutionTrace(trace.config, trace.initial_log_belief, trace.phase,
                         trace.quorum, trace.signal, beliefs)
    write_trace(odd, tmp_path / "fast.jsonl")
    write_trace_by_dumps(odd, tmp_path / "dumps.jsonl")
    text = (tmp_path / "fast.jsonl").read_text()
    assert text == (tmp_path / "dumps.jsonl").read_text()
    for spelled in ("[-Infinity, -0.0]", "[NaN, -0.5]", "[Infinity, -Infinity]"):
        assert f'"log_belief": {spelled}' in text


def reader_outcome(reader, path):
    """What a reader makes of a file: the exception's type and message, or
    the trace arrays."""
    try:
        trace = reader(path)
    except Exception as exc:        # compared, whatever it is
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (
        trace.initial_log_belief, trace.phase, trace.quorum, trace.signal,
        trace.log_belief)]


# Values put in place of a field: wrong types, bools where ints belong,
# labels and iterations out of range, and some values a record may hold.
REPLACEMENTS = ("5", 5.0, True, False, None, [], [2], [1, True], [2, 10 ** 30],
                {"a": 1}, 0, -1, 3, 10 ** 30, [-0.5, 10 ** 400], ["x", "y"],
                "a", "zzz", "mid_update", "after_update", "step")
FIELDS = ("kind", "t", "agent", "alive", "completed", "quorum", "signal",
          "log_belief", "crash_phase")


def out_of_range(header: dict) -> list:
    """(field, values) pairs of values of a label field's own type that break
    a range rule for the stored trace's T and n: an iteration outside 1..T,
    an agent outside 1..n, a quorum of one label outside 1..n, and a quorum
    of n labels, more than any quorum holds."""
    config = header["config"]
    T, n = config["iterations"], config["graph"]["n"]
    labels = st.sampled_from([-1, 0, n + 1])
    return [("t", st.sampled_from([-1, 0, T + 1])), ("agent", labels),
            ("quorum", st.lists(labels, min_size=1, max_size=1)),
            ("quorum", st.lists(st.integers(1, n), min_size=n, max_size=n))]


# A range fault is its record's only fault, and a fault on an earlier line
# or a duplicate record hides it, so "range" is drawn twice as often.
ACTIONS = ("delete", "duplicate", "replace", "range", "range", "copy", "swap",
           "truncate", "huge", "bool")


@st.composite
def mutated_lines(draw, lines):
    """lines with one to three of: a step field deleted, duplicated or
    replaced; a label field put out of range; a record duplicated; two lines
    swapped; a line truncated; a belief of 10**400; a bool for an int."""
    lines = list(lines)
    ranged = out_of_range(json.loads(lines[0]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        action = draw(st.sampled_from(ACTIONS))
        if action == "copy":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
            continue
        if action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        if action == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, max(0, len(lines[i]) - 1)))]
            continue
        try:
            row = json.loads(lines[i])
        except ValueError:
            continue        # an earlier truncation put this line here
        if not isinstance(row, dict) or row.get("kind") != "step" or not all(
                field in row for field in FIELDS):
            continue        # an earlier mutation or swap put this line here
        field = draw(st.sampled_from(FIELDS))
        if action == "delete":
            del row[field]
        elif action == "duplicate":
            text = json.dumps(row, sort_keys=True)
            lines[i] = f"{{{json.dumps(field)}: {json.dumps(row[field])}, {text[1:]}"
            continue
        elif action == "replace":
            row[field] = draw(st.sampled_from(REPLACEMENTS))
        elif action == "range":
            field, values = draw(st.sampled_from(ranged))
            row[field] = draw(values)
        elif action == "huge":
            if type(row["log_belief"]) is not list or not row["log_belief"]:
                continue
            row["log_belief"][draw(st.integers(0, len(row["log_belief"]) - 1))] = (
                draw(st.sampled_from([10 ** 400, -10 ** 400])))
        else:
            target, value = draw(st.sampled_from(["t", "agent", "quorum"])), draw(
                st.booleans())
            if target != "quorum":
                row[target] = value
            elif type(row["quorum"]) is list and row["quorum"]:
                row["quorum"][0] = value
        lines[i] = json.dumps(row, sort_keys=True)
    return lines


@pytest.fixture(scope="module")
def written_traces(tmp_path_factory):
    """The lines of three stored traces: two short ones, "mid" and "pre",
    and "long", whose step lines span two of read_trace's blocks."""
    directory = tmp_path_factory.mktemp("written")
    configs = suite_configs()
    long = dataclasses.replace(
        configs["crash_pre"], iterations=BELIEF_CHUNK + 20,
        adversary=AdversarySchedule(mode="uniform", dmax=3.0, crash_plan=(
            CrashEvent(4, BELIEF_CHUNK + 2, "after_transmit"),)))
    out = {}
    for name, config in (
            ("mid", dataclasses.replace(configs["crash_mid"], iterations=30)),
            ("pre", dataclasses.replace(configs["crash_pre"], iterations=30)),
            ("long", long)):
        write_trace(run_execution(config), directory / f"{name}.jsonl")
        out[name] = (directory / f"{name}.jsonl").read_text().splitlines()
    return out


def test_read_trace_reports_as_the_per_record_reader(written_traces, tmp_path):
    path = tmp_path / "mutated.jsonl"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        lines = written_traces[data.draw(st.sampled_from(["mid", "pre"]))]
        path.write_text("\n".join(data.draw(mutated_lines(lines))) + "\n")
        assert reader_outcome(read_trace, path) == reader_outcome(
            read_trace_by_lines, path)

    check()


def test_read_trace_orders_faults_across_blocks(written_traces, tmp_path):
    # The long trace's step lines span two blocks: a fault in the second
    # block must still beat a belief beyond float range in the first, and a
    # record in the second block may repeat one of the first.
    lines = written_traces["long"]
    last = len(lines) - 1
    assert last > BELIEF_CHUNK * 4 + 1

    def outcome(edits):
        mutated = list(lines)
        for index, edit in edits.items():
            row = json.loads(lines[index])
            edit(row)
            mutated[index] = json.dumps(row, sort_keys=True)
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(mutated) + "\n")
        ours = reader_outcome(read_trace, path)
        assert ours == reader_outcome(read_trace_by_lines, path)
        return ours

    def huge(row):
        row["log_belief"][0] = 10 ** 400

    def retype_t(row):
        row["t"] = "late"

    def repeat_line_2(row):
        first = json.loads(lines[1])
        row["t"], row["agent"] = first["t"], first["agent"]

    assert outcome({5: huge}) == (
        TraceInvariantError, "malformed log beliefs (int too large to convert to float)")
    assert outcome({5: huge, last: retype_t}) == (
        TraceInvariantError, f"line {last + 1}: malformed fields ['t']")
    assert outcome({last: repeat_line_2}) == (
        TraceInvariantError, "duplicate record for t=1 agent=1")
    assert outcome({last - 1: repeat_line_2, last: retype_t}) == (
        TraceInvariantError, "duplicate record for t=1 agent=1")


def test_convergence_helpers():
    import dataclasses
    config = dataclasses.replace(suite_configs()["pair"], iterations=20)
    trace = run_execution(config)
    value = min_final_posterior(trace)
    assert 0.0 < value < 1.0      # short horizon: not yet saturated
