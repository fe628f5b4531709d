"""Shared builders and canonical trace fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from crashlearn.engine import (ADVERSARY_MODES, BELIEF_CHUNK, CRASH_PHASES,
                               AdversarySchedule, CrashEvent,
                               SimulationConfig, run_execution)
from crashlearn.graphs import DirectedGraph
from crashlearn.observation import LikelihoodModel, bernoulli_agent


def two_hypothesis_model(rows) -> LikelihoodModel:
    """Agent tables from (signals, table) pairs under labels theta1/theta2."""
    spaces, tables = zip(*rows)
    return LikelihoodModel(("theta1", "theta2"), spaces, tables)


def standard_model(n: int) -> LikelihoodModel:
    """Every agent observes Bernoulli(0.3) under theta1, Bernoulli(0.7) under theta2."""
    return two_hypothesis_model([bernoulli_agent(0.3, 0.7) for _ in range(n)])


def make_config(graph, f, *, iterations, seed, model=None, adversary=None,
                theta_star="theta1") -> SimulationConfig:
    return SimulationConfig(
        graph=graph, f=f,
        model=standard_model(graph.n) if model is None else model,
        theta_star=theta_star, iterations=iterations, seed=seed,
        adversary=adversary or AdversarySchedule())


def random_link_removal_subgraph(g: DirectedGraph, f: int, rng,
                                 ) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Sample one <=f-per-node in-link removal pattern; returns (nodes, kept edges)."""
    kept: set[tuple[int, int]] = set()
    for i in range(1, g.n + 1):
        nbrs = sorted(g.in_neighbors[i])
        k = int(rng.integers(0, min(f, len(nbrs)) + 1))
        dropped = set(rng.choice(nbrs, size=k, replace=False)) if k else set()
        kept.update((j, i) for j in nbrs if j not in dropped)
    return g.nodes, frozenset(kept)


# Likelihood tables over signals (a, b) by number of hypotheses: informative
# and flat agents.
TABLES = {2: ([[0.3, 0.7], [0.7, 0.3]], [[0.5, 0.5], [0.5, 0.5]]),
          3: ([[0.3, 0.7], [0.7, 0.3], [0.45, 0.55]],
              [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])}


@st.composite
def recursion_runs(draw, modes=ADVERSARY_MODES, dmaxes=(3.0,),
                   phases=CRASH_PHASES, min_crashes=0):
    """Configs on graphs of up to 7 agents whose in-degrees are all at
    least f <= 2, with 2 or 3 hypotheses, one of the adversary modes and
    delay bounds given, and min_crashes to f crashes in the phases given.
    Half the runs are longer than two scan chunks, their first crash one
    iteration before, at or after a chunk boundary."""
    n = draw(st.integers(1 + min_crashes, 7))
    f = draw(st.integers(min_crashes, min(2, n - 1)))
    edges = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        if others:
            edges += [(j, i) for j in draw(st.sets(st.sampled_from(others),
                                                   min_size=f))]
    m = draw(st.sampled_from(sorted(TABLES)))
    tables = [np.array(draw(st.sampled_from(TABLES[m]))) for _ in range(n)]
    model = LikelihoodModel(("theta1", "theta2", "theta3")[:m],
                            [("a", "b")] * n, tables)
    long = draw(st.booleans())
    T = draw(st.integers(2 * BELIEF_CHUNK + 1, 2 * BELIEF_CHUNK + 40) if long
             else st.integers(1, 40))
    plan = []
    for k, agent in enumerate(draw(st.lists(st.integers(1, n), unique=True,
                                            min_size=min_crashes, max_size=f))):
        phase = draw(st.sampled_from(phases))
        t = draw(st.integers(BELIEF_CHUNK, BELIEF_CHUNK + 2) if long and k == 0
                 else st.integers(1, T))
        plan.append(CrashEvent(agent, t, phase, draw(st.integers(1, m - 1))
                               if phase == "mid_update" else None))
    return make_config(
        DirectedGraph.from_edge_list(n, edges), f, iterations=T,
        seed=draw(st.integers(0, 2 ** 16)), model=model,
        adversary=AdversarySchedule(mode=draw(st.sampled_from(modes)),
                                    dmax=draw(st.sampled_from(dmaxes)),
                                    crash_plan=tuple(plan)))


def suite_configs() -> dict[str, SimulationConfig]:
    """Five canonical runs spanning the scenario space.

    ring:     3-cycle, no fault budget, zero delays (lockstep rounds)
    crash_mid:  complete-4, f=1, adversarial delivery, mid-update crash
    crash_pre:  complete-4, f=1, random delays, crash before transmitting
    pair:     smallest graph with real averaging, random delays
    solo:     one isolated agent, pure Bayesian accumulation
    """
    g3 = DirectedGraph.cycle(3)
    g4 = DirectedGraph.complete(4)
    g2 = DirectedGraph.from_edge_list(2, [(1, 2), (2, 1)])
    g1 = DirectedGraph.from_edge_list(1, [])
    return {
        "ring": make_config(
            g3, 0, iterations=240, seed=41,
            adversary=AdversarySchedule(mode="fixed", fixed_delays=0.0)),
        "crash_mid": make_config(
            g4, 1, iterations=240, seed=42,
            adversary=AdversarySchedule(
                mode="adversarial_latest",
                crash_plan=(CrashEvent(agent=4, iteration=10,
                                       phase="mid_update", partial_count=1),))),
        "crash_pre": make_config(
            g4, 1, iterations=240, seed=43,
            adversary=AdversarySchedule(
                mode="uniform", dmax=3.0,
                crash_plan=(CrashEvent(agent=4, iteration=7,
                                       phase="before_transmit"),))),
        "pair": make_config(
            g2, 0, iterations=200, seed=44,
            adversary=AdversarySchedule(mode="uniform", dmax=1.0)),
        "solo": make_config(g1, 0, iterations=200, seed=45),
    }


@pytest.fixture(scope="session")
def suite_traces():
    """name -> (config, trace) for the five canonical runs."""
    return {name: (config, run_execution(config))
            for name, config in suite_configs().items()}
