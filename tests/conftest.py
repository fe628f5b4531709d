"""Shared builders and canonical trace fixtures for the test suite."""

from __future__ import annotations

import pytest

from crashlearn.engine import (AdversarySchedule, CrashEvent,
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
