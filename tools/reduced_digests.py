"""SHA-256 digests of the reduced-graph census, for comparing the graph layer
across versions.

One line per (graph, f): its label, then seven digests. The first covers
enumerate_reduced_graphs' ordered output (each reduced graph's nodes, edges,
removed_in_links and removed_sinks), the second
detectability_report(...).to_dict(), the third structure_constants' chi,
gamma and ordered sources, the fourth the same with the sources sorted, so
that a change of order alone shows in the third and not the fourth, the
fifth check_assumption1's to_dict(), or its precondition message, on a
model where every agent is Bernoulli(0.3) against Bernoulli(0.7), the
sixth check_condition1's verdict and witness (the same fields as the
first), and the seventh check_condition2's verdict and (L, R, C) witness.
Identical agents tie, so the reported source shows the order of the
sources. A pair the enumeration cap refuses prints the error message
instead. The pairs are
the test suite's HAND_CASES and FROZEN, complete graphs K3-K6 with f=1, K5
with f=2, and 40 seeded random digraphs. Run it once per checkout, each time
with that checkout's src/ on the path, and diff:

    PYTHONPATH=src python3 tools/reduced_digests.py > new.txt
    PYTHONPATH=OTHER/src python3 tools/reduced_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RANDOM_SEED = 4242
RANDOM_GRAPHS = 40


def cases():
    """(label, DirectedGraph, f) triples, built from this checkout's tests."""
    sys.path[:0] = [str(ROOT / "tests")]
    from test_graphs import FROZEN, HAND_CASES

    from crashlearn.graphs import DirectedGraph
    for k, (n, edges, f) in enumerate(HAND_CASES):
        yield f"hand{k}-f{f}", DirectedGraph.from_edge_list(n, edges), f
    for k, (build, f, *_) in enumerate(FROZEN):
        yield f"frozen{k}-f{f}", build(), f
    for n, f in [(3, 1), (4, 1), (5, 1), (6, 1), (5, 2)]:
        yield f"K{n}-f{f}", DirectedGraph.complete(n), f
    rng = np.random.default_rng(RANDOM_SEED)
    for k in range(RANDOM_GRAPHS):
        n = int(rng.integers(2, 7))
        p = float(rng.choice([0.3, 0.5, 0.8]))
        f = int(rng.integers(0, 3))
        edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
                 if j != i and rng.random() < p]
        yield f"random{k}-n{n}-f{f}", DirectedGraph.from_edge_list(n, edges), f


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _fields(rg) -> list:
    """A reduced graph's nodes, edges, removed_in_links and removed_sinks."""
    return [sorted(rg.nodes), sorted(rg.edges),
            [[i, sorted(dropped)] for i, dropped in rg.removed_in_links],
            sorted(rg.removed_sinks)]


def digests(g, f) -> tuple[str, ...]:
    from crashlearn.analysis import structure_constants
    from crashlearn.graphs import (BudgetExceededError, check_condition1,
                                   check_condition2, detectability_report,
                                   enumerate_reduced_graphs)
    from crashlearn.observation import (IdentifiabilityPreconditionError,
                                        LikelihoodModel, bernoulli_agent,
                                        check_assumption1)
    try:
        reduced = enumerate_reduced_graphs(g, f)
        report = detectability_report(g, f)
        structure = structure_constants(g, f)
        holds, witness = check_condition1(g, f)
        split_holds, split = check_condition2(g, f)
    except BudgetExceededError as exc:
        return ("refused:", str(exc))
    model = LikelihoodModel(("theta1", "theta2"),
                            *zip(*[bernoulli_agent(0.3, 0.7) for _ in range(g.n)]))
    try:
        identify = check_assumption1(model, g, f).to_dict()
    except IdentifiabilityPreconditionError as exc:
        identify = str(exc)
    census = hashlib.sha256()
    for rg in reduced:
        census.update(json.dumps(_fields(rg)).encode())
        census.update(b"\n")
    sources = [sorted(source) for source in structure.sources]
    return (census.hexdigest(), _digest(report.to_dict()),
            _digest([structure.chi, structure.gamma, sources]),
            _digest([structure.chi, structure.gamma, sorted(sources)]),
            _digest(identify),
            _digest([holds, witness and _fields(witness)]),
            _digest([split_holds, split and [sorted(side) for side in split]]))


def main() -> None:
    for label, g, f in cases():
        print(label, *digests(g, f), flush=True)


if __name__ == "__main__":
    main()
