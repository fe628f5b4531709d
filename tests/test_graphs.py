"""Topology layer: reduced-graph enumeration, source structure, conditions."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crashlearn import graphs
from crashlearn.analysis import structure_constants
from crashlearn.graphs import (BudgetExceededError, DirectedGraph,
                               check_condition1, check_condition2,
                               detectability_report, enumerate_reduced_graphs,
                               source_decomposition)
from crashlearn.harness import load_graph
from crashlearn.observation import (IdentifiabilityPreconditionError,
                                    check_assumption1)

from conftest import random_link_removal_subgraph, standard_model
from oracles import (brute_condition1, brute_condition2, brute_first_removals,
                     brute_gamma, brute_reduced_graphs, census_by_scan,
                     components_and_sources, condition1_by_scan)


def random_graph(rng, n, p):
    edges = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1)
             if j != i and rng.random() < p]
    return DirectedGraph.from_edge_list(n, edges)


def link_removal_candidates(g, f):
    return math.prod(sum(math.comb(d, k) for k in range(min(f, d) + 1))
                     for d in g.in_degree.tolist())


# -- construction and serialization -------------------------------------------------

def test_rejects_self_loops_and_bad_nodes():
    with pytest.raises(ValueError):
        DirectedGraph.from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        DirectedGraph.from_edge_list(3, [(0, 1)])
    with pytest.raises(ValueError):
        DirectedGraph.from_edge_list(3, [(1, 4)])
    with pytest.raises(ValueError):
        DirectedGraph.from_edge_list(0, [])


def test_from_dict_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        DirectedGraph.from_dict({"n": 3, "edges": [[1, 2], [1, 2]]})


def test_json_round_trip(tmp_path):
    g = DirectedGraph.from_edge_list(4, [(1, 2), (2, 3), (3, 1), (4, 1)])
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(g.to_dict()))
    assert load_graph(path) == g
    assert load_graph(path).to_dict() == g.to_dict()


def test_degree_accessors():
    g = DirectedGraph.from_edge_list(3, [(1, 2), (3, 2), (2, 3)])
    assert g.in_neighbors[2] == {1, 3}
    assert g.out_neighbors[2] == {3}
    assert g.in_neighbors[1] == frozenset()
    assert g.max_in_degree == 2
    assert g.min_in_degree == 0
    assert g.influence_floor() == Fraction(1, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_in_link_table_matches_in_neighbors(n, p, seed):
    g = random_graph(np.random.default_rng(seed), n, p)
    for i in range(1, n + 1):
        assert set((np.flatnonzero(g.in_links[i - 1]) + 1).tolist()) == g.in_neighbors[i]
        assert g.in_degree[i - 1] == len(g.in_neighbors[i])
    assert g.in_links.dtype == bool and g.in_links.shape == (n, n)
    with pytest.raises(ValueError):
        g.in_links[0, 0] = True
    with pytest.raises(ValueError):
        g.in_degree[0] = 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_neighbor_sets_match_the_edges(n, p, seed):
    # Both sets are read from in_links; here they are rebuilt from the edges.
    g = random_graph(np.random.default_rng(seed), n, p)
    assert g.in_neighbors == {i: frozenset(j for j, k in g.edges if k == i)
                              for i in range(1, n + 1)}
    assert g.out_neighbors == {j: frozenset(i for k, i in g.edges if k == j)
                               for j in range(1, n + 1)}


def test_source_decomposition_condensation():
    g = DirectedGraph.from_edge_list(5, [(1, 2), (2, 1), (2, 3), (3, 4),
                                         (4, 3), (4, 5)])
    dec = source_decomposition(g.nodes, g.edges)
    assert sorted(sorted(c) for c in dec.components) == [[1, 2], [3, 4], [5]]
    assert dec.source_components == (frozenset({1, 2}),)
    assert not dec.unique_source or len(dec.source_components) == 1


# -- frozen structural constants -----------------------------------------------------

FROZEN = [
    # graph builder, f, chi, gamma, xi, both conditions hold
    (lambda: DirectedGraph.cycle(3), 0, 1, 3, Fraction(1, 2), True),
    (lambda: DirectedGraph.cycle(4), 0, 1, 4, Fraction(1, 2), True),
    (lambda: DirectedGraph.complete(3), 1, 30, 2, Fraction(1, 3), True),
    (lambda: DirectedGraph.complete(4), 1, 260, 3, Fraction(1, 4), True),
    (lambda: DirectedGraph.from_edge_list(2, [(1, 2), (2, 1)]), 0,
     1, 2, Fraction(1, 2), True),
    (lambda: DirectedGraph.from_edge_list(1, []), 0, 1, 1, Fraction(1, 1), True),
    (lambda: DirectedGraph.cycle(3), 1, 14, 1, Fraction(1, 2), False),
]


@pytest.mark.parametrize("build,f,chi,gamma,xi,holds", FROZEN)
def test_frozen_detectability_constants(build, f, chi, gamma, xi, holds):
    rep = detectability_report(build(), f)
    assert rep.chi == chi
    assert rep.gamma == gamma
    assert rep.xi == xi
    assert rep.condition1_holds is holds
    assert rep.condition2_holds is holds
    if not holds:
        assert rep.witness is not None


def test_complete5_f2_chi():
    # heaviest hand case the enumerator should still manage quickly
    rep = detectability_report(DirectedGraph.complete(5), 2)
    assert rep.chi == 162341
    assert rep.gamma == 3
    assert rep.condition1_holds and rep.condition2_holds


def test_complete7_f1_chi():
    # 7^7 link-removal candidates, all distinct, plus one graph per node
    # that every other node cut off and that is then deleted as a sink
    rep = detectability_report(DirectedGraph.complete(7), 1)
    assert rep.chi == 823550
    assert rep.gamma == 6
    assert rep.condition1_holds and rep.condition2_holds


# -- oracle cross-checks ---------------------------------------------------------------

HAND_CASES = [
    (3, [(1, 2), (2, 3), (3, 1)], 0),
    (3, [(1, 2), (2, 3), (3, 1)], 1),
    (3, [(1, 2), (2, 1), (3, 1), (2, 3), (3, 2), (1, 3)], 1),
    (3, [(1, 2), (2, 3)], 0),
    (3, [(1, 2), (2, 3)], 1),
    (4, [(1, 2), (2, 1), (3, 4), (4, 3)], 0),
    (4, [(2, 1), (3, 1), (4, 1)], 1),
    (4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)], 1),
]


@pytest.mark.parametrize("n,edges,f", HAND_CASES)
def test_reduced_graphs_match_brute_force(n, edges, f):
    g = DirectedGraph.from_edge_list(n, edges)
    got = {(r.nodes, r.edges) for r in enumerate_reduced_graphs(g, f)}
    assert got == brute_reduced_graphs(n, edges, f)


@pytest.mark.parametrize("n,edges,f", HAND_CASES)
def test_conditions_match_brute_force(n, edges, f):
    g = DirectedGraph.from_edge_list(n, edges)
    assert check_condition1(g, f)[0] == brute_condition1(n, edges, f)
    assert check_condition2(g, f)[0] == brute_condition2(n, edges, f)


def test_gamma_matches_brute_force():
    for n, edges, f in HAND_CASES:
        g = DirectedGraph.from_edge_list(n, edges)
        rep = detectability_report(g, f)
        assert rep.gamma == brute_gamma(n, edges, f)


def assert_two_source_witness(g, f, witness):
    """A failing (g, f)'s witness is one of its reduced graphs, with the
    removal metadata of the first pattern that produces it and no sink
    deleted, and has two or more sources; the census and check_condition1
    return the same graph."""
    first = brute_first_removals(g.n, sorted(g.edges), f)
    assert (witness.base, witness.f, witness.removed_sinks) == (g, f, frozenset())
    assert first[witness.key] == (dict(witness.removed_in_links), frozenset())
    assert len(components_and_sources(witness.nodes, witness.edges)[1]) >= 2
    assert graphs.source_census(g, f).witness == witness == check_condition1(g, f)[1]


# HAND_CASES index -> condition 1's witness: its kept edges and the in-links
# each node drops (no sinks are removed)
CONDITION1_WITNESSES = {
    1: ([(2, 3)], {1: {3}, 2: {1}, 3: set()}),
    4: ([(2, 3)], {1: set(), 2: {1}, 3: set()}),
    5: ([(1, 2), (2, 1), (3, 4), (4, 3)], {1: set(), 2: set(), 3: set(), 4: set()}),
    6: ([(2, 1), (3, 1), (4, 1)], {1: set(), 2: set(), 3: set(), 4: set()}),
    7: ([(1, 3), (2, 3), (2, 4), (3, 4)], {1: {4}, 2: {1}, 3: set(), 4: set()}),
}


@pytest.mark.parametrize("k", range(len(HAND_CASES)))
def test_condition1_witness(k):
    # the first two disjoint sources in canonical order, each cut off from
    # the rest of the graph
    n, edges, f = HAND_CASES[k]
    g = DirectedGraph.from_edge_list(n, edges)
    if k == 1:
        assert g == DirectedGraph.cycle(3)
    holds, witness = check_condition1(g, f)
    if k not in CONDITION1_WITNESSES:
        assert holds and witness is None
        return
    kept, dropped = CONDITION1_WITNESSES[k]
    assert not holds
    assert witness == graphs.ReducedGraph(
        base=g, f=f,
        removed_in_links=tuple((i, frozenset(dropped[i])) for i in sorted(dropped)),
        removed_sinks=frozenset(), nodes=g.nodes, edges=frozenset(kept))
    assert_two_source_witness(g, f, witness)


@pytest.mark.parametrize("n,edges,f,witness,dropped,sinks", [
    (3, [(1, 2), (2, 3), (3, 1)], 1, {"nodes": [1, 2, 3], "edges": [[2, 3]]},
     {1: {3}, 2: {1}, 3: set()}, set()),
    (4, [(2, 1), (3, 1), (4, 1)], 1,
     {"nodes": [1, 2, 3, 4], "edges": [[2, 1], [3, 1], [4, 1]]},
     {1: set(), 2: set(), 3: set(), 4: set()}, set()),
    (4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)], 1,
     {"nodes": [1, 2, 3, 4], "edges": [[1, 3], [2, 3], [2, 4], [3, 4]]},
     {1: {4}, 2: {1}, 3: set(), 4: set()}, set()),
])
def test_failing_report_witness(n, edges, f, witness, dropped, sinks):
    g = DirectedGraph.from_edge_list(n, edges)
    rep = detectability_report(g, f)
    assert rep.to_dict()["witness"] == witness
    assert dict(rep.witness.removed_in_links) == {i: frozenset(s)
                                                  for i, s in dropped.items()}
    assert rep.witness.removed_sinks == frozenset(sinks)
    assert_two_source_witness(g, f, rep.witness)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_report_matches_literal_route(data):
    n = data.draw(st.integers(2, 5))
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs))))
    f = data.draw(st.integers(0, 2))
    g = DirectedGraph.from_edge_list(n, edges)
    assume(link_removal_candidates(g, f) <= 3000)
    reduced = enumerate_reduced_graphs(g, f)
    assert list(reduced) == sorted(reduced,
                                   key=lambda r: (sorted(r.nodes), sorted(r.edges)))
    assert {r.key: (dict(r.removed_in_links), r.removed_sinks)
            for r in reduced} == brute_first_removals(n, edges, f)
    decomps = [r.source_decomposition() for r in reduced]
    failing = [(r, d) for r, d in zip(reduced, decomps) if not d.unique_source]
    # canonical order: by size, then by sorted members
    sources = sorted({c for d in decomps for c in d.source_components},
                     key=lambda c: (len(c), sorted(c)))
    gamma = len(sources[0])
    rep = detectability_report(g, f)
    assert rep.chi == len(reduced) == len(brute_reduced_graphs(n, edges, f))
    assert rep.gamma == brute_gamma(n, edges, f) == gamma
    assert rep.condition1_holds is (not failing)
    assert (rep.witness is None) is (not failing)
    structure = structure_constants(g, f)
    assert (structure.chi, structure.gamma, list(structure.sources)) == (
        len(reduced), gamma, sources)
    model = standard_model(n)
    if failing:
        assert_two_source_witness(g, f, rep.witness)
        assert rep.witness in reduced
        decomp = rep.witness.source_decomposition()
        with pytest.raises(IdentifiabilityPreconditionError, match=re.escape(
                f"reduced graph on nodes {sorted(rep.witness.nodes)} has "
                f"{len(decomp.source_components)} source components")):
            check_assumption1(model, g, f)
    else:
        # identical agents tie on every smallest source; the first in
        # canonical order is reported
        assert check_assumption1(model, g, f).worst_pair_and_source[2] == sources[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_forms_match_the_scans(seed):
    # chi, the sources, gamma, condition 1 and its witness come from closed
    # forms; the scans read the first four off every reduced graph and every
    # maximal pattern. n, the density and f are drawn from the seed,
    # uniformly; a drawn f is lowered while the scans would take more than
    # 20,000 candidates.
    rng = np.random.default_rng(seed)
    n, density, f = int(rng.integers(2, 7)), rng.uniform(0.3, 0.9), int(rng.integers(0, 3))
    g = random_graph(rng, n, density)
    while link_removal_candidates(g, f) > 20_000:
        f -= 1
    census = graphs.source_census(g, f)
    chi, sources, fails = census_by_scan(g, f)
    assert (census.chi, census.sources, census.gamma) == (chi, sources, len(sources[0]))
    holds, witness = check_condition1(g, f)
    assert holds is condition1_by_scan(g, f) is (not fails) is (witness is None)
    if witness is not None:
        assert_two_source_witness(g, f, witness)


def test_census_lists_sources_only_found_beside_others():
    # the path 1 -> 2 -> 3 with f=1: node 3 is a source only where it has
    # dropped its in-link and so stands beside another source
    n, edges, f = HAND_CASES[4]
    g = DirectedGraph.from_edge_list(n, edges)
    decomps = [r.source_decomposition() for r in enumerate_reduced_graphs(g, f)]
    alone = {d.source_components[0] for d in decomps if d.unique_source}
    beside = {c for d in decomps for c in d.source_components} - alone
    assert alone and beside == {frozenset({3})}
    assert set(graphs.source_census(g, f).sources) == alone | beside


def test_random_instances_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n, float(rng.choice([0.3, 0.5, 0.8])))
        f = int(rng.integers(0, 3))
        edges = sorted(g.edges)
        assert check_condition1(g, f)[0] == brute_condition1(n, edges, f)
        assert check_condition2(g, f)[0] == brute_condition2(n, edges, f)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_condition_equivalence_property(data):
    n = data.draw(st.integers(2, 5))
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    f = data.draw(st.integers(0, 2))
    g = DirectedGraph.from_edge_list(n, edges)
    assert check_condition1(g, f)[0] == check_condition2(g, f)[0]


# -- sampling and budgets ----------------------------------------------------------------

def test_sampled_subgraphs_respect_removal_budget():
    g = DirectedGraph.complete(4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        nodes, kept = random_link_removal_subgraph(g, 1, rng)
        assert nodes == g.nodes
        for i in g.nodes:
            removed = len(g.in_neighbors[i]) - sum(1 for j, k in kept if k == i)
            assert 0 <= removed <= 1
        # every sampled pattern is one of the enumerated reduced graphs
        assert any(r.nodes == nodes and r.edges == kept
                   for r in enumerate_reduced_graphs(g, 1))


def test_sampling_is_seed_deterministic():
    g = DirectedGraph.complete(4)
    a = [random_link_removal_subgraph(g, 2, np.random.default_rng(3))
         for _ in range(5)]
    b = [random_link_removal_subgraph(g, 2, np.random.default_rng(3))
         for _ in range(5)]
    assert a == b


# Two disjoint K4s: condition 1 fails for every f, and with f=1 there are
# 4^8 = 65,536 link-removal candidates.
TWO_CLIQUES = DirectedGraph.from_edge_list(
    8, [(j, i) for block in (range(1, 5), range(5, 9))
        for j in block for i in block if j != i])


def test_enumeration_budget_raises():
    with pytest.raises(BudgetExceededError,
                       match="65536 link-removal candidates exceed the cap 1000"):
        enumerate_reduced_graphs(TWO_CLIQUES, 1, max_candidates=1000)


def test_census_answers_above_the_enumeration_cap():
    # the census of a failing graph enumerates nothing, and a cached census
    # leaves the enumeration's cap in force
    census = graphs.source_census(TWO_CLIQUES, 1)
    assert (census.chi, census.gamma) == (67_584, 3)
    assert [sorted(c) for c in census.witness.source_decomposition().source_components] == [
        [1, 2, 3], [5, 6, 7]]
    with pytest.raises(BudgetExceededError):
        enumerate_reduced_graphs(TWO_CLIQUES, 1, max_candidates=1000)


def test_report_refuses_partition_scan_before_census(monkeypatch):
    def census(*args):
        raise AssertionError("census ran")
    monkeypatch.setattr(graphs, "source_census", census)
    with pytest.raises(BudgetExceededError, match=re.escape("partition scan is 3^13")):
        detectability_report(DirectedGraph.cycle(13), 1)


def test_report_serializes():
    rep = detectability_report(DirectedGraph.complete(3), 1)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["chi"] == 30
    assert payload["xi"] == "1/3"
    assert payload["condition1_holds"] is True


def test_negative_f_rejected():
    g = DirectedGraph.cycle(3)
    with pytest.raises(ValueError):
        check_condition1(g, -1)
    with pytest.raises(ValueError):
        check_condition2(g, -1)


def test_oracle_self_consistency():
    # the naive oracle agrees with itself across its two condition routes
    for n, edges, f in HAND_CASES:
        assert brute_condition1(n, edges, f) == brute_condition2(n, edges, f)


def test_components_oracle_on_known_graph():
    comps, sources = components_and_sources(
        {1, 2, 3, 4}, {(1, 2), (2, 1), (2, 3), (3, 4)})
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3], [4]]
    assert [sorted(s) for s in sources] == [[1, 2]]
