"""Independent brute-force oracles for cross-checking the package.

Everything here is deliberately naive and written without reference to the
package internals: literal set-based enumeration, reachability by repeated
expansion, and plain-float probability math. Small n only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def reach_sets(nodes, edges):
    """node -> set of nodes reachable from it (including itself)."""
    out = {v: set() for v in nodes}
    for j, i in edges:
        out[j].add(i)
    reach = {v: {v} | out[v] for v in nodes}
    changed = True
    while changed:
        changed = False
        for v in nodes:
            extra = set()
            for w in reach[v]:
                extra |= reach[w]
            if not extra <= reach[v]:
                reach[v] |= extra
                changed = True
    return reach


def components_and_sources(nodes, edges):
    """SCCs by mutual reachability; sources have no inbound edge from outside."""
    nodes = set(nodes)
    reach = reach_sets(nodes, edges)
    comps = []
    assigned = set()
    for v in sorted(nodes):
        if v in assigned:
            continue
        comp = {w for w in nodes if w in reach[v] and v in reach[w]}
        comps.append(frozenset(comp))
        assigned |= comp
    comp_of = {v: c for c in comps for v in c}
    sources = []
    for c in comps:
        inbound = any(comp_of[j] is not c and i in c for j, i in edges)
        if not inbound:
            sources.append(c)
    return comps, sources


def _walk_reduced_graphs(n, edges, f):
    """Every removal pattern in per-node itertools.product order, then sink
    subsets by size: yields (per-node dropped in-links, deleted sinks,
    surviving nodes, surviving edges), repeats included.

    Removal pattern: each node drops any subset of its in-links of size <= f,
    then any subset of the sinks of the result, of size <= f and never all
    nodes, is deleted together with its incident edges.
    """
    edges = set(edges)
    nodes = frozenset(range(1, n + 1))
    in_links = {i: sorted(j for j, k in edges if k == i) for i in nodes}
    per_node = []
    for i in sorted(nodes):
        opts = []
        for k in range(min(f, len(in_links[i])) + 1):
            opts.extend(itertools.combinations(in_links[i], k))
        per_node.append(opts)
    for choice in itertools.product(*per_node):
        dropped = {i + 1: frozenset(combo) for i, combo in enumerate(choice)}
        dropped_links = {(j, i + 1) for i, combo in enumerate(choice) for j in combo}
        kept = edges - dropped_links
        senders = {j for j, _ in kept}
        sinks = sorted(nodes - senders)
        for size in range(min(f, len(sinks)) + 1):
            if size == n:
                continue
            for subset in itertools.combinations(sinks, size):
                alive = nodes - set(subset)
                surv = frozenset((j, i) for j, i in kept if j in alive and i in alive)
                yield dropped, frozenset(subset), frozenset(alive), surv


def brute_reduced_graphs(n, edges, f):
    """Every distinct reduced graph as a frozen (nodes, edges) pair."""
    return {(alive, surv) for _, _, alive, surv in _walk_reduced_graphs(n, edges, f)}


def brute_first_removals(n, edges, f):
    """(nodes, edges) -> (per-node dropped in-links, deleted sinks) of the
    first removal pattern that produces it."""
    first = {}
    for dropped, subset, alive, surv in _walk_reduced_graphs(n, edges, f):
        first.setdefault((alive, surv), (dropped, subset))
    return first


def brute_condition1(n, edges, f):
    """Literal quantifier: every reduced graph has exactly one source component."""
    for alive, surv in brute_reduced_graphs(n, edges, f):
        _, sources = components_and_sources(alive, surv)
        if len(sources) != 1:
            return False
    return True


def brute_condition2(n, edges, f):
    """Literal partition quantifier over all (L, R, C) with L, R nonempty."""
    nodes = list(range(1, n + 1))
    in_links = {i: {j for j, k in edges if k == i} for i in nodes}
    for assign in itertools.product((0, 1, 2), repeat=n):
        L = {nodes[i] for i in range(n) if assign[i] == 0}
        R = {nodes[i] for i in range(n) if assign[i] == 1}
        C = {nodes[i] for i in range(n) if assign[i] == 2}
        if not L or not R:
            continue
        ok = any(len(in_links[i] & (R | C)) >= f + 1 for i in L) or \
             any(len(in_links[i] & (L | C)) >= f + 1 for i in R)
        if not ok:
            return False
    return True


def brute_gamma(n, edges, f):
    """Smallest source-component size over every distinct reduced graph."""
    best = n
    for alive, surv in brute_reduced_graphs(n, edges, f):
        _, sources = components_and_sources(alive, surv)
        best = min(best, min(len(c) for c in sources))
    return best


def first_dominated_reduction(reduced, quorums):
    """Linear search: the first of the given reduced graphs whose every edge
    (j, i) has j in the quorum of completer i (quorums maps each completer to
    its quorum), or None."""
    allowed = {(j, i) for i, quorum in quorums.items() for j in quorum}
    return next((r for r in reduced if r.edges <= allowed), None)


def prop1_by_search(reduced, matrices, xi):
    """Proposition 1 over update matrices by linear search through the
    reduced graphs in order: every node's diagonal weight and every edge's
    entry of the first dominated graph must reach xi. Returns the failing
    iterations and the smallest slack of a required entry over xi."""
    failures, worst = [], math.inf
    for um in matrices:
        chosen = first_dominated_reduction(reduced, um.quorums)
        if chosen is None:
            failures.append(um.t)
            continue
        required = [Fraction(1, len(um.quorums[v]) + 1) if v in um.quorums
                    else Fraction(1) for v in chosen.nodes]
        required.extend(Fraction(1, len(um.quorums[v]) + 1) for _, v in chosen.edges)
        if any(weight < xi for weight in required):
            failures.append(um.t)
            continue
        worst = min([worst] + [float(weight - xi) for weight in required])
    return failures, worst


def kl(p, q):
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))


def bayes_log_posterior(log_prior, per_step_log_likelihoods):
    """Batch Bayes: normalize(log prior + sum of per-step log-likelihood rows)."""
    m = len(log_prior)
    acc = list(log_prior)
    for row in per_step_log_likelihoods:
        acc = [a + b for a, b in zip(acc, row)]
    mx = max(acc)
    z = mx + math.log(sum(math.exp(a - mx) for a in acc))
    return [a - z for a in acc]


def geometric_tail_sum_direct(xi_float, n, chi, f, tiny=1e-15, max_terms=10_000_000):
    """Direct summation of min(1, (1-xi^(n chi))^(floor(u/(n chi)) - f)); small cases only."""
    block = n * chi
    base = 1.0 - xi_float ** block
    total = 0.0
    u = 0
    while u < max_terms:
        term = min(1.0, base ** (u // block - f))
        if term < tiny:
            break
        total += term
        u += 1
    else:
        raise RuntimeError("direct summation did not terminate")
    return total
