"""Independent brute-force oracles for cross-checking the package.

Everything here is deliberately naive and written without reference to the
package internals: literal set-based enumeration, reachability by repeated
expansion, and plain-float probability math. Small n only. The trace file's
references, the per-record writer and reader that the array-speed ones must
match, share the package's header parsing and line decoding (_parse_header,
_parse_record) and its phase rules; the reader checks each step record's
rules itself, one record at a time, in _parse_step. The trajectory CSV's
reference, write_trajectory_csv_by_rows, writes one csv.writer row per
record. Both writers take their records from step_rows, which reads them
one cell at a time from the trace's arrays, not from the package's
step_blocks. Of the two schedule references, heap_schedule draws its
own delays, and stepwise_schedule, which pins the tie rule, takes its delay
tables from the package's _delays. The belief recursion's reference,
belief_recursion_by_chunks, pins how chunks are scanned and takes its two
arithmetic kernels, update_matrices and normalize_log_belief, from the
package, since it must agree bit for bit. The per-cell views of a trace
(alive_at_start, transmitters_at, completed_at, quorums_at,
log_belief_before, crash_events_observed), which the loop oracles and the
tests read, are the package's phase codes read one iteration at a time
through _PHASE_RULES; they do not read the trace's masks (alive_after and
the rest) or the package's phase table, which the checks they referee read.
The census scans, census_by_scan and condition1_by_scan, read the source
structure off every reduced graph, as the package did before its closed
forms; they take the candidates, their order and the witness's removal
metadata from the package's link-removal space (_RemovalSpace, _census,
_enumeration_rank, _materialize), and find paths with boolean matrix
products of their own.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from crashlearn.engine import (_PHASE_RULES, BELIEF_CHUNK,
                               CRASH_PHASES, DELAY_STREAM, ConfigError,
                               ExecutionTrace, SimulationConfig,
                               TraceInvariantError, blank_schedule, _delays,
                               normalize_log_belief, update_matrices)
from crashlearn import graphs
from crashlearn.graphs import parse_config
from crashlearn.tracefile import _parse_header, _parse_record

# The crash phase of each trace phase code, as the package numbers them.
PHASE_NAMES = (None, *CRASH_PHASES)


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


def _in_reach(space, digits, nodes):
    """(candidates, n, n) bool, [c, i, j] when candidate c's graph on nodes,
    the other nodes deleted as sinks, has a path from j to i. Each node of
    nodes reaches itself; a deleted node reaches nothing and is reached by
    nothing."""
    n = space.g.n
    kept = np.unpackbits(space.in_masks(digits).view(np.uint8), axis=-1,
                         bitorder="little")[..., :n].astype(bool)
    live = np.isin(np.arange(1, n + 1), list(nodes))
    reach = (kept | np.eye(n, dtype=bool)) & live[:, None] & live[None, :]
    for _ in range(n.bit_length()):     # the paths found double in length
        reach = (reach.astype(np.int32) @ reach.astype(np.int32)) > 0
    return reach


def census_by_scan(g, f):
    """(chi, sources in canonical order, first reduced graph in
    enumerate_reduced_graphs order without a unique source), read off every
    reduced graph of the package's census blocks."""
    space = graphs._RemovalSpace(g, graphs._link_sizes(f), math.inf,
                                 "link-removal")
    chi, found, witness = 0, [], None
    for sinks, keys, firsts in graphs._census(space, f):
        live = [v - 1 for v in sorted(g.nodes - sinks)]
        reach = _in_reach(space, space.digits(keys), g.nodes - sinks)[:, live]
        square = reach[:, :, live]
        chi += keys.size
        # a live node lies in a source when it reaches every node that
        # reaches it, and its in-reach is then that source
        in_source = (~square | square.transpose(0, 2, 1)).all(axis=2)
        found.append(reach[in_source] @ (1 << np.arange(g.n)))   # as bitmasks
        unique = square.all(axis=1).any(axis=1)
        rows = np.flatnonzero(~unique)
        if witness is None and rows.size:
            first = rows[graphs._enumeration_rank(space, sinks, keys[rows])[:1]]
            witness, = graphs._materialize(space, f, sinks, keys[first],
                                           firsts[first])
    sources = {frozenset(v + 1 for v in range(g.n) if m >> v & 1)
               for m in np.unique(np.concatenate(found)).tolist()}
    return chi, tuple(sorted(sources, key=lambda c: (len(c), sorted(c)))), witness


def condition1_by_scan(g, f):
    """(holds, witness) of condition 1 from every maximal link-removal
    pattern, each node dropping min(f, in-degree) in-links: the witness is
    the first, in per-node itertools.product order, without a unique source."""
    space = graphs._RemovalSpace(g, lambda d: (min(f, d),), math.inf,
                                 "maximal-removal")
    keys = np.arange(space.total)
    reach = _in_reach(space, space.digits(keys), g.nodes)
    bad = keys[~reach.all(axis=1).any(axis=1)]
    if not bad.size:
        return True, None
    witness, = graphs._materialize(space, f, frozenset(), bad[:1], bad[:1])
    return False, witness


# -- per-cell views of a trace, read from its phase codes through _PHASE_RULES

def _agents_where(trace, t, rule):
    """The labels of the agents alive at the start of iteration t whose
    phase rule entry rule (0 transmits, 1 takes a quorum, 2 completes)
    holds."""
    return frozenset(a + 1 for a, code in enumerate(trace.phase[t - 1].tolist())
                     if code >= 0 and _PHASE_RULES[PHASE_NAMES[code]][rule])


def alive_at_start(trace, t):
    """Agents that began iteration t; t = iterations + 1 gives the agents
    that finished the last iteration without crashing."""
    if t > trace.iterations:
        return frozenset(a + 1 for a, code in enumerate(trace.phase[-1].tolist())
                         if code == 0)
    return frozenset(a + 1 for a, code in enumerate(trace.phase[t - 1].tolist())
                     if code >= 0)


def transmitters_at(trace, t):
    return _agents_where(trace, t, 0)


def completed_at(trace, t):
    return _agents_where(trace, t, 2)


def quorums_at(trace, t):
    """The quorum of every agent that completed iteration t."""
    return {agent: tuple(j for j in trace.quorum[t - 1, agent - 1].tolist() if j >= 0)
            for agent in sorted(completed_at(trace, t))}


def log_belief_before(trace, t, agent):
    """The belief the agent held entering iteration t (end of t - 1)."""
    return (trace.initial_log_belief if t == 1
            else trace.log_belief[t - 2])[agent - 1]


def crash_events_observed(trace):
    """(agent, iteration, crash phase) of every crash code, sorted."""
    return tuple(sorted((a + 1, t, PHASE_NAMES[code])
                        for t in range(1, trace.iterations + 1)
                        for a, code in enumerate(trace.phase[t - 1].tolist())
                        if code > 0))


def first_dominated_reduction(reduced, quorums):
    """Linear search: the first of the given reduced graphs whose every edge
    (j, i) has j in the quorum of completer i (quorums maps each completer to
    its quorum), or None."""
    allowed = {(j, i) for i, quorum in quorums.items() for j in quorum}
    return next((r for r in reduced if r.edges <= allowed), None)


def prop1_by_search(reduced, trace, xi):
    """Proposition 1 over a trace's iterations by linear search through the
    reduced graphs in order: every node's diagonal weight and every edge's
    entry of the first dominated graph must reach xi. Returns the failing
    iterations and the smallest slack of a required entry over xi."""
    failures, worst = [], math.inf
    for t in range(1, trace.iterations + 1):
        quorums = quorums_at(trace, t)
        chosen = first_dominated_reduction(reduced, quorums)
        if chosen is None:
            failures.append(t)
            continue
        required = [Fraction(1, len(quorums[v]) + 1) if v in quorums
                    else Fraction(1) for v in chosen.nodes]
        required.extend(Fraction(1, len(quorums[v]) + 1) for _, v in chosen.edges)
        if any(weight < xi for weight in required):
            failures.append(t)
            continue
        worst = min([worst] + [float(weight - xi) for weight in required])
    return failures, worst


def ergodic_by_pairs(matrix, rows):
    """Disagreement and overlap of the rows named by agent labels, one row
    pair at a time: the largest column spread, and the smallest sum of
    entrywise minima over pairs (a, b) with a <= b."""
    idx = sorted(r - 1 for r in rows)
    if not idx:
        return 0.0, 1.0
    sub = matrix[idx]
    delta = float(np.max(sub.max(axis=0) - sub.min(axis=0)))
    eta = math.inf
    for a in range(len(idx)):
        for b in range(a, len(idx)):
            eta = min(eta, float(np.minimum(sub[a], sub[b]).sum()))
    return delta, eta


def product_by_loop(matrices, t_hi, t_lo):
    """M_{t_hi} @ ... @ M_{t_lo}, each factor multiplied on the left."""
    product = np.eye(matrices.shape[1])
    for tau in range(t_lo, t_hi + 1):
        product = matrices[tau - 1] @ product
    return product


def backward_product_by_loop(matrices, t_hi, t_lo):
    """M_{t_hi} @ ... @ M_{t_lo}, each factor multiplied on the right, from
    t_hi down to t_lo."""
    product = np.eye(matrices.shape[1])
    for tau in range(t_hi, t_lo - 1, -1):
        product = product @ matrices[tau - 1]
    return product


def _first_min(items):
    """(margin, witness) of the first smallest margin, by strict updates."""
    worst, witness = math.inf, None
    for margin, candidate in items:
        if margin < worst:
            worst, witness = margin, candidate
    return worst, witness


def lemma1_by_loops(trace, matrices, window, xi, slack):
    """check_lemma1's margin and witness, one suffix product at a time; a
    window's overlap is compared with xi ** window in log space."""
    T, n = matrices.shape[:2]
    items = []
    product = np.eye(n)
    for t in range(T, 0, -1):
        product = product @ matrices[t - 1]
        d_late, e_late = ergodic_by_pairs(product, alive_at_start(trace, t))
        d_full, e_full = ergodic_by_pairs(product, alive_at_start(trace, 1))
        for label, delta, eta in (("restricted", d_late, e_late),
                                  ("full", d_full, e_full)):
            items.append(((1.0 - eta) - delta + slack,
                          {"t": t, "rows": label, "delta": delta, "eta": eta}))
        items.append((min(d_full - d_late, e_late - e_full) + slack,
                      {"t": t, "rows": "monotonicity", "delta": (d_late, d_full),
                       "eta": (e_late, e_full)}))
    floor = float(xi ** window)
    crashes = {ev.iteration for ev in trace.config.adversary.crash_plan}
    checked = 0
    for start in range(1, T - window + 2, window):
        if crashes.intersection(range(start, start + window)):
            continue
        block = product_by_loop(matrices, start + window - 1, start)
        _, eta = ergodic_by_pairs(block, alive_at_start(trace, start))
        checked += 1
        with np.errstate(divide="ignore"):
            above_floor = float(np.log(eta)) - window * math.log(xi)
        items.append((above_floor + slack,
                      {"t": start, "rows": "window", "eta": eta, "floor": floor}))
    worst, witness = _first_min(items)
    return worst, dict(witness, windows_checked=checked)


def lemma2_by_loops(trace, matrices, slack, n_triples=50, seed=0):
    """check_lemma2's margin and witness over the same random split points."""
    T = matrices.shape[0]
    rng = np.random.default_rng(seed)
    items = []
    while len(items) < n_triples:
        t0, t1, t2 = sorted(int(v) for v in rng.integers(1, T + 1, size=3))
        if t1 == t2:
            continue
        early = product_by_loop(matrices, t1, t0)
        late = product_by_loop(matrices, t2, t1 + 1)
        rows = alive_at_start(trace, t1 + 1)
        d_full, _ = ergodic_by_pairs(late @ early, rows)
        d_early, _ = ergodic_by_pairs(early, rows)
        _, e_late = ergodic_by_pairs(late, rows)
        rhs = (1.0 - e_late) * d_early
        items.append((rhs - d_full + slack, {"t0": t0, "t1": t1, "t2": t2,
                                             "lhs": d_full, "rhs": rhs}))
    return _first_min(items)


def thm2_by_loops(trace, matrices, bound, slack):
    """check_thm2's margin and witness; bound(t, r) is the contraction bound."""
    T, n = matrices.shape[:2]
    stride = max(1, T // 100)
    items = []
    for r in sorted({1, max(1, T // 4), max(1, T // 2)}):
        product = np.eye(n)
        for t in range(r, T + 1):
            product = matrices[t - 1] @ product
            if (t - r) % stride and t != T:
                continue
            delta, _ = ergodic_by_pairs(product, alive_at_start(trace, t + 1))
            items.append((bound(t, r) - delta + slack,
                          {"r": r, "t": t, "delta": delta, "bound": bound(t, r)}))
    return _first_min(items)


def prop2_by_loops(trace, matrices, tolerance):
    """check_prop2's margin and witness, one product over [r, tau] at a time."""
    T, n = matrices.shape[:2]
    boundaries = [1] + [t for t in range(2, T + 1)
                        if alive_at_start(trace, t) != alive_at_start(trace, t - 1)]
    items = []
    for r in boundaries:
        alive = sorted(alive_at_start(trace, r))
        dead = sorted(set(range(1, n + 1)) - alive_at_start(trace, r))
        product = np.eye(n)
        for tau in range(r, T + 1):
            product = matrices[tau - 1] @ product
            for i in alive:
                for j in dead:
                    if product[i - 1, j - 1] != 0.0:
                        block = product[np.ix_([a - 1 for a in alive],
                                               [d - 1 for d in dead])]
                        return -float(np.max(np.abs(block))), {
                            "r": r, "tau": tau, "i": i, "j": j,
                            "value": float(product[i - 1, j - 1])}
            gap = float(max(abs(product[i - 1].sum() - 1.0) for i in alive))
            items.append((tolerance - gap,
                          {"r": r, "tau": tau, "max_row_sum_gap": gap}))
    return _first_min(items)


def psi_by_loops(trace, matrices, pseudo, pairs, tolerances):
    """check_psi's margin and witness. pairs holds (theta, theta_star, psi,
    ratios) per hypothesis pair; tolerances is (identity, residual). The
    expansion of psi[t] is summed from r = t down to 1 with a running total."""
    T, n = matrices.shape[:2]
    identity_gap, identity_witness = 0.0, {}
    for t in range(1, T + 1):
        for agent in sorted(completed_at(trace, t)):
            gap = float(np.max(np.abs(pseudo[t][agent - 1]
                                      - trace.log_belief[t - 1][agent - 1])))
            if gap > identity_gap:
                identity_gap, identity_witness = gap, {"t": t, "agent": agent}
    margins = [(tolerances[0] - identity_gap,
                dict(identity_witness, part="pseudo_identity", gap=identity_gap))]
    for theta, theta_star, psi, ratios in pairs:
        recursion_gap, recursion_witness = 0.0, {}
        for t in range(1, T + 1):
            gap = float(np.max(np.abs(psi[t] - (matrices[t - 1] @ psi[t - 1]
                                                + ratios[t - 1]))))
            if gap > recursion_gap:
                recursion_gap = gap
                recursion_witness = {"t": t, "pair": (theta, theta_star)}
        margins.append((tolerances[1] - recursion_gap,
                        dict(recursion_witness, part="recursion", gap=recursion_gap)))
        for t in sorted({max(1, T // 3), max(1, (2 * T) // 3), T}):
            acc = np.eye(n)
            total = np.zeros(n)
            for r in range(t, 0, -1):
                total = total + acc @ ratios[r - 1]
                acc = acc @ matrices[r - 1]
            gap = float(np.max(np.abs(psi[t] - (total + acc @ psi[0]))))
            margins.append((tolerances[1] - gap, {"part": "expansion", "t": t,
                                                  "pair": (theta, theta_star),
                                                  "gap": gap}))
    return min(margins, key=lambda pair: pair[0])


def drift_by_loops(matrices, psi, ratios, expected, t, rows):
    """(drift, slln, deviations, identity residual) at checkpoint t for the
    survivor labels rows, the first of them the reference row."""
    n = matrices.shape[1]
    acc = np.eye(n)
    drift = slln = 0.0
    deviations = np.zeros(n)
    for r in range(t, 0, -1):
        pi_row = acc[rows[0] - 1]
        drift += float(pi_row @ expected[r - 1])
        slln += float(pi_row @ (ratios[r - 1] - expected[r - 1]))
        deviations = deviations + (acc - pi_row) @ ratios[r - 1]
        acc = acc @ matrices[r - 1]
    deviations = deviations + acc @ psi[0]
    residual = max(abs(psi[t][i - 1] - (deviations[i - 1] + slln + drift))
                   for i in rows)
    return drift, slln, deviations, float(residual)


# What an agent does in its crash iteration: (transmits, takes a quorum).
CRASH_ACTIONS = {"before_transmit": (False, False), "after_transmit": (True, False),
                 "mid_update": (True, True), "after_update": (True, True)}


def heap_schedule(config):
    """The phase and quorum arrays of a uniform- or fixed-delay run by
    discrete-event simulation: a heap of messages in delivery order, a
    buffer per receiver and iteration, and every agent's quorum the first
    messages of its current iteration to be delivered. Messages delivered
    at the same time are taken in processing order, so this agrees with
    the engine only where delivery times do not tie."""
    g, T, adversary = config.graph, config.iterations, config.adversary
    need = {i: len(g.in_neighbors[i]) - config.f for i in g.nodes}
    crash_at = {(ev.agent, ev.iteration): ev.phase for ev in adversary.crash_plan}
    rngs = {i: np.random.default_rng(np.random.SeedSequence(
        [config.seed, DELAY_STREAM, i])) for i in g.nodes}
    phase = np.full((T, g.n), -1, dtype=np.int8)
    quorum = np.full((T, g.n, max(need.values())), -1, dtype=np.int32)
    cur_iter = dict.fromkeys(g.nodes, 1)
    ready_time = dict.fromkeys(g.nodes, 0.0)
    buffers = {i: {} for i in g.nodes}
    running = set(g.nodes)      # neither dead nor done
    heap = []
    seq = 0

    def begin_iteration(i, t, now):
        nonlocal seq
        crash = crash_at.get((i, t))
        phase[t - 1, i - 1] = 0 if crash is None else CRASH_PHASES.index(crash) + 1
        transmits, takes = (True, True) if crash is None else CRASH_ACTIONS[crash]
        if transmits:
            for j in sorted(g.out_neighbors[i]):
                delay = (float(rngs[i].uniform(0.0, adversary.dmax))
                         if adversary.mode == "uniform"
                         else adversary.delay_for(i, j))
                heapq.heappush(heap, (now + delay, i, j, seq, t))
                seq += 1
        if not takes:
            running.discard(i)

    def try_advance(i):
        while i in running:
            t = cur_iter[i]
            buffered = buffers[i].get(t, ())
            if len(buffered) < need[i]:
                return
            taken = buffered[:need[i]]
            quorum[t - 1, i - 1, :need[i]] = sorted(sender for _, sender in taken)
            if (i, t) in crash_at or t == T:
                running.discard(i)
            else:
                cur_iter[i] = t + 1
                ready_time[i] = max([ready_time[i]] + [at for at, _ in taken])
                begin_iteration(i, t + 1, ready_time[i])

    for i in sorted(g.nodes):
        begin_iteration(i, 1, 0.0)
    for i in sorted(g.nodes):
        try_advance(i)
    while heap:
        when, sender, receiver, _, tag = heapq.heappop(heap)
        if receiver not in running or tag < cur_iter[receiver]:
            continue
        buffers[receiver].setdefault(tag, []).append((when, sender))
        if tag == cur_iter[receiver]:
            try_advance(receiver)
    if running:
        raise RuntimeError(f"agents {sorted(running)} never assembled a quorum")
    return phase, quorum


def stepwise_schedule(config):
    """The phase and quorum arrays of any run by the ready-time recursion,
    one iteration at a time: every agent that takes a quorum ranks the
    arrivals of its transmitting in-neighbors with a stable sort, so a tie
    goes to the lower label, takes the need earliest, and is ready for the
    next iteration at the later of its ready time and its latest taken
    arrival. adversarial_latest is the case of zero delays. The delay tables
    are the package's _delays, which heap_schedule checks on its own draws
    where delivery times do not tie."""
    g, T, adversary = config.graph, config.iterations, config.adversary
    phase, quorum = blank_schedule(config)
    phase[:] = 0
    for ev in adversary.crash_plan:
        phase[ev.iteration - 1, ev.agent - 1] = CRASH_PHASES.index(ev.phase) + 1
        phase[ev.iteration:, ev.agent - 1] = -1
    need = np.array([len(g.in_neighbors[i]) - config.f for i in range(1, g.n + 1)])
    if adversary.mode == "adversarial_latest":
        zero = np.full((g.n, g.n), np.inf)
        for j, i in g.edges:
            zero[i - 1, j - 1] = 0.0
        delays = itertools.repeat(zero, T)
    else:
        delays = (table for block in _delays(config) for table in block)
    ready = np.zeros(g.n)
    for t, delay in enumerate(delays):
        rules = [_PHASE_RULES[PHASE_NAMES[code]] if code >= 0 else (False, False)
                 for code in phase[t].tolist()]
        transmits = np.array([rule[0] for rule in rules])
        takes = np.array([rule[1] for rule in rules])
        times = np.where(transmits, ready + delay, np.inf)
        rank = np.argsort(np.argsort(times, axis=1, kind="stable"), axis=1)
        taken = rank < np.where(takes, need, 0)[:, None]
        latest = np.max(np.where(taken, times, -np.inf), axis=1)
        stuck = np.flatnonzero(latest == np.inf) + 1
        assert not stuck.size, f"agents {stuck.tolist()} never form a quorum"
        ready = np.maximum(ready, latest)
        for i in range(g.n):
            members = [j + 1 for j in range(g.n) if taken[i, j]]
            quorum[t, i, :len(members)] = members
    return phase, quorum


def belief_recursion_by_chunks(initial, phase, rows, quorum, log_likelihood,
                               keep=None):
    """belief_recursion as one full Hillis-Steele scan per chunk: every
    chunk of BELIEF_CHUNK iterations of a run of equal phase rows builds its
    own update_matrices, composes them at strides 1, 2, 4, ... and applies
    the prefix products and offsets to the chunk's starting beliefs, which
    normalize_log_belief then renormalizes. The package's steady chunks must
    agree with it bit for bit, so it shares their two arithmetic kernels.
    keep, if given, is a (T, n, m) mask of entries that hold their previous
    value, the mid_update partial write made inside the scan; the engine
    writes that row after its scan, and must agree with this bit for bit."""
    shift = np.max(log_likelihood, axis=-1, keepdims=True)
    if keep is not None:
        shift = np.where(keep.any(axis=-1, keepdims=True), 0.0, shift)
    drive = np.where(rows[..., None], log_likelihood - shift, 0.0)
    out = np.empty(drive.shape)
    starts = [0] + [t for t in range(1, len(phase))
                    if (phase[t] != phase[t - 1]).any()]
    previous = initial
    for lo, hi in zip(starts, starts[1:] + [len(phase)]):
        for a in range(lo, hi, BELIEF_CHUNK):
            b = min(a + BELIEF_CHUNK, hi)
            product = update_matrices(rows[a:b], quorum[a:b])
            offset = drive[a:b].copy()
            k = 1
            while k < b - a:
                offset[k:] = product[k:] @ offset[:-k] + offset[k:]
                product[k:] = product[k:] @ product[:-k]
                k *= 2
            unnormalized = product @ previous + offset
            if keep is not None:
                unnormalized = np.where(keep[a:b], previous, unnormalized)
            out[a:b] = np.where(rows[a][:, None],
                                normalize_log_belief(unnormalized), previous)
            previous = out[b - 1]
    return out


def step_rows(trace):
    """Every (iteration, alive agent) record as plain values, in (t, agent)
    order: (t, agent, completed, crash_phase, signal, quorum, log_belief)
    with quorum a list or None and log_belief a list of floats, read one
    cell at a time from the trace's phase, signal, quorum and log_belief
    arrays."""
    phases, signals = trace.phase.tolist(), trace.signal.tolist()
    quorums, beliefs = trace.quorum.tolist(), trace.log_belief.tolist()
    for t in range(1, trace.iterations + 1):
        for agent in range(1, trace.n + 1):
            code = phases[t - 1][agent - 1]
            if code < 0:
                continue
            phase = PHASE_NAMES[code]
            _, takes_quorum, completed = _PHASE_RULES[phase]
            k = signals[t - 1][agent - 1]
            yield (t, agent, completed, phase,
                   trace.config.model.signals(agent)[k] if k >= 0 else None,
                   [j for j in quorums[t - 1][agent - 1] if j >= 0]
                   if takes_quorum else None,
                   beliefs[t - 1][agent - 1])


def write_trace_by_dumps(trace, path):
    """The trace file written one json.dumps(row, sort_keys=True) per
    record, the writer that write_trace's formatting must reproduce."""
    header = {"kind": "header", "config": trace.config.to_dict(),
              "initial_log_belief": trace.initial_log_belief.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, agent, completed, phase, signal, quorum, belief in step_rows(trace):
            row = {"kind": "step", "t": t, "agent": agent, "alive": True,
                   "completed": completed, "quorum": quorum, "signal": signal,
                   "log_belief": belief, "crash_phase": phase}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_trajectory_csv_by_rows(trace, path):
    """The trajectory CSV written one csv.writer row per record, the writer
    that write_trajectory_csv's formatting must reproduce."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "agent", "completed", "crash_phase", "signal",
                         "quorum"]
                        + [f"posterior_{h}" for h in trace.config.model.hypotheses])
        for t, agent, completed, phase, signal, quorum, belief in step_rows(trace):
            writer.writerow(
                [t, agent, int(completed), phase or "", signal or "",
                 "|".join(str(j) for j in quorum or ())]
                + [repr(math.exp(v)) for v in belief])


_STEP_FIELDS = frozenset(("kind", "t", "agent", "alive", "completed", "quorum",
                          "signal", "log_belief", "crash_phase"))


def _parse_step(line: str, lineno: int, config: SimulationConfig,
                width: int) -> tuple[dict, int, list[int], int]:
    """One step line as (row, phase code, quorum padded to width, signal
    index). Every field must be present, alone and of its written type, and
    agree with the config on its own."""
    row = _parse_record(line, lineno)
    if row.get("kind") != "step":
        raise TraceInvariantError(f"unexpected record kind {row.get('kind')!r}")
    if row.keys() != _STEP_FIELDS:
        raise TraceInvariantError(
            f"line {lineno}: step fields missing {sorted(_STEP_FIELDS - row.keys())}, "
            f"unexpected {sorted(row.keys() - _STEP_FIELDS)}")
    t, agent, quorum, signal = row["t"], row["agent"], row["quorum"], row["signal"]
    phase, belief = row["crash_phase"], row["log_belief"]
    wrong = [name for name, ok in (
        ("t", type(t) is int),
        ("agent", type(agent) is int),
        ("alive", row["alive"] is True),
        ("completed", type(row["completed"]) is bool),
        ("quorum", quorum is None
         or (type(quorum) is list and all(type(j) is int for j in quorum))),
        ("signal", signal is None or type(signal) is str),
        ("log_belief", type(belief) is list
         and all(type(v) in (int, float) for v in belief)),
        ("crash_phase", phase is None or phase in CRASH_PHASES)) if not ok]
    if wrong:
        raise TraceInvariantError(f"line {lineno}: malformed fields {wrong}")
    if not 1 <= t <= config.iterations:
        raise TraceInvariantError(f"step iteration {t} out of range")
    where = f"t={t} agent={agent}"
    if not 1 <= agent <= config.graph.n:
        raise TraceInvariantError(f"{where}: unknown agent")
    if len(belief) != config.model.m:
        raise TraceInvariantError(f"{where}: malformed log beliefs")
    _, takes_quorum, completes = _PHASE_RULES[phase]
    if row["completed"] and not completes:
        raise TraceInvariantError(f"{where}: completed record with phase {phase}")
    if completes and not row["completed"]:
        raise TraceInvariantError(f"{where}: incomplete record needs a crash "
                                  f"phase, got {phase}")
    if not takes_quorum:
        if quorum is not None or signal is not None:
            raise TraceInvariantError(f"{where}: {phase} record must not carry "
                                      f"quorum or signal")
        return row, PHASE_NAMES.index(phase), [-1] * width, -1
    if quorum is None or signal is None:
        raise TraceInvariantError(f"{where}: missing quorum or signal")
    # A quorum the arrays cannot hold gets validate_trace's message here.
    if len(quorum) > width:
        need = len(config.graph.in_neighbors[agent]) - config.f
        raise TraceInvariantError(f"{where}: quorum size {len(quorum)} != {need}")
    bad = sorted({j for j in quorum if not 1 <= j <= config.graph.n})
    if bad:
        raise TraceInvariantError(f"{where}: quorum members {bad} are not "
                                  f"in-neighbors")
    if signal not in config.model.signals(agent):
        raise TraceInvariantError(f"{where}: unknown signal {signal!r}")
    return (row, PHASE_NAMES.index(phase), quorum + [-1] * (width - len(quorum)),
            config.model.signal_index(agent, signal))


def read_trace_by_lines(path):
    """The trace file read one record at a time, each through _parse_step
    and then the duplicate check: the reader whose messages, and the lines
    they name, read_trace must reproduce."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        while lines and not lines[-1].strip():
            lines.pop()
    except UnicodeDecodeError as exc:
        raise TraceInvariantError(f"trace file is not UTF-8 ({exc})") from None
    if not lines:
        raise TraceInvariantError("empty trace file")
    header = _parse_record(lines[0], 1)
    if header.get("kind") != "header":
        raise TraceInvariantError("first line is not a header record")
    try:
        config, initial = parse_config("trace header", _parse_header, header)
    except ConfigError as exc:
        raise TraceInvariantError(f"line 1: {exc}") from None
    T, n = config.iterations, config.graph.n
    if initial.shape != (n, config.model.m):
        raise TraceInvariantError(f"initial beliefs have shape {initial.shape}")
    if len(lines) - 1 < T * (n - config.f):
        raise TraceInvariantError(
            f"header claims {T} iterations but the trace has "
            f"{len(lines) - 1} step records")
    phase, quorum = blank_schedule(config)
    signal = np.full((T, n), -1, dtype=np.int32)
    cells, beliefs = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        row, code, members, k = _parse_step(line, lineno, config, quorum.shape[2])
        t, a = row["t"] - 1, row["agent"] - 1
        if phase[t, a] >= 0:
            raise TraceInvariantError(f"duplicate record for t={t + 1} "
                                      f"agent={a + 1}")
        phase[t, a], quorum[t, a], signal[t, a] = code, members, k
        cells.append((t + 1, a))
        beliefs.append(row["log_belief"])
    stacked = np.empty((T + 1, n, config.model.m), dtype=np.float64)
    stacked[0] = initial
    try:
        stacked[tuple(np.array(cells).T)] = beliefs
    except OverflowError as exc:
        raise TraceInvariantError(f"malformed log beliefs ({exc})") from None
    source = np.where(phase >= 0, np.arange(1, T + 1)[:, None], 0)
    log_belief = stacked[np.maximum.accumulate(source), np.arange(n)]
    return ExecutionTrace(config, initial, phase, quorum, signal, log_belief)


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
