"""Matrix reconstruction of traces and numerical checks of their guarantees.

A trace induces one row-stochastic update matrix per iteration: agents that
completed the iteration get weight 1/(quorum size + 1) on themselves and on
each quorum member, everyone else keeps a unit row. Log pseudo-belief ratios
then satisfy a linear recursion driven by per-iteration log-likelihood-ratio
vectors, and every convergence statement about the protocol is a statement
about backward products of these matrices.

Each check_* function verifies one such statement on a concrete trace and
returns a CheckResult; run_checks bundles them. Every product comes from
_fold_ranges, formed in one direction and order whatever else is stepped
with it, so every report is bitwise reproducible from its trace, whichever
checks ran before. Checks never loosen a bound to pass: structural claims
(zero columns, dominating reduced graphs, source mass thresholds) are
asserted exactly, in float or rational arithmetic as appropriate, and
analytic inequalities carry only a 1e-12 rounding slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .engine import (ExecutionTrace, belief_recursion, distinct_rows,
                     log_likelihood_rows, update_matrices)
from .graphs import (ConfigError, DirectedGraph, SourceCensus,
                     first_dominated_nodes, source_census)
from .observation import (ROW_SUM_TOLERANCE, compute_log_ratio_bound,
                          expected_log_ratios)

ANALYTIC_SLACK = 1e-12          # rounding slack on exact inequalities
PSEUDO_IDENTITY_TOLERANCE = 1e-9
PSI_RESIDUAL_TOLERANCE = 1e-8

DEFAULT_CHECKS = ("lemma1", "lemma2", "thm2", "prop1", "prop2", "prop3",
                  "lemma4", "psi")


# -- structural constants -----------------------------------------------------

def structure_constants(graph: DirectedGraph, f: int) -> SourceCensus:
    """The cached census of (graph, f) that the convergence bounds read."""
    return source_census(graph, f)


# -- matrices and products ----------------------------------------------------

def trace_matrices(trace: ExecutionTrace) -> np.ndarray:
    """(T, n, n) stack of the iteration matrices, row t - 1 for iteration t,
    from the completed mask and quorums."""
    return update_matrices(trace.completed, trace.quorum)


# Steps of a fold whose factors are gathered by one np.take.
_FACTOR_BLOCK = 64


def _fold_ranges(matrices: np.ndarray, lo, hi, backward: bool = False,
                 keep: bool = False) -> np.ndarray | list[np.ndarray]:
    """Products of the iteration matrices over the ranges [lo[j], hi[j]],
    stepped together; the empty range lo = hi + 1 gives the identity.

    At step k every range still open takes its next factor, and all of them
    are multiplied in one stacked matmul. A forward range starts from lo
    and multiplies each new matrix on the left, M_t @ (M_{t-1} ... M_lo); a
    backward range starts from hi and multiplies on the right,
    (M_hi ... M_{r+1}) @ M_r. Each product is formed in the same order
    whatever else is in the call, so it equals the one-range loop bit for
    bit.

    Returns the (R, n, n) products or, with keep, one fold per range, of
    hi - lo + 2 entries: entry k of a forward fold is the product over
    [lo, lo + k - 1], entry k of a backward fold the product over
    [lo + k, hi].
    """
    lo = np.asarray(lo, dtype=np.intp)
    hi = np.asarray(hi, dtype=np.intp)
    T, n = matrices.shape[0], matrices.shape[-1]
    lengths = hi - lo + 1
    bad = (lengths < 0) | ((lengths > 0) & ((lo < 1) | (hi > T)))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"product range [{lo[j]}, {hi[j]}] is not within "
                         f"1..{T} with start at most end + 1")
    order = np.argsort(-lengths, kind="stable")     # open ranges: a prefix
    place = np.argsort(order)
    first = (hi if backward else lo)[order] - 1      # index of the first factor
    step = -1 if backward else 1
    # levels[k] holds the open ranges' products after k steps; without keep
    # two levels alternate, and a closed range's product stays in the level
    # of its length's parity
    levels = np.empty((int(lengths.max(initial=0)) + 1 if keep else 2,
                       len(lengths), n, n))
    levels[0] = np.eye(n)
    k = 0
    for end in sorted(set(lengths.tolist()) - {0}):     # steps [k, end): c open
        c = int(np.count_nonzero(lengths >= end))
        rows = levels[:, :c]
        both = rows[0], rows[1]
        while k < end:
            stop = min(end, k + _FACTOR_BLOCK)
            factors = np.take(matrices, first[:c] + step * np.arange(k, stop)[:, None],
                              axis=0)
            if keep:
                srcs, dsts = rows[k:stop], rows[k + 1:stop + 1]
            else:
                srcs = [both[j % 2] for j in range(k, stop)]
                dsts = [both[1 - j % 2] for j in range(k, stop)]
            lefts, rights = (srcs, factors) if backward else (factors, srcs)
            for left, right, dst in zip(lefts, rights, dsts):
                np.matmul(left, right, dst)
            k = stop
    if not keep:
        return levels[lengths % 2, place]
    levels.flags.writeable = False      # folds are views that checks share
    if backward:
        return [levels[length::-1, j] for length, j in zip(lengths.tolist(),
                                                           place.tolist())]
    return [levels[:length + 1, j] for length, j in zip(lengths.tolist(),
                                                        place.tolist())]


def _apply(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each matrix of a stack times the matching vector."""
    return np.matmul(matrices, vectors[..., None])[..., 0]


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... added one at a time onto zero, as a running
    total does; np.sum's pairwise order would change the last bits."""
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


def backward_product(matrices: np.ndarray, t_hi: int, t_lo: int) -> np.ndarray:
    """Product of the iteration matrices from t_hi down to t_lo; the empty
    range t_lo = t_hi + 1 gives the identity. estimate_pi reads it, so it
    stays a reference for the estimates run_checks reads from the memo."""
    return _fold_ranges(matrices, [t_lo], [t_hi])[0]


def ergodic_coefficients(matrices: np.ndarray, rows: Iterable[int] | np.ndarray,
                         ) -> tuple:
    """Disagreement delta and overlap eta of the chosen rows of each matrix
    in a (..., n, n) stack; rows is a boolean (..., n) mask or a collection
    of agent labels. Floats for one matrix, arrays over the stack otherwise.

    Pairs include (i, i), so a single chosen row gives delta 0 and eta
    equal to its row sum; no chosen row gives delta 0 and eta 1.
    """
    n = matrices.shape[-1]
    if not isinstance(rows, np.ndarray):
        rows = np.isin(np.arange(1, n + 1), list(rows))
    rows = np.broadcast_to(rows, matrices.shape[:-1])
    chosen, some = rows[..., None], rows.any(axis=-1)
    spread = (np.where(chosen, matrices, -np.inf).max(axis=-2)
              - np.where(chosen, matrices, np.inf).min(axis=-2))
    delta = np.where(some, spread.max(axis=-1), 0.0)
    eta = np.full(matrices.shape[:-2], np.inf)
    for shift in range(n // 2 + 1):     # pairs (a, a - shift mod n), every a
        overlap = np.minimum(matrices, np.roll(matrices, shift, axis=-2)).sum(axis=-1)
        pairs = rows & np.roll(rows, shift, axis=-1)
        eta = np.minimum(eta, np.where(pairs, overlap, np.inf).min(axis=-1))
    eta = np.where(some, eta, 1.0)
    if matrices.ndim == 2:
        return float(delta), float(eta)
    return delta, eta


def theorem2_bound(t: int, r: int, structure: SourceCensus, f: int) -> float:
    """Contraction bound on the disagreement of the product over [r, t]."""
    exponent = (t - r + 1) // structure.window - f
    if exponent <= 0:
        return 1.0
    base = 1.0 - structure.xi_window_float
    return min(1.0, base ** exponent)


def geometric_tail_constant(structure: SourceCensus, f: int) -> float:
    """Closed form of the summed contraction bounds over an infinite horizon,
    window * ((f + 1) + (1 - q) / q) with q = xi ** window, which is
    window * (f + (1 + d) ** window): inf once that overflows a float."""
    try:
        return float(structure.window * (f + structure.xi_window_inverse(1024)))
    except OverflowError:
        return math.inf


# -- pseudo-beliefs and log ratios ---------------------------------------------

def pseudo_belief_evolution(trace: ExecutionTrace) -> np.ndarray:
    """(T + 1, n, m) log array: the initial block, then the engine's belief
    pass without its partial writes, the same belief_recursion call over
    the completers; all other agents carry their previous value forward."""
    return np.concatenate([trace.initial_log_belief[None], belief_recursion(
        trace.initial_log_belief, trace.phase, trace.completed, trace.quorum,
        log_likelihood_rows(trace.config.model, trace.signal))])


def log_ratio_vectors(trace: ExecutionTrace, theta: str,
                      theta_star: str) -> np.ndarray:
    """(T, n) array of per-iteration log-likelihood-ratio inputs; zero for
    agents that did not complete the iteration."""
    model = trace.config.model
    a = model.hypothesis_index(theta)
    b = model.hypothesis_index(theta_star)
    rows = log_likelihood_rows(model, trace.signal)
    return np.where(trace.completed, rows[..., a] - rows[..., b], 0.0)


def expected_ratio_vectors(trace: ExecutionTrace, theta: str,
                           theta_star: str) -> np.ndarray:
    """(T, n) expectations of the log-ratio inputs under the true hypothesis:
    minus the agent KL divergence, masked to completers."""
    return np.where(trace.completed, expected_log_ratios(
        trace.config.model, theta, theta_star), 0.0)


def psi_series(trace: ExecutionTrace, theta: str, theta_star: str,
               pseudo: np.ndarray | None = None) -> np.ndarray:
    """(T + 1, n) log pseudo-belief ratios theta over theta_star."""
    model = trace.config.model
    if pseudo is None:
        pseudo = pseudo_belief_evolution(trace)
    a = model.hypothesis_index(theta)
    b = model.hypothesis_index(theta_star)
    return pseudo[:, :, a] - pseudo[:, :, b]


# -- pi estimates ---------------------------------------------------------------

@dataclass(eq=False)
class PiEstimate:
    """One estimated influence row: the reference row of the product over
    [r, horizon], with its disagreement residual and contraction bound."""

    r: int
    horizon: int
    reference_row: int
    pi: np.ndarray
    residual: float
    bound: float
    dead_columns_zero: bool


def estimate_pi(trace: ExecutionTrace, r: int,
                horizon: int | None = None) -> PiEstimate:
    structure = structure_constants(trace.config.graph, trace.config.f)
    T = trace.iterations
    if not 1 <= r <= T:
        raise ValueError(f"r={r} outside 1..{T}")
    if horizon is None:
        horizon = _pi_horizon(trace, r, structure)
    if not r <= horizon <= T:
        raise ValueError(f"horizon {horizon} outside {r}..{T}")
    return _pi_estimate(trace, r, horizon,
                        backward_product(trace_matrices(trace), horizon, r),
                        structure)


def _pi_horizon(trace: ExecutionTrace, r: int, structure: SourceCensus) -> int:
    return min(trace.iterations, r + structure.window * (trace.config.f + 30))


def _pi_estimate(trace: ExecutionTrace, r: int, horizon: int, product: np.ndarray,
                 structure: SourceCensus) -> PiEstimate:
    """The estimate read from the product over [r, horizon]."""
    rows = trace.alive_after[horizon - 1]       # alive at the start of horizon + 1
    reference = int(np.flatnonzero(rows)[0]) + 1
    residual, _ = ergodic_coefficients(product, rows)
    bound = theorem2_bound(horizon, r, structure, trace.config.f)
    zeros_ok = not product[reference - 1][~trace.alive[r - 1]].any()
    return PiEstimate(r=r, horizon=horizon, reference_row=reference,
                      pi=product[reference - 1].copy(), residual=residual,
                      bound=bound, dead_columns_zero=zeros_ok)


def _pi_sample_points(trace: ExecutionTrace) -> list[int]:
    T = trace.iterations
    points = {1, max(1, T // 4), max(1, T // 2), max(1, (3 * T) // 4)}
    for ev in trace.config.adversary.crash_plan:
        if ev.iteration + 1 <= T:
            points.add(ev.iteration + 1)
    return sorted(points)


# -- check results ---------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    witness: object = None

    def to_dict(self) -> dict:
        return {"passed": self.passed, "worst_margin": self.worst_margin,
                "witness": self.witness}


class _Shared:
    """Lazily computed objects reused across checks on one trace. Its memo
    keys the folds of each direction by their exact range (lo, hi): thm2
    and prop2 read the forward folds over [r, T], the pi estimates the last
    entry of the forward fold over [r, horizon], and lemma1, psi and
    decompose_log_ratio_drift the backward folds over [1, t]. A fold that
    several readers need is stepped once, and none past its range."""

    def __init__(self, trace: ExecutionTrace):
        self.trace = trace
        # the folds of each direction by their range (lo, hi)
        self._folds: dict[bool, dict[tuple[int, int], np.ndarray]] = {
            False: {}, True: {}}

    def folds(self, ranges: Sequence[tuple[int, int]],
              backward: bool = False) -> list[np.ndarray]:
        """The forward or backward fold over [lo, hi] (_fold_ranges with
        keep) for each (lo, hi) of ranges; the ones not yet memoized are
        stepped together in one call."""
        memo = self._folds[backward]
        missing = sorted(set(ranges) - memo.keys())
        if missing:
            lo, hi = zip(*missing)
            memo.update(zip(missing, _fold_ranges(self.matrices, lo, hi,
                                                  backward, keep=True)))
        return [memo[key] for key in ranges]

    @cached_property
    def matrices(self) -> np.ndarray:
        return trace_matrices(self.trace)

    @cached_property
    def structure(self) -> SourceCensus:
        return structure_constants(self.trace.config.graph, self.trace.config.f)

    @cached_property
    def pseudo(self) -> np.ndarray:
        return pseudo_belief_evolution(self.trace)

    @cached_property
    def pi_samples(self) -> list[PiEstimate]:
        """Estimates at the sample points r, each product over [r, horizon]
        the last entry of the memoized forward fold over that range."""
        trace = self.trace
        ranges = [(r, _pi_horizon(trace, r, self.structure))
                  for r in _pi_sample_points(trace)]
        return [_pi_estimate(trace, r, horizon, fold[-1], self.structure)
                for (r, horizon), fold in zip(ranges, self.folds(ranges))]


def _thm2_ranges(trace: ExecutionTrace) -> list[tuple[int, int]]:
    """[r, T] for each anchor r."""
    T = trace.iterations
    return [(r, T) for r in sorted({1, max(1, T // 4), max(1, T // 2)})]


def _prop2_ranges(trace: ExecutionTrace) -> list[tuple[int, int]]:
    """[r, T] for r = 1 and every iteration whose alive set differs from the
    one before."""
    changes = (trace.alive[1:] != trace.alive[:-1]).any(axis=1)
    starts = [1] + (np.flatnonzero(changes) + 2).tolist()
    return [(r, trace.iterations) for r in starts]


# The forward ranges whose folds thm2 and prop2 read; run_checks steps them
# together in one call. The pi estimates' ranges (prop3, lemma4) keep their
# own call: the one that is neither an anchor nor a boundary, [3T/4, T],
# would be padded to T entries in this call, and that memory costs more
# than its T/4 steps.
_FORWARD_RANGES = {
    "thm2": _thm2_ranges,
    "prop2": _prop2_ranges,
}


# -- individual checks ------------------------------------------------------------

def check_lemma1(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """Disagreement of any backward product is at most one minus its overlap,
    and restricting to later (smaller) alive sets never hurts either side.
    Crash-free windows of the structural length have overlap at least the
    influence floor raised to that length, compared in log space: the floor
    underflows to 0.0 as a float (4^-1040 on complete-4 with f=1), and an
    overlap of exactly 0 must still fail. A window's margin is
    log(eta) - window * log(xi), -inf at an overlap of 0; its witness
    reports the float floor. The per-t parts cannot fail on a well-formed
    trace, only by rounding beyond the slack: every product of the
    row-stochastic update matrices is row-stochastic, a set of rows of such
    a matrix has disagreement at most one minus its overlap, and dropping
    rows only shrinks the disagreement and grows the overlap."""
    shared = shared or _Shared(trace)
    matrices, structure = shared.matrices, shared.structure
    T = trace.iterations
    suffixes = shared.folds([(1, T)], backward=True)[0][:-1]   # over [t, T]
    d_late, e_late = ergodic_coefficients(suffixes, trace.alive)
    d_full, e_full = ergodic_coefficients(suffixes, trace.alive[0])
    per_t = np.stack([(1.0 - e_late) - d_late, (1.0 - e_full) - d_full,
                      np.minimum(d_full - d_late, e_late - e_full)],
                     axis=1)[::-1] + ANALYTIC_SLACK        # t = T down to 1

    crash_iterations = {ev.iteration for ev in trace.config.adversary.crash_plan}
    window = structure.window
    floor = structure.xi_window_float
    starts = np.array([start for start in range(1, T - window + 2, window)
                       if not crash_iterations.intersection(
                           range(start, start + window))], dtype=np.int64)
    blocks = _fold_ranges(matrices, starts, starts + window - 1)
    _, etas = ergodic_coefficients(blocks, trace.alive[starts - 1])

    with np.errstate(divide="ignore"):
        above_floor = np.log(etas) - window * math.log(structure.xi)
    margins = np.concatenate([per_t.ravel(), above_floor + ANALYTIC_SLACK])
    k = int(np.argmin(margins))
    if k < per_t.size:
        t, part = T - k // 3, k % 3
        delta = (float(d_late[t - 1]), float(d_full[t - 1]))
        eta = (float(e_late[t - 1]), float(e_full[t - 1]))
        witness = ({"t": t, "rows": "monotonicity", "delta": delta, "eta": eta}
                   if part == 2 else {"t": t, "rows": ("restricted", "full")[part],
                                      "delta": delta[part], "eta": eta[part]})
    else:
        w = k - per_t.size
        witness = {"t": int(starts[w]), "rows": "window", "eta": float(etas[w]),
                   "floor": floor}
    witness["windows_checked"] = len(starts)
    worst = float(margins[k])
    return CheckResult("lemma1", worst >= 0.0, worst, witness)


def check_lemma2(trace: ExecutionTrace, shared: _Shared | None = None,
                 n_triples: int = 50, seed: int = 0) -> CheckResult:
    """Splitting a product at any interior point contracts disagreement by at
    least the overlap of the later factor, rows restricted to survivors of
    the split point. This cannot fail on a well-formed trace, only by
    rounding beyond the slack: for row-stochastic P and Q the disagreement
    of rows of PQ is at most that of Q times one minus the overlap of P,
    and the survivors' rows put no weight on agents already dead (prop2)."""
    shared = shared or _Shared(trace)
    matrices = shared.matrices
    T = trace.iterations
    if T < 2:
        return CheckResult("lemma2", True, math.inf, "trace too short to split")
    rng = np.random.default_rng(seed)
    triples = []
    while len(triples) < n_triples:
        t0, t1, t2 = sorted(int(v) for v in rng.integers(1, T + 1, size=3))
        if t1 != t2:
            triples.append((t0, t1, t2))
    if not triples:
        return CheckResult("lemma2", True, math.inf, None)
    t0s, t1s, t2s = np.array(triples).T
    products = _fold_ranges(matrices, np.concatenate([t0s, t1s + 1]),
                            np.concatenate([t1s, t2s]))
    early, late = products[:len(triples)], products[len(triples):]
    rows = trace.alive[t1s]                             # alive at start of t1 + 1
    d_full, _ = ergodic_coefficients(np.matmul(late, early), rows)
    d_early, _ = ergodic_coefficients(early, rows)
    _, e_late = ergodic_coefficients(late, rows)
    rhs = (1.0 - e_late) * d_early
    margins = rhs - d_full + ANALYTIC_SLACK
    k = int(np.argmin(margins))
    t0, t1, t2 = triples[k]
    worst = float(margins[k])
    return CheckResult("lemma2", worst >= 0.0, worst,
                       {"t0": t0, "t1": t1, "t2": t2, "lhs": float(d_full[k]),
                        "rhs": float(rhs[k])})


def check_thm2(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """Products over [r, t] have disagreement within the window-counting
    contraction bound at every strided t for several anchors r."""
    shared = shared or _Shared(trace)
    structure = shared.structure
    T, f = trace.iterations, trace.config.f
    ranges = _thm2_ranges(trace)
    stride = max(1, T // 100)
    points, deltas, bounds = [], [], []
    for (r, _), fold in zip(ranges, shared.folds(ranges)):
        ts = np.arange(r, T + 1)
        ts = ts[((ts - r) % stride == 0) | (ts == T)]
        products = fold[ts - r + 1]                                # over [r, t]
        deltas.append(ergodic_coefficients(products, trace.alive_after[ts - 1])[0])
        bounds.extend(theorem2_bound(t, r, structure, f) for t in ts.tolist())
        points.extend((r, t) for t in ts.tolist())
    deltas = np.concatenate(deltas)
    margins = np.array(bounds) - deltas + ANALYTIC_SLACK
    k = int(np.argmin(margins))
    (r, t), worst = points[k], float(margins[k])
    return CheckResult("thm2", worst >= 0.0, worst,
                       {"r": r, "t": t, "delta": float(deltas[k]),
                        "bound": bounds[k]})


def check_prop1(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """Every iteration matrix dominates xi times the adjacency of some
    reduced graph: support inclusion picks the first such graph in
    enumeration order, then every required entry is at least xi as an exact
    rational. A completer's quorum entries carry its diagonal weight, so the
    graph's nodes give every required value. The matrix depends only on the
    completers and their quorums, so each such pattern is checked once."""
    shared = shared or _Shared(trace)
    xi = shared.structure.xi
    graph, f = trace.config.graph, trace.config.f
    completed, T = trace.completed, trace.iterations
    patterns = np.concatenate(
        [completed, np.where(completed[..., None], trace.quorum, -1).reshape(T, -1)],
        axis=1)
    distinct, inverse = distinct_rows(patterns)
    firsts = np.full(len(distinct), T)      # each pattern's first iteration
    np.minimum.at(firsts, inverse, np.arange(T))
    failed = np.zeros(len(firsts), dtype=bool)
    worst_slack = math.inf
    for p, t in enumerate(firsts.tolist()):
        quorums = {a + 1: tuple(j for j in trace.quorum[t, a].tolist() if j >= 0)
                   for a in np.flatnonzero(completed[t]).tolist()}
        nodes = first_dominated_nodes(graph, f, quorums)
        if nodes is None:
            failed[p] = True
            continue
        required = [Fraction(1, len(quorums[node]) + 1)
                    if node in quorums else Fraction(1) for node in nodes]
        if any(weight < xi for weight in required):
            failed[p] = True
            continue
        worst_slack = min([worst_slack]
                          + [float(weight - xi) for weight in required])
    failures = np.flatnonzero(failed[inverse]) + 1
    if failures.size:
        return CheckResult("prop1", False, -1.0,
                           {"iterations_without_dominated_reduction":
                            failures.tolist()})
    return CheckResult("prop1", True, float(worst_slack), None)


def check_prop2(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """From every alive-set boundary r: products over [r, tau] keep columns of
    agents dead at r exactly zero and rows of agents alive at r summing to
    one within rounding."""
    shared = shared or _Shared(trace)
    ranges = _prop2_ranges(trace)
    gaps = []
    for (r, _), fold in zip(ranges, shared.folds(ranges)):
        alive_idx = np.flatnonzero(trace.alive[r - 1])
        dead_idx = np.flatnonzero(~trace.alive[r - 1])
        products = fold[1:][:, alive_idx]                          # over [r, tau]
        leaks = np.flatnonzero((products[:, :, dead_idx] != 0.0).any(axis=(1, 2)))
        if leaks.size:
            block = products[leaks[0]][:, dead_idx]
            where = np.argwhere(block != 0.0)[0]
            return CheckResult(
                "prop2", False, -float(np.max(np.abs(block))),
                {"r": r, "tau": r + int(leaks[0]), "i": int(alive_idx[where[0]]) + 1,
                 "j": int(dead_idx[where[1]]) + 1,
                 "value": float(block[tuple(where)])})
        gaps.append(np.abs(products.sum(axis=2) - 1.0).max(axis=1))
    # gaps[j][offset] is the gap of the product over [r, r + offset], r the
    # j-th boundary
    starts = np.cumsum([0] + [len(gap) for gap in gaps])
    gaps = np.concatenate(gaps)
    margins = ROW_SUM_TOLERANCE - gaps
    k = int(np.argmin(margins))
    j = int(np.searchsorted(starts, k, side="right")) - 1
    worst = float(margins[k])
    return CheckResult("prop2", worst >= 0.0, worst,
                       {"r": ranges[j][0], "tau": ranges[j][0] + k - int(starts[j]),
                        "max_row_sum_gap": float(gaps[k])})


def check_prop3(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """Estimated influence rows: the surviving rows of the estimating product
    agree within the contraction bound, and agents already dead at r carry
    exactly zero estimated influence."""
    shared = shared or _Shared(trace)
    worst = math.inf
    witness = None
    for est in shared.pi_samples:
        if not est.dead_columns_zero:
            return CheckResult("prop3", False, -1.0,
                               {"r": est.r, "reason": "dead column nonzero",
                                "pi": est.pi.tolist()})
        margin = est.bound + ANALYTIC_SLACK - est.residual
        if margin < worst:
            worst = margin
            witness = {"r": est.r, "horizon": est.horizon,
                       "residual": est.residual, "bound": est.bound}
    return CheckResult("prop3", worst >= 0.0, float(worst), witness)


def check_lemma4(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """At every sampled r some reduced-graph source component has estimated
    influence at least xi to the structural window power on every member
    (compared exactly, without building the power). Its size is at least
    gamma by construction: the sources read are source_census's, and gamma
    is the size of the smallest of them. The source read is the one of
    largest mass among those that clear the threshold, ties going to the
    first in source_census's canonical order."""
    shared = shared or _Shared(trace)
    structure = shared.structure
    worst = math.inf
    witness = None
    for est in shared.pi_samples:
        exact = [Fraction(float(v)) for v in est.pi]
        clears = [structure.compare_xi_window(v)[0] for v in exact]
        masses = {source: sum(exact[k - 1] for k in source)
                  for source in structure.sources
                  if all(clears[k - 1] for k in source)}
        if not masses:
            return CheckResult("lemma4", False, -1.0,
                               {"r": est.r, "pi": est.pi.tolist(),
                                "reason": "no source clears the threshold"})
        source = max(masses, key=masses.get)
        _, margin = structure.compare_xi_window(masses[source])
        if margin < worst:
            worst = margin
            witness = {"r": est.r, "source": sorted(source),
                       "mass": float(masses[source])}
    return CheckResult("lemma4", worst >= 0.0, float(worst), witness)


def check_psi(trace: ExecutionTrace, shared: _Shared | None = None) -> CheckResult:
    """Pseudo-beliefs replayed from the trace match recorded beliefs on every
    completer; log ratios satisfy the one-step matrix recursion and the full
    backward-product expansion."""
    shared = shared or _Shared(trace)
    matrices, pseudo = shared.matrices, shared.pseudo
    T, n = trace.iterations, trace.n

    gaps = np.where(trace.completed,
                    np.abs(pseudo[1:] - trace.log_belief).max(axis=2), 0.0)
    identity_gap = float(gaps.max())
    identity_witness = None
    if identity_gap > 0.0:
        t, agent = divmod(int(np.argmax(gaps)), n)
        identity_witness = {"t": t + 1, "agent": agent + 1}
    margins = [(PSEUDO_IDENTITY_TOLERANCE - identity_gap,
                dict(identity_witness or {}, part="pseudo_identity",
                     gap=identity_gap))]

    checkpoints = sorted({max(1, T // 3), max(1, (2 * T) // 3), T})
    suffixes = dict(zip(checkpoints, shared.folds(
        [(1, t) for t in checkpoints], backward=True)))
    for theta, theta_star in trace.config.model.ordered_pairs:
        psi = psi_series(trace, theta, theta_star, pseudo=pseudo)
        ratios = log_ratio_vectors(trace, theta, theta_star)
        steps = np.abs(psi[1:] - (_apply(matrices, psi[:-1]) + ratios)).max(axis=1)
        recursion_gap = float(steps.max())
        recursion_witness = None
        if recursion_gap > 0.0:
            recursion_witness = {"t": int(np.argmax(steps)) + 1,
                                 "pair": (theta, theta_star)}
        margins.append((PSI_RESIDUAL_TOLERANCE - recursion_gap,
                        dict(recursion_witness or {}, part="recursion",
                             gap=recursion_gap)))
        for t, suffix in suffixes.items():
            # psi[t] is the sum over r = t down to 1 of the product over
            # [r + 1, t] (suffix[r]) times ratios[r - 1], plus the product
            # over [1, t] times psi[0]
            total = (_sum_in_order(_apply(suffix[1:], ratios[:t])[::-1])
                     + suffix[0] @ psi[0])
            gap = float(np.max(np.abs(psi[t] - total)))
            margins.append((PSI_RESIDUAL_TOLERANCE - gap,
                            {"part": "expansion", "t": t,
                             "pair": (theta, theta_star), "gap": gap}))

    worst, witness = min(margins, key=lambda pair: pair[0])
    return CheckResult("psi", worst >= 0.0, float(worst), witness)


_CHECK_FUNCTIONS = {
    "lemma1": check_lemma1,
    "lemma2": check_lemma2,
    "thm2": check_thm2,
    "prop1": check_prop1,
    "prop2": check_prop2,
    "prop3": check_prop3,
    "lemma4": check_lemma4,
    "psi": check_psi,
}


def check_names(checks: Iterable[str]) -> tuple[str, ...]:
    """The check names as a tuple; ConfigError on an unknown or repeated
    name."""
    names = tuple(checks)
    unknown = [name for name in names if name not in _CHECK_FUNCTIONS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; "
                          f"available: {sorted(_CHECK_FUNCTIONS)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"checks {repeated} named more than once")
    return names


def run_checks(trace: ExecutionTrace,
               checks: Sequence[str] | None = None) -> dict[str, dict]:
    """Run the named checks (all by default) sharing intermediate products;
    returns {name: {passed, worst_margin, witness}}."""
    names = check_names(DEFAULT_CHECKS if checks is None else checks)
    shared = _Shared(trace)
    shared.folds(sorted({key for name in names if name in _FORWARD_RANGES
                         for key in _FORWARD_RANGES[name](trace)}))
    return {name: _CHECK_FUNCTIONS[name](trace, shared=shared).to_dict()
            for name in names}


# -- trajectory decomposition ----------------------------------------------------

@dataclass(eq=False)
class DriftCheckpoint:
    """Split of one log-ratio trajectory value into pinned-row drift, its
    zero-mean fluctuation, and per-agent deviation terms, with the bounds
    each part must respect."""

    t: int
    reference_row: int
    drift: float
    drift_bound: float
    slln: float
    slln_bound: float
    max_fluctuation: float
    fluctuation_bound: float
    identity_residual: float

    @property
    def passed(self) -> bool:
        return (self.drift <= self.drift_bound + ANALYTIC_SLACK
                and abs(self.slln) <= self.slln_bound
                and self.max_fluctuation <= self.fluctuation_bound + 1e-9
                and self.identity_residual <= PSI_RESIDUAL_TOLERANCE)


@dataclass(eq=False)
class DriftDecomposition:
    theta: str
    theta_star: str
    C0: float
    C1: float
    checkpoints: tuple[DriftCheckpoint, ...]

    @property
    def passed(self) -> bool:
        return all(cp.passed for cp in self.checkpoints)


def decompose_log_ratio_drift(trace: ExecutionTrace, theta: str,
                              theta_star: str, C1: float,
                              checkpoints: Sequence[int] | None = None,
                              ) -> DriftDecomposition:
    """At each checkpoint t, write the log-ratio of the reference agent as
    fluctuation + centered sum + drift and compare each part to its bound.

    C1 is passed in (it needs the identifiability report) so callers control
    whether the gate already ran. The matrices, the census, the
    pseudo-beliefs and the backward folds over [1, t] come from a _Shared
    memo, as the checks' do.
    """
    cfg = trace.config
    shared = _Shared(trace)
    structure = shared.structure
    T, n = trace.iterations, trace.n
    if checkpoints is None:
        checkpoints = sorted({max(2, T // 4), max(2, T // 2),
                              max(2, (3 * T) // 4)})
    psi = psi_series(trace, theta, theta_star, pseudo=shared.pseudo)
    ratios = log_ratio_vectors(trace, theta, theta_star)
    expected = expected_ratio_vectors(trace, theta, theta_star)
    C0 = compute_log_ratio_bound(cfg.model)
    tail = geometric_tail_constant(structure, cfg.f)
    fluct_bound = n * tail * C0 if math.isfinite(tail) else math.inf

    for t in checkpoints:
        if not 1 <= t <= T:
            raise ValueError(f"checkpoint {t} outside 1..{T}")
    folds = shared.folds([(1, t) for t in checkpoints], backward=True)
    results = []
    for t, later in zip(checkpoints, folds):
        rows = np.flatnonzero(trace.alive_after[t - 1])
        # the product over [r + 1, t] is later[r]; the terms of r are
        # summed from r = t down to 1
        pi_rows = later[1:, rows[0], None]
        drift = float(_sum_in_order(_apply(pi_rows, expected[:t])[::-1, 0]))
        slln = float(_sum_in_order(
            _apply(pi_rows, ratios[:t] - expected[:t])[::-1, 0]))
        deviations = (_sum_in_order(_apply(later[1:] - pi_rows, ratios[:t])[::-1])
                      + later[0] @ psi[0])
        residuals = psi[t][rows] - (deviations[rows] + slln + drift)
        results.append(DriftCheckpoint(
            t=t, reference_row=int(rows[0]) + 1,
            drift=drift, drift_bound=-C1 * structure.xi_window_float * t,
            slln=slln, slln_bound=6.0 * C0 * math.sqrt(t),
            max_fluctuation=float(np.max(np.abs(deviations[rows]))),
            fluctuation_bound=fluct_bound,
            identity_residual=float(np.max(np.abs(residuals)))))
    return DriftDecomposition(theta=theta, theta_star=theta_star, C0=C0, C1=C1,
                              checkpoints=tuple(results))
