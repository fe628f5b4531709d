"""Matrix reconstruction of traces and numerical checks of their guarantees.

A trace induces one row-stochastic update matrix per iteration: agents that
completed the iteration get weight 1/(quorum size + 1) on themselves and on
each quorum member, everyone else keeps a unit row. Log pseudo-belief ratios
then satisfy a linear recursion driven by per-iteration log-likelihood-ratio
vectors, and every convergence statement about the protocol is a statement
about backward products of these matrices.

Each check_* function verifies one such statement on a concrete trace and
returns a CheckResult; run_checks bundles them. Checks never loosen a bound
to pass: structural claims (zero columns, dominating reduced graphs, source
mass thresholds) are asserted exactly, in float or rational arithmetic as
appropriate, and analytic inequalities carry only a 1e-12 rounding slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .engine import (ExecutionTrace, advance_beliefs, iteration_groups,
                     log_likelihood_rows)
from .graphs import (DEFAULT_ENUMERATION_CAP, DirectedGraph,
                     first_dominated_nodes, source_census)
from .observation import (LikelihoodModel, _ordered_pairs,
                          compute_log_ratio_bound, expected_log_ratios)

ANALYTIC_SLACK = 1e-12          # rounding slack on exact inequalities
PSEUDO_IDENTITY_TOLERANCE = 1e-9
PSI_RESIDUAL_TOLERANCE = 1e-8
ROW_SUM_TOLERANCE = 1e-12

DEFAULT_CHECKS = ("lemma1", "lemma2", "thm2", "prop1", "prop2", "prop3",
                  "lemma4", "psi")


# -- structural constants -----------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    """Reduced-graph census of (graph, f) used by the convergence bounds."""

    sources: tuple[frozenset[int], ...]     # deduplicated source components
    chi: int                                # number of distinct reduced graphs
    gamma: int                              # smallest source component size
    xi: Fraction                            # influence floor of the base graph
    window: int                             # graph size times chi

    def xi_window_exact(self) -> Fraction:
        return self.xi ** self.window

    def xi_window_float(self) -> float:
        try:
            return float(self.xi_window_exact())
        except OverflowError:
            return 0.0


def structure_constants(graph: DirectedGraph, f: int,
                        max_candidates: int = DEFAULT_ENUMERATION_CAP,
                        ) -> StructureConstants:
    census = source_census(graph, f, max_candidates)
    return StructureConstants(sources=census.sources, chi=census.chi,
                              gamma=census.gamma, xi=graph.influence_floor(),
                              window=graph.n * census.chi)


# -- matrices and products ----------------------------------------------------

@dataclass(eq=False)
class UpdateMatrix:
    """Row-stochastic matrix of one iteration plus the sets that shaped it."""

    t: int
    matrix: np.ndarray
    alive: frozenset[int]
    completers: frozenset[int]
    quorums: dict[int, tuple[int, ...]]


def _update_matrices(trace: ExecutionTrace, ts: range) -> tuple[UpdateMatrix, ...]:
    """The matrices of iterations ts, from the completed mask and quorums."""
    rows = slice(ts.start - 1, ts.stop - 1)
    completed, quorum = trace.completed[rows], trace.quorum[rows]
    matrices = np.zeros(completed.shape + completed.shape[1:], dtype=np.float64)
    steps, agents = np.nonzero(completed)
    quorums = quorum[steps, agents]
    sizes = np.add.reduce(quorums >= 0, axis=1)
    weights = 1.0 / (sizes + 1)
    cells, places = np.nonzero(quorums >= 0)
    matrices[steps[cells], agents[cells], quorums[cells, places] - 1] = weights[cells]
    matrices[steps, agents, agents] = 1.0 - sizes * weights
    idle_steps, idle = np.nonzero(~completed)
    matrices[idle_steps, idle, idle] = 1.0
    return tuple(UpdateMatrix(t=t, matrix=matrix, alive=trace.alive_at_start(t),
                              completers=trace.completed_at(t),
                              quorums=trace.quorums_at(t))
                 for t, matrix in zip(ts, matrices))


def build_update_matrix(trace: ExecutionTrace, t: int) -> UpdateMatrix:
    return _update_matrices(trace, range(t, t + 1))[0]


def trace_matrices(trace: ExecutionTrace) -> tuple[UpdateMatrix, ...]:
    return _update_matrices(trace, range(1, trace.iterations + 1))


def backward_product(matrices: Sequence[UpdateMatrix], t_hi: int, t_lo: int,
                     ) -> np.ndarray:
    """Product of the iteration matrices from t_hi down to t_lo; the empty
    range t_lo = t_hi + 1 gives the identity."""
    n = matrices[0].matrix.shape[0]
    if t_lo > t_hi + 1:
        raise ValueError(f"empty product range start {t_lo} > {t_hi + 1}")
    product = np.eye(n, dtype=np.float64)
    for tau in range(t_lo, t_hi + 1):
        product = matrices[tau - 1].matrix @ product
    return product


def ergodic_coefficients(matrix: np.ndarray, rows: Iterable[int],
                         ) -> tuple[float, float]:
    """Disagreement delta and overlap eta of the rows named by agent labels.

    Pairs include (i, i), so a single restricted row gives delta 0 and eta
    equal to its row sum.
    """
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


def theorem2_bound(t: int, r: int, structure: StructureConstants, f: int) -> float:
    """Contraction bound on the disagreement of the product over [r, t]."""
    exponent = (t - r + 1) // structure.window - f
    if exponent <= 0:
        return 1.0
    base = 1.0 - structure.xi_window_float()
    return min(1.0, base ** exponent)


def geometric_tail_constant(xi: Fraction, n: int, chi: int, f: int) -> Fraction:
    """Closed form of the summed contraction bounds over an infinite horizon:
    window * ((f + 1) + (1 - q) / q) with q = xi ** window."""
    window = n * chi
    q = xi ** window
    return window * ((f + 1) + (1 - q) / q)


def geometric_tail_constant_float(xi: Fraction, n: int, chi: int, f: int) -> float:
    try:
        return float(geometric_tail_constant(xi, n, chi, f))
    except OverflowError:
        return math.inf


# -- pseudo-beliefs and log ratios ---------------------------------------------

def pseudo_belief_evolution(trace: ExecutionTrace,
                            model: LikelihoodModel | None = None) -> np.ndarray:
    """(T + 1, n, m) log array: completers apply the exact engine update, all
    other agents carry their previous value forward unchanged."""
    model = model or trace.config.model
    out = np.empty((trace.iterations + 1,) + trace.initial_log_belief.shape,
                   dtype=np.float64)
    out[0] = trace.initial_log_belief
    log_likelihood = log_likelihood_rows(model, trace.signal)
    for t, groups in enumerate(iteration_groups(trace.completed, trace.quorum)):
        out[t + 1] = advance_beliefs(out[t], groups, log_likelihood[t])
    return out


def log_ratio_vectors(trace: ExecutionTrace, model: LikelihoodModel | None,
                      theta: str, theta_star: str) -> np.ndarray:
    """(T, n) array of per-iteration log-likelihood-ratio inputs; zero for
    agents that did not complete the iteration."""
    model = model or trace.config.model
    a = model.hypothesis_index(theta)
    b = model.hypothesis_index(theta_star)
    rows = log_likelihood_rows(model, trace.signal)
    return np.where(trace.completed, rows[..., a] - rows[..., b], 0.0)


def expected_ratio_vectors(trace: ExecutionTrace, model: LikelihoodModel | None,
                           theta: str, theta_star: str) -> np.ndarray:
    """(T, n) expectations of the log-ratio inputs under the true hypothesis:
    minus the agent KL divergence, masked to completers."""
    model = model or trace.config.model
    return np.where(trace.completed,
                    expected_log_ratios(model, theta, theta_star), 0.0)


def psi_series(trace: ExecutionTrace, model: LikelihoodModel | None,
               theta: str, theta_star: str,
               pseudo: np.ndarray | None = None) -> np.ndarray:
    """(T + 1, n) log pseudo-belief ratios theta over theta_star."""
    model = model or trace.config.model
    if pseudo is None:
        pseudo = pseudo_belief_evolution(trace, model)
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


def estimate_pi(trace: ExecutionTrace, r: int, horizon: int | None = None,
                matrices: Sequence[UpdateMatrix] | None = None,
                structure: StructureConstants | None = None) -> PiEstimate:
    config = trace.config
    if structure is None:
        structure = structure_constants(config.graph, config.f)
    if matrices is None:
        matrices = trace_matrices(trace)
    T = trace.iterations
    if not 1 <= r <= T:
        raise ValueError(f"r={r} outside 1..{T}")
    if horizon is None:
        horizon = min(T, r + structure.window * (config.f + 30))
    if not r <= horizon <= T:
        raise ValueError(f"horizon {horizon} outside {r}..{T}")
    product = backward_product(matrices, horizon, r)
    rows = trace.alive_at_start(horizon + 1)
    reference = min(rows)
    residual, _ = ergodic_coefficients(product, rows)
    bound = theorem2_bound(horizon, r, structure, config.f)
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
    """Lazily computed objects reused across checks on one trace."""

    def __init__(self, trace: ExecutionTrace, model: LikelihoodModel | None):
        self.trace = trace
        self.model = model or trace.config.model

    @cached_property
    def matrices(self) -> tuple[UpdateMatrix, ...]:
        return trace_matrices(self.trace)

    @cached_property
    def structure(self) -> StructureConstants:
        return structure_constants(self.trace.config.graph, self.trace.config.f)

    @cached_property
    def pseudo(self) -> np.ndarray:
        return pseudo_belief_evolution(self.trace, self.model)

    @cached_property
    def pi_samples(self) -> list[PiEstimate]:
        return [estimate_pi(self.trace, r, matrices=self.matrices,
                            structure=self.structure)
                for r in _pi_sample_points(self.trace)]


# -- individual checks ------------------------------------------------------------

def check_lemma1(trace: ExecutionTrace, model: LikelihoodModel | None = None,
                 shared: _Shared | None = None) -> CheckResult:
    """Disagreement of any backward product is at most one minus its overlap,
    and restricting to later (smaller) alive sets never hurts either side.
    Crash-free windows of the structural length have overlap at least the
    influence floor raised to that length."""
    shared = shared or _Shared(trace, model)
    matrices, structure = shared.matrices, shared.structure
    T, n = trace.iterations, trace.n
    worst = math.inf
    witness = None
    base_rows = trace.alive_at_start(1)

    product = np.eye(n)
    for t in range(T, 0, -1):
        product = product @ matrices[t - 1].matrix     # now the product over [t, T]
        d_late, e_late = ergodic_coefficients(product, trace.alive_at_start(t))
        d_full, e_full = ergodic_coefficients(product, base_rows)
        for label, delta, eta in (("restricted", d_late, e_late),
                                  ("full", d_full, e_full)):
            margin = (1.0 - eta) - delta + ANALYTIC_SLACK
            if margin < worst:
                worst, witness = margin, {"t": t, "rows": label,
                                          "delta": delta, "eta": eta}
        mono = min(d_full - d_late, e_late - e_full) + ANALYTIC_SLACK
        if mono < worst:
            worst, witness = mono, {"t": t, "rows": "monotonicity",
                                    "delta": (d_late, d_full),
                                    "eta": (e_late, e_full)}

    crash_iterations = {ev.iteration for ev in trace.config.adversary.crash_plan}
    window = structure.window
    floor = structure.xi_window_float()
    windows_checked = 0
    for start in range(1, T - window + 2, window):
        span = range(start, start + window)
        if crash_iterations.intersection(span):
            continue
        block = backward_product(matrices, start + window - 1, start)
        _, eta = ergodic_coefficients(block, trace.alive_at_start(start))
        windows_checked += 1
        margin = eta - floor + ANALYTIC_SLACK
        if margin < worst:
            worst, witness = margin, {"t": start, "rows": "window",
                                      "eta": eta, "floor": floor}
    if witness is not None and isinstance(witness, dict):
        witness = dict(witness, windows_checked=windows_checked)
    return CheckResult("lemma1", worst >= 0.0, float(worst), witness)


def check_lemma2(trace: ExecutionTrace, model: LikelihoodModel | None = None,
                 shared: _Shared | None = None, n_triples: int = 50,
                 seed: int = 0) -> CheckResult:
    """Splitting a product at any interior point contracts disagreement by at
    least the overlap of the later factor, rows restricted to survivors of
    the split point."""
    shared = shared or _Shared(trace, model)
    matrices = shared.matrices
    T = trace.iterations
    if T < 2:
        return CheckResult("lemma2", True, math.inf, "trace too short to split")
    rng = np.random.default_rng(seed)
    worst = math.inf
    witness = None
    tried = 0
    while tried < n_triples:
        draws = sorted(int(v) for v in rng.integers(1, T + 1, size=3))
        t0, t1, t2 = draws
        if t1 == t2:
            continue
        tried += 1
        early = backward_product(matrices, t1, t0)
        late = backward_product(matrices, t2, t1 + 1)
        full = late @ early
        rows = trace.alive_at_start(t1 + 1)
        d_full, _ = ergodic_coefficients(full, rows)
        d_early, _ = ergodic_coefficients(early, rows)
        _, e_late = ergodic_coefficients(late, rows)
        margin = (1.0 - e_late) * d_early - d_full + ANALYTIC_SLACK
        if margin < worst:
            worst, witness = margin, {"t0": t0, "t1": t1, "t2": t2,
                                      "lhs": d_full,
                                      "rhs": (1.0 - e_late) * d_early}
    return CheckResult("lemma2", worst >= 0.0, float(worst), witness)


def check_thm2(trace: ExecutionTrace, model: LikelihoodModel | None = None,
               shared: _Shared | None = None) -> CheckResult:
    """Products over [r, t] have disagreement within the window-counting
    contraction bound at every strided t for several anchors r."""
    shared = shared or _Shared(trace, model)
    matrices, structure = shared.matrices, shared.structure
    T, n = trace.iterations, trace.n
    f = trace.config.f
    anchors = sorted({1, max(1, T // 4), max(1, T // 2)})
    stride = max(1, T // 100)
    worst = math.inf
    witness = None
    for r in anchors:
        product = np.eye(n)
        for t in range(r, T + 1):
            product = matrices[t - 1].matrix @ product
            if (t - r) % stride and t != T:
                continue
            delta, _ = ergodic_coefficients(product, trace.alive_at_start(t + 1))
            bound = theorem2_bound(t, r, structure, f)
            margin = bound - delta + ANALYTIC_SLACK
            if margin < worst:
                worst, witness = margin, {"r": r, "t": t, "delta": delta,
                                          "bound": bound}
    return CheckResult("thm2", worst >= 0.0, float(worst), witness)


def check_prop1(trace: ExecutionTrace, model: LikelihoodModel | None = None,
                shared: _Shared | None = None) -> CheckResult:
    """Every iteration matrix dominates xi times the adjacency of some
    reduced graph: support inclusion picks the first such graph in
    enumeration order, then every required entry is at least xi as an exact
    rational. A completer's quorum entries carry its diagonal weight, so the
    graph's nodes give every required value."""
    shared = shared or _Shared(trace, model)
    matrices, xi = shared.matrices, shared.structure.xi
    graph, f = trace.config.graph, trace.config.f
    failures: list[int] = []
    worst_slack = math.inf
    for um in matrices:
        nodes = first_dominated_nodes(graph, f, um.quorums)
        if nodes is None:
            failures.append(um.t)
            continue
        required = [Fraction(1, len(um.quorums[node]) + 1)
                    if node in um.quorums else Fraction(1) for node in nodes]
        if any(weight < xi for weight in required):
            failures.append(um.t)
            continue
        worst_slack = min([worst_slack]
                          + [float(weight - xi) for weight in required])
    if failures:
        return CheckResult("prop1", False, -1.0,
                           {"iterations_without_dominated_reduction":
                            sorted(set(failures))})
    return CheckResult("prop1", True, float(worst_slack), None)


def check_prop2(trace: ExecutionTrace, model: LikelihoodModel | None = None,
                shared: _Shared | None = None) -> CheckResult:
    """From every alive-set boundary r: products over [r, tau] keep columns of
    agents dead at r exactly zero and rows of agents alive at r summing to
    one within rounding."""
    shared = shared or _Shared(trace, model)
    matrices = shared.matrices
    T, n = trace.iterations, trace.n
    changes = (trace.alive[1:] != trace.alive[:-1]).any(axis=1)
    boundaries = [1] + (np.flatnonzero(changes) + 2).tolist()
    worst = math.inf
    witness = None
    for r in boundaries:
        alive_idx = np.flatnonzero(trace.alive[r - 1])
        dead_idx = np.flatnonzero(~trace.alive[r - 1])
        product = np.eye(n)
        for tau in range(r, T + 1):
            product = matrices[tau - 1].matrix @ product
            if dead_idx.size:
                block = product[np.ix_(alive_idx, dead_idx)]
                if np.any(block != 0.0):
                    where = np.argwhere(block != 0.0)[0]
                    return CheckResult(
                        "prop2", False, -float(np.max(np.abs(block))),
                        {"r": r, "tau": tau, "i": int(alive_idx[where[0]]) + 1,
                         "j": int(dead_idx[where[1]]) + 1,
                         "value": float(block[tuple(where)])})
            gaps = np.abs(product[alive_idx].sum(axis=1) - 1.0)
            margin = ROW_SUM_TOLERANCE - float(np.max(gaps))
            if margin < worst:
                worst = margin
                witness = {"r": r, "tau": tau,
                           "max_row_sum_gap": float(np.max(gaps))}
    return CheckResult("prop2", worst >= 0.0, float(worst), witness)


def check_prop3(trace: ExecutionTrace, model: LikelihoodModel | None = None,
                shared: _Shared | None = None) -> CheckResult:
    """Estimated influence rows: the surviving rows of the estimating product
    agree within the contraction bound, and agents already dead at r carry
    exactly zero estimated influence."""
    shared = shared or _Shared(trace, model)
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


def check_lemma4(trace: ExecutionTrace, model: LikelihoodModel | None = None,
                 shared: _Shared | None = None) -> CheckResult:
    """At every sampled r some reduced-graph source component has estimated
    influence at least xi to the structural window power on every member
    (compared as exact rationals), and its size is at least gamma."""
    shared = shared or _Shared(trace, model)
    structure = shared.structure
    threshold = structure.xi_window_exact()
    worst = math.inf
    witness = None
    for est in shared.pi_samples:
        exact = [Fraction(float(v)) for v in est.pi]
        best = None
        for source in structure.sources:
            if all(exact[k - 1] >= threshold for k in source):
                mass = sum(exact[k - 1] for k in source)
                if best is None or mass > best[1]:
                    best = (source, mass)
        if best is None:
            return CheckResult("lemma4", False, -1.0,
                               {"r": est.r, "pi": est.pi.tolist(),
                                "reason": "no source clears the threshold"})
        source, mass = best
        if len(source) < structure.gamma:
            return CheckResult("lemma4", False, -1.0,
                               {"r": est.r, "source": sorted(source),
                                "reason": f"source smaller than gamma="
                                          f"{structure.gamma}"})
        margin = float(mass - threshold)
        if margin < worst:
            worst = margin
            witness = {"r": est.r, "source": sorted(source),
                       "mass": float(mass)}
    return CheckResult("lemma4", worst >= 0.0, float(worst), witness)


def check_psi(trace: ExecutionTrace, model: LikelihoodModel | None = None,
              shared: _Shared | None = None) -> CheckResult:
    """Pseudo-beliefs replayed from the trace match recorded beliefs on every
    completer; log ratios satisfy the one-step matrix recursion and the full
    backward-product expansion."""
    shared = shared or _Shared(trace, model)
    model = shared.model
    trace_ = shared.trace
    matrices = shared.matrices
    pseudo = shared.pseudo
    T, n = trace_.iterations, trace_.n

    gaps = np.where(trace_.completed,
                    np.abs(pseudo[1:] - trace_.log_belief).max(axis=2), 0.0)
    identity_gap = float(gaps.max())
    identity_witness = None
    if identity_gap > 0.0:
        t, agent = divmod(int(np.argmax(gaps)), n)
        identity_witness = {"t": t + 1, "agent": agent + 1}
    margins = [(PSEUDO_IDENTITY_TOLERANCE - identity_gap,
                dict(identity_witness or {}, part="pseudo_identity",
                     gap=identity_gap))]

    checkpoints = sorted({max(1, T // 3), max(1, (2 * T) // 3), T})
    for theta, theta_star in _ordered_pairs(model):
        psi = psi_series(trace_, model, theta, theta_star, pseudo=pseudo)
        ratios = log_ratio_vectors(trace_, model, theta, theta_star)
        recursion_gap = 0.0
        recursion_witness = None
        for t in range(1, T + 1):
            predicted = matrices[t - 1].matrix @ psi[t - 1] + ratios[t - 1]
            gap = float(np.max(np.abs(psi[t] - predicted)))
            if gap > recursion_gap:
                recursion_gap, recursion_witness = gap, {"t": t,
                                                         "pair": (theta,
                                                                  theta_star)}
        margins.append((PSI_RESIDUAL_TOLERANCE - recursion_gap,
                        dict(recursion_witness or {}, part="recursion",
                             gap=recursion_gap)))
        for t in checkpoints:
            acc = np.eye(n)
            total = np.zeros(n)
            for r in range(t, 0, -1):
                total = total + acc @ ratios[r - 1]
                acc = acc @ matrices[r - 1].matrix
            total = total + acc @ psi[0]
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


def run_checks(trace: ExecutionTrace, model: LikelihoodModel | None = None,
               checks: Sequence[str] | None = None) -> dict[str, dict]:
    """Run the named checks (all by default) sharing intermediate products;
    returns {name: {passed, worst_margin, witness}}."""
    names = tuple(checks) if checks is not None else DEFAULT_CHECKS
    unknown = [name for name in names if name not in _CHECK_FUNCTIONS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; "
                         f"available: {sorted(_CHECK_FUNCTIONS)}")
    shared = _Shared(trace, model)
    return {name: _CHECK_FUNCTIONS[name](trace, shared.model,
                                         shared=shared).to_dict()
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


def decompose_log_ratio_drift(trace: ExecutionTrace,
                              model: LikelihoodModel | None,
                              theta: str, theta_star: str, C1: float,
                              checkpoints: Sequence[int] | None = None,
                              ) -> DriftDecomposition:
    """At each checkpoint t, write the log-ratio of the reference agent as
    fluctuation + centered sum + drift and compare each part to its bound.

    C1 is passed in (it needs the identifiability report) so callers control
    whether the gate already ran.
    """
    model = model or trace.config.model
    cfg = trace.config
    structure = structure_constants(cfg.graph, cfg.f)
    matrices = trace_matrices(trace)
    T, n = trace.iterations, trace.n
    if checkpoints is None:
        checkpoints = sorted({max(2, T // 4), max(2, T // 2),
                              max(2, (3 * T) // 4)})
    psi = psi_series(trace, model, theta, theta_star)
    ratios = log_ratio_vectors(trace, model, theta, theta_star)
    expected = expected_ratio_vectors(trace, model, theta, theta_star)
    C0 = compute_log_ratio_bound(model)
    xi_pow = structure.xi_window_float()
    tail = geometric_tail_constant_float(structure.xi, n, structure.chi, cfg.f)
    fluct_bound = n * tail * C0 if math.isfinite(tail) else math.inf

    results = []
    for t in checkpoints:
        if not 1 <= t <= T:
            raise ValueError(f"checkpoint {t} outside 1..{T}")
        rows = sorted(trace.alive_at_start(t + 1))
        reference = rows[0]
        acc = np.eye(n)                      # product over [r + 1, t]
        drift = 0.0
        slln = 0.0
        deviations = np.zeros(n)
        for r in range(t, 0, -1):
            pi_row = acc[reference - 1]
            drift += float(pi_row @ expected[r - 1])
            slln += float(pi_row @ (ratios[r - 1] - expected[r - 1]))
            deviations = deviations + (acc - pi_row) @ ratios[r - 1]
            acc = acc @ matrices[r - 1].matrix
        deviations = deviations + acc @ psi[0]
        identity_residual = max(abs(psi[t][i - 1]
                                    - (deviations[i - 1] + slln + drift))
                                for i in rows)
        results.append(DriftCheckpoint(
            t=t, reference_row=reference,
            drift=drift, drift_bound=-C1 * xi_pow * t,
            slln=slln, slln_bound=6.0 * C0 * math.sqrt(t),
            max_fluctuation=float(np.max(np.abs(deviations[[i - 1
                                                            for i in rows]]))),
            fluctuation_bound=fluct_bound,
            identity_residual=float(identity_residual)))
    return DriftDecomposition(theta=theta, theta_star=theta_star, C0=C0, C1=C1,
                              checkpoints=tuple(results))
