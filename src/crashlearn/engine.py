"""Asynchronous consensus-plus-likelihood belief updates under crash faults.

Protocol per agent i and iteration t:
  1. transmit the current belief to every out-neighbor,
  2. wait until iteration-t messages from len(in_neighbors) - f distinct
     senders have been delivered; the quorum is exactly the earliest such
     messages, ties broken by sender label,
  3. draw one private signal and replace the belief with the normalized
     product of the likelihood row and the geometric mean of the quorum
     beliefs together with its own, each raised to 1/(quorum size + 1).

Crash faults remove an agent at one of four points inside an iteration:
  before_transmit  dies at the start of the iteration, sends nothing;
  after_transmit   sends, then dies without updating;
  mid_update       sends, consumes a quorum and a signal, overwrites only
                   the first partial_count log-belief entries with the
                   unnormalized update values, renormalizes, then dies;
  after_update     finishes the iteration normally, then dies, so it never
                   acts again from the next iteration on.
Dead agents keep their last belief frozen and are dropped from every later
quorum because they never transmit again.

A run is computed as: schedule, then one belief pass. Quorums and crash
points depend only on message delays and the crash plan, never on belief
values, so a belief-free scheduler first fixes who hears whom in every
iteration, and one pass then updates each iteration's agents in one kernel
call. Message delays come from per-sender substreams (uniform mode), a fixed
table (fixed mode), or a worst-case scheduler (adversarial_latest) that
withholds every message as long as possible, which collapses execution to
synchronized rounds where each quorum is the lowest-labeled transmitting
in-neighbors. Signals come from per-agent substreams consumed in iteration
order, so the signal sequence of an agent does not depend on the delay
schedule.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .graphs import DirectedGraph
from .observation import LikelihoodModel, signal_indices_from_uniforms

# The crash-phase state machine: what an agent does in the iteration its
# crash phase names (None: no crash) as (transmits, takes_quorum, completes).
# Any phase ends the agent after that iteration.
_PHASE_RULES = {
    None: (True, True, True),
    "before_transmit": (False, False, False),
    "after_transmit": (True, False, False),
    "mid_update": (True, True, False),
    "after_update": (True, True, True),
}
CRASH_PHASES = tuple(phase for phase in _PHASE_RULES if phase is not None)
ADVERSARY_MODES = ("uniform", "fixed", "adversarial_latest")

SIGNAL_STREAM = 0
DELAY_STREAM = 1

BELIEF_NORMALIZATION_TOLERANCE = 1e-9


class ConfigError(ValueError):
    """Simulation configuration rejected before any execution starts."""


class DeadlockError(RuntimeError):
    """An alive agent can never assemble its quorum; execution cannot finish."""


class TraceInvariantError(RuntimeError):
    """A persisted or constructed trace violates a protocol invariant."""


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class CrashEvent:
    """One scheduled crash. partial_count is only meaningful for mid_update."""

    agent: int
    iteration: int
    phase: str
    partial_count: int | None = None

    def to_dict(self) -> dict:
        return {"agent": self.agent, "iteration": self.iteration,
                "phase": self.phase, "partial_count": self.partial_count}

    @classmethod
    def from_dict(cls, payload: Mapping) -> CrashEvent:
        pc = payload.get("partial_count")
        return cls(agent=int(payload["agent"]), iteration=int(payload["iteration"]),
                   phase=str(payload["phase"]),
                   partial_count=None if pc is None else int(pc))


def _delay_key(sender: int, receiver: int) -> str:
    return f"{sender}->{receiver}"


@dataclass(frozen=True)
class AdversarySchedule:
    """Message-delay regime plus the crash plan.

    fixed_delays is only read in fixed mode: None means every link delay is
    zero, a float is a shared constant, and a mapping gives one delay per
    directed edge (all edges must be covered).
    """

    mode: str = "uniform"
    dmax: float = 1.0
    fixed_delays: float | Mapping[tuple[int, int], float] | None = None
    crash_plan: tuple[CrashEvent, ...] = ()

    def delay_for(self, sender: int, receiver: int) -> float:
        if self.fixed_delays is None:
            return 0.0
        if isinstance(self.fixed_delays, (int, float)):
            return float(self.fixed_delays)
        return float(self.fixed_delays[(sender, receiver)])

    def to_dict(self) -> dict:
        fixed = self.fixed_delays
        if isinstance(fixed, Mapping):
            fixed = {_delay_key(s, r): float(d) for (s, r), d in sorted(fixed.items())}
        return {"mode": self.mode, "dmax": self.dmax, "fixed_delays": fixed,
                "crash_plan": [ev.to_dict() for ev in self.crash_plan]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> AdversarySchedule:
        fixed = payload.get("fixed_delays")
        if isinstance(fixed, Mapping):
            parsed = {}
            for key, value in fixed.items():
                sender, _, receiver = key.partition("->")
                parsed[(int(sender), int(receiver))] = float(value)
            fixed = parsed
        elif fixed is not None:
            fixed = float(fixed)
        return cls(mode=str(payload.get("mode", "uniform")),
                   dmax=float(payload.get("dmax", 1.0)),
                   fixed_delays=fixed,
                   crash_plan=tuple(CrashEvent.from_dict(ev)
                                    for ev in payload.get("crash_plan", ())))


@dataclass(frozen=True)
class SimulationConfig:
    graph: DirectedGraph
    f: int
    model: LikelihoodModel
    theta_star: str
    iterations: int
    seed: int
    adversary: AdversarySchedule = field(default_factory=AdversarySchedule)

    def validate(self) -> None:
        g, model = self.graph, self.model
        if g.n != model.n:
            raise ConfigError(f"graph has {g.n} nodes but model has {model.n} agents")
        if not 0 <= self.f <= g.min_in_degree:
            raise ConfigError(f"f={self.f} outside [0, min in-degree={g.min_in_degree}]")
        if self.iterations < 1:
            raise ConfigError(f"iterations={self.iterations} must be >= 1")
        if self.theta_star not in model.hypotheses:
            raise ConfigError(f"theta_star {self.theta_star!r} not a hypothesis")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        adv = self.adversary
        if adv.mode not in ADVERSARY_MODES:
            raise ConfigError(f"unknown adversary mode {adv.mode!r}")
        if adv.mode == "uniform":
            if not (math.isfinite(adv.dmax) and adv.dmax > 0):
                raise ConfigError(f"uniform mode needs dmax > 0, got {adv.dmax}")
        if adv.mode == "fixed" and adv.fixed_delays is not None:
            if isinstance(adv.fixed_delays, Mapping):
                missing = [e for e in g.edges if e not in adv.fixed_delays]
                if missing:
                    raise ConfigError(f"fixed_delays missing edges {sorted(missing)[:5]}")
                bad = {e: d for e, d in adv.fixed_delays.items()
                       if not (math.isfinite(d) and d >= 0)}
                if bad:
                    raise ConfigError(f"fixed_delays must be finite and >= 0: {bad}")
            elif not (math.isfinite(adv.fixed_delays) and adv.fixed_delays >= 0):
                raise ConfigError(f"fixed delay must be finite and >= 0")
        plan = adv.crash_plan
        if len(plan) > self.f:
            raise ConfigError(f"{len(plan)} crash events exceed f={self.f}")
        agents = [ev.agent for ev in plan]
        if len(set(agents)) != len(agents):
            raise ConfigError("crash plan agents must be distinct")
        for ev in plan:
            if not 1 <= ev.agent <= g.n:
                raise ConfigError(f"crash agent {ev.agent} outside 1..{g.n}")
            if not 1 <= ev.iteration <= self.iterations:
                raise ConfigError(f"crash iteration {ev.iteration} outside "
                                  f"1..{self.iterations}")
            if ev.phase not in CRASH_PHASES:
                raise ConfigError(f"unknown crash phase {ev.phase!r}")
            if ev.phase == "mid_update":
                if ev.partial_count is None or not 1 <= ev.partial_count <= model.m - 1:
                    raise ConfigError(f"mid_update partial_count must lie in "
                                      f"1..{model.m - 1}, got {ev.partial_count}")
            elif ev.partial_count is not None:
                raise ConfigError(f"partial_count only applies to mid_update")

    def to_dict(self) -> dict:
        return {"graph": self.graph.to_dict(), "f": self.f,
                "model": self.model.to_dict(), "theta_star": self.theta_star,
                "iterations": self.iterations, "seed": self.seed,
                "adversary": self.adversary.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> SimulationConfig:
        return cls(graph=DirectedGraph.from_dict(payload["graph"]),
                   f=int(payload["f"]),
                   model=LikelihoodModel.from_dict(payload["model"]),
                   theta_star=str(payload["theta_star"]),
                   iterations=int(payload["iterations"]),
                   seed=int(payload["seed"]),
                   adversary=AdversarySchedule.from_dict(payload.get("adversary", {})))


# -- belief arithmetic --------------------------------------------------------
#
# Every function here works on one (m,) vector or on a (k, m) block of rows
# alike, with the same floating-point operations per entry, so a batched
# update is bitwise equal to k one-row updates.

def combine_log_beliefs(current: np.ndarray, neighbor_logs: Sequence[np.ndarray],
                        quorum_size: int, log_likelihood: np.ndarray) -> np.ndarray:
    """Unnormalized log update. Weights sum to exactly 1.0 in floats.

    neighbor_logs must already be ordered (ascending sender label) so the
    summation order, and therefore the rounding, is reproducible.
    """
    if len(neighbor_logs) != quorum_size:
        raise ValueError(f"expected {quorum_size} neighbor beliefs, "
                         f"got {len(neighbor_logs)}")
    weight = 1.0 / (quorum_size + 1)
    self_weight = 1.0 - quorum_size * weight
    acc = self_weight * current
    for other in neighbor_logs:
        acc = acc + weight * other
    return acc + log_likelihood


def log_normalizer(rows: np.ndarray) -> np.ndarray:
    """Log-sum-exp along the last axis, kept as a length-1 axis.

    The largest entry and its ties are split off the shifted sum, the
    formula scipy.special.logsumexp uses, so the two agree bit for bit on
    finite input: log1p(sum(exp(row - top), ties excluded) / c) + log(c)
    + top, with c the number of ties.
    """
    top = np.maximum.reduce(rows, axis=-1, keepdims=True)
    ties = rows == top
    shifted = np.exp(rows - top)
    shifted[ties] = 0.0
    count = np.add.reduce(ties, axis=-1, keepdims=True, dtype=np.float64)
    return (np.log1p(np.add.reduce(shifted, axis=-1, keepdims=True) / count)
            + np.log(count) + top)


def normalize_log_belief(unnormalized: np.ndarray) -> np.ndarray:
    return unnormalized - log_normalizer(unnormalized)


def _updated(current: np.ndarray, neighbor_logs: Sequence[np.ndarray],
             quorum_size: int, log_likelihood: np.ndarray,
             keep: np.ndarray | None = None) -> np.ndarray:
    """The belief kernel: combine, then normalize. Entries where keep is
    True hold their current value instead (the mid_update partial write)."""
    unnormalized = combine_log_beliefs(current, neighbor_logs, quorum_size,
                                       log_likelihood)
    if keep is not None:
        unnormalized = np.where(keep, current, unnormalized)
    return normalize_log_belief(unnormalized)


def update_belief(current: np.ndarray, neighbor_logs: Sequence[np.ndarray],
                  signal: str, model: LikelihoodModel, agent: int,
                  quorum_size: int) -> np.ndarray:
    """One full belief update in log space; returns a normalized vector."""
    return _updated(current, neighbor_logs, quorum_size,
                    model.log_likelihoods(agent, signal))


def partial_update_belief(current: np.ndarray, neighbor_logs: Sequence[np.ndarray],
                          signal: str, model: LikelihoodModel, agent: int,
                          quorum_size: int, partial_count: int) -> np.ndarray:
    """Crash artifact of mid_update: only the first partial_count entries get
    the unnormalized update values before the whole vector is renormalized."""
    return _updated(current, neighbor_logs, quorum_size,
                    model.log_likelihoods(agent, signal),
                    keep=np.arange(current.shape[-1]) >= partial_count)


QuorumGroup = tuple[np.ndarray, tuple[np.ndarray, ...]]


def group_quorums(updates: Sequence[tuple[int, Sequence[int]]]) -> list[QuorumGroup]:
    """Batch (agent, quorum) pairs by quorum size for advance_beliefs.

    Each group is (rows, members): rows holds the 0-based agent rows, and
    members[p] the 0-based row of each agent's p-th quorum member, in the
    quorum's (ascending) order.
    """
    by_size: dict[int, list[tuple[int, Sequence[int]]]] = {}
    for agent, quorum in updates:
        by_size.setdefault(len(quorum), []).append((agent, quorum))
    groups = []
    for size, members in sorted(by_size.items()):
        rows = np.array([agent - 1 for agent, _ in members], dtype=np.intp)
        table = np.array([[j - 1 for j in quorum] for _, quorum in members],
                         dtype=np.intp).reshape(len(members), size)
        groups.append((rows, tuple(np.ascontiguousarray(col) for col in table.T)))
    return groups


def advance_beliefs(previous: np.ndarray, groups: Sequence[QuorumGroup],
                    log_likelihood: np.ndarray,
                    keep: np.ndarray | None = None) -> np.ndarray:
    """One iteration of the belief kernel over an (n, m) block of beliefs.

    Every grouped row is updated from previous, with its quorum members'
    rows of previous and its row of the (n, m) log_likelihood; keep, if
    given, is an (n, m) mask of entries that hold their previous value.
    Returns a new block; rows in no group are copied unchanged.
    """
    out = previous.copy()
    for rows, members in groups:
        current = previous[rows]
        out[rows] = _updated(current, [previous[col] for col in members],
                             len(members), log_likelihood[rows],
                             None if keep is None else keep[rows])
    return out


# -- trace --------------------------------------------------------------------

@dataclass(eq=False)
class AgentRecord:
    """State of one agent at the end of one iteration it was alive for."""

    completed: bool
    quorum: tuple[int, ...] | None
    signal: str | None
    log_belief: np.ndarray
    crash_phase: str | None = None


class ExecutionTrace:
    """Everything one run produced, indexed by iteration then agent."""

    def __init__(self, config: SimulationConfig, initial_log_belief: np.ndarray,
                 records: Sequence[dict[int, AgentRecord]],
                 final_alive: frozenset[int]):
        if len(records) != config.iterations:
            raise ValueError(f"{len(records)} iteration records for "
                             f"{config.iterations} iterations")
        self.config = config
        self.initial_log_belief = initial_log_belief
        self.records = tuple(dict(sorted(r.items())) for r in records)
        self.final_alive = frozenset(final_alive)

    @property
    def iterations(self) -> int:
        return self.config.iterations

    @property
    def n(self) -> int:
        return self.config.graph.n

    def record(self, t: int, agent: int) -> AgentRecord:
        return self.records[t - 1][agent]

    def alive_at_start(self, t: int) -> frozenset[int]:
        """Agents that began iteration t; t = iterations + 1 gives survivors."""
        if t == self.iterations + 1:
            return self.final_alive
        return frozenset(self.records[t - 1])

    def completed_at(self, t: int) -> frozenset[int]:
        return frozenset(a for a, rec in self.records[t - 1].items() if rec.completed)

    def transmitters_at(self, t: int) -> frozenset[int]:
        return frozenset(a for a, rec in self.records[t - 1].items()
                         if _PHASE_RULES[rec.crash_phase][0])

    def log_belief_before(self, t: int, agent: int) -> np.ndarray:
        """Belief the agent held entering iteration t (end of t - 1)."""
        for back in range(t - 1, 0, -1):
            rec = self.records[back - 1].get(agent)
            if rec is not None:
                return rec.log_belief
        return self.initial_log_belief[agent - 1]

    def crash_events_observed(self) -> tuple[tuple[int, int, str], ...]:
        seen = []
        for t, per_agent in enumerate(self.records, start=1):
            for agent, rec in per_agent.items():
                if rec.crash_phase is not None:
                    seen.append((agent, t, rec.crash_phase))
        return tuple(sorted(seen))


def min_final_posterior(trace: ExecutionTrace) -> float:
    """Smallest posterior on the true hypothesis among surviving agents."""
    star = trace.config.model.hypothesis_index(trace.config.theta_star)
    last = trace.records[-1]
    values = [math.exp(last[a].log_belief[star]) for a in sorted(trace.final_alive)]
    if not values:
        raise ValueError("no surviving agents")
    return min(values)


def converged(trace: ExecutionTrace, threshold: float) -> bool:
    return min_final_posterior(trace) >= threshold


# -- execution ----------------------------------------------------------------
#
# A roster is one iteration's schedule: an (agent, completed, quorum, crash
# event) entry for every agent that began the iteration, in label order.

_Roster = list[tuple[int, bool, tuple[int, ...] | None, CrashEvent | None]]


def _rule(event: CrashEvent | None) -> tuple[bool, bool, bool]:
    return _PHASE_RULES[None if event is None else event.phase]


def _signal_rng(seed: int, agent: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, SIGNAL_STREAM, agent]))


def _delay_rng(seed: int, agent: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, DELAY_STREAM, agent]))


def run_execution(config: SimulationConfig) -> ExecutionTrace:
    """Simulate one run to completion; deterministic in (config, seed)."""
    config.validate()
    if config.adversary.mode == "adversarial_latest":
        rosters, final_alive = _round_schedule(config)
    else:
        rosters, final_alive = _event_schedule(config)
    return _belief_pass(config, rosters, final_alive)


def _initial_beliefs(config: SimulationConfig) -> np.ndarray:
    m = config.model.m
    return np.full((config.graph.n, m), -math.log(m), dtype=np.float64)


def _event_schedule(config: SimulationConfig) -> tuple[list[_Roster], frozenset[int]]:
    """Message-passing scheduler for uniform and fixed delays: every agent's
    quorum is the first messages of its current iteration to be delivered.
    Returns the rosters of iterations 1..T and the agents that finished."""
    g, T = config.graph, config.iterations
    adversary = config.adversary
    need = {i: len(g.in_neighbors[i]) - config.f for i in g.nodes}
    crash_at = {(ev.agent, ev.iteration): ev for ev in adversary.crash_plan}
    delay_rngs = {i: _delay_rng(config.seed, i) for i in g.nodes}
    uniform_mode = adversary.mode == "uniform"

    cur_iter = dict.fromkeys(g.nodes, 1)
    ready_time = dict.fromkeys(g.nodes, 0.0)
    buffers: dict[int, dict[int, list[tuple[float, int]]]] = {i: {} for i in g.nodes}
    running, finished = set(g.nodes), set()     # running: neither dead nor done
    rosters: list[_Roster] = [[] for _ in range(T)]
    heap: list[tuple[float, int, int, int, int]] = []
    seq = 0

    def begin_iteration(i: int, t: int, now: float) -> None:
        """Transmit for iteration t unless a crash intercepts; an agent that
        takes no quorum at t dies here."""
        nonlocal seq
        event = crash_at.get((i, t))
        transmits, takes_quorum, _ = _rule(event)
        if transmits:
            for j in sorted(g.out_neighbors[i]):
                if uniform_mode:
                    delay = float(delay_rngs[i].uniform(0.0, adversary.dmax))
                else:
                    delay = adversary.delay_for(i, j)
                heapq.heappush(heap, (now + delay, i, j, seq, t))
                seq += 1
        if not takes_quorum:
            rosters[t - 1].append((i, False, None, event))
            running.discard(i)

    def try_advance(i: int) -> None:
        while i in running:
            t = cur_iter[i]
            buffered = buffers[i].get(t, ())
            if len(buffered) < need[i]:
                return
            taken = buffered[:need[i]]    # delivery order, ties already by label
            quorum = tuple(sorted(sender for _, sender in taken))
            event = crash_at.get((i, t))
            _, _, completes = _rule(event)
            rosters[t - 1].append((i, completes, quorum, event))
            if event is not None or t == T:
                running.discard(i)
                if event is None:
                    finished.add(i)
            else:
                cur_iter[i] = t + 1
                ready_time[i] = max([ready_time[i]] + [dt for dt, _ in taken])
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
        detail = {i: (cur_iter[i], len(buffers[i].get(cur_iter[i], ())))
                  for i in sorted(running)}
        raise DeadlockError(f"agents stuck as (iteration, buffered): {detail}")

    for roster in rosters:
        roster.sort()
    return rosters, frozenset(finished)


def _round_schedule(config: SimulationConfig) -> tuple[list[_Roster], frozenset[int]]:
    """Worst-case scheduler: lock-step rounds, quorums take the lowest labels.

    Withholding every message until the receiver's deadline means nobody can
    run ahead, and the adversary serves each agent exactly the messages of
    the lowest-labeled transmitting in-neighbors. So a round's roster only
    changes when some agent crashes: the iterations between two crash
    iterations share one roster object.
    """
    crash_iterations = {ev.iteration for ev in config.adversary.crash_plan}
    alive = set(config.graph.nodes)
    rosters: list[_Roster] = []
    roster = None
    for t in range(1, config.iterations + 1):
        if roster is None or t in crash_iterations:
            roster = _round(config, alive, t)
        rosters.append(roster)
        if t in crash_iterations:
            alive -= {i for i, _, _, event in roster if event is not None}
            roster = None
    return rosters, frozenset(alive)


def _round(config: SimulationConfig, alive: set[int], t: int) -> _Roster:
    """The roster of lock-step round t."""
    g = config.graph
    crash_at = {ev.agent: ev for ev in config.adversary.crash_plan
                if ev.iteration == t}
    transmitters = {i for i in alive if _rule(crash_at.get(i))[0]}
    roster: _Roster = []
    for i in sorted(alive):
        event = crash_at.get(i)
        _, takes_quorum, completes = _rule(event)
        if not takes_quorum:
            roster.append((i, False, None, event))
            continue
        need = len(g.in_neighbors[i]) - config.f
        available = sorted(j for j in g.in_neighbors[i] if j in transmitters)
        if len(available) < need:
            raise DeadlockError(f"agent {i} has {len(available)} live "
                                f"in-neighbors at iteration {t}, "
                                f"needs {need}")
        roster.append((i, completes, tuple(available[:need]), event))
    return roster


def _belief_pass(config: SimulationConfig, rosters: Sequence[_Roster],
                 final_alive: frozenset[int]) -> ExecutionTrace:
    """Replay the schedule through the belief kernel, one advance_beliefs call
    per iteration; consecutive iterations sharing a roster object share its
    quorum groups and keep mask."""
    signals, log_likelihood = _signal_draws(config)
    initial = _initial_beliefs(config)
    beliefs = initial
    records: list[dict[int, AgentRecord]] = []
    grouped = None
    for t, roster in enumerate(rosters, start=1):
        if roster is not grouped:
            grouped = roster
            groups = group_quorums([(i, quorum) for i, _, quorum, _ in roster
                                    if quorum is not None])
            keep = _keep_mask(roster, initial.shape)
        beliefs = advance_beliefs(beliefs, groups, log_likelihood[t - 1], keep)
        records.append({
            i: AgentRecord(completed, quorum,
                           None if quorum is None else signals[i - 1][t - 1],
                           beliefs[i - 1], None if event is None else event.phase)
            for i, completed, quorum, event in roster})
    return ExecutionTrace(config, initial, records, final_alive)


def _keep_mask(roster: _Roster, shape: tuple[int, int]) -> np.ndarray | None:
    """The entries a mid_update crash leaves untouched, or None without one.
    SimulationConfig.validate sets partial_count for mid_update only."""
    keep = None
    for i, _, _, event in roster:
        if event is not None and event.partial_count is not None:
            if keep is None:
                keep = np.zeros(shape, dtype=bool)
            keep[i - 1, event.partial_count:] = True
    return keep


def _signal_draws(config: SimulationConfig) -> tuple[list[list[str]], np.ndarray]:
    """Every agent's T signal labels, and the matching log-likelihood rows
    as a (T, n, m) array."""
    model, T = config.model, config.iterations
    labels, rows = [], []
    for i in sorted(config.graph.nodes):
        uniforms = _signal_rng(config.seed, i).random(T)
        idx = signal_indices_from_uniforms(model, i, config.theta_star, uniforms)
        space = model.signals(i)
        labels.append([space[k] for k in idx.tolist()])
        rows.append(model.log_table(i).T[idx])
    return labels, np.stack(rows, axis=1)


# -- persistence --------------------------------------------------------------

def write_trace(trace: ExecutionTrace, path) -> None:
    """One JSON object per line: a header record, then one record per
    (iteration, alive agent) in (t, agent) order."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in iter_trace_lines(trace):
            fh.write(line)
            fh.write("\n")


def iter_trace_lines(trace: ExecutionTrace) -> Iterator[str]:
    header = {"kind": "header", "config": trace.config.to_dict(),
              "initial_log_belief": trace.initial_log_belief.tolist()}
    yield json.dumps(header, sort_keys=True)
    for t in range(1, trace.iterations + 1):
        for agent in sorted(trace.records[t - 1]):
            rec = trace.records[t - 1][agent]
            row = {"kind": "step", "t": t, "agent": agent, "alive": True,
                   "completed": rec.completed,
                   "quorum": None if rec.quorum is None else list(rec.quorum),
                   "signal": rec.signal,
                   "log_belief": rec.log_belief.tolist(),
                   "crash_phase": rec.crash_phase}
            yield json.dumps(row, sort_keys=True)


_STEP_FIELDS = frozenset({"kind", "t", "agent", "alive", "completed", "quorum",
                          "signal", "log_belief", "crash_phase"})


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    row = dict(pairs)
    if len(row) != len(pairs):
        raise TraceInvariantError(f"duplicate keys in {[key for key, _ in pairs]}")
    return row


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _is_int(value) -> bool:
    return type(value) is int


def _is_real(value) -> bool:
    return type(value) in (int, float)


def _parse_record(line: str, lineno: int) -> dict:
    try:
        row = _DECODER.decode(line)
    except TraceInvariantError as exc:
        raise TraceInvariantError(f"line {lineno}: {exc}") from None
    except ValueError as exc:
        raise TraceInvariantError(f"line {lineno}: not JSON ({exc})") from None
    if not isinstance(row, dict):
        raise TraceInvariantError(f"line {lineno}: not a JSON object")
    return row


def _parse_step(line: str, lineno: int) -> tuple[int, int, AgentRecord]:
    """One step line as (t, agent, record); every field must be present,
    alone and of its written type."""
    row = _parse_record(line, lineno)
    if row.get("kind") != "step":
        raise TraceInvariantError(f"unexpected record kind {row.get('kind')!r}")
    if row.keys() != _STEP_FIELDS:
        raise TraceInvariantError(
            f"line {lineno}: step fields missing {sorted(_STEP_FIELDS - row.keys())}, "
            f"unexpected {sorted(row.keys() - _STEP_FIELDS)}")
    quorum, belief = row["quorum"], row["log_belief"]
    wrong = [name for name, ok in (
        ("t", _is_int(row["t"])),
        ("agent", _is_int(row["agent"])),
        ("alive", row["alive"] is True),
        ("completed", type(row["completed"]) is bool),
        ("quorum", quorum is None
         or (type(quorum) is list and all(map(_is_int, quorum)))),
        ("signal", row["signal"] is None or type(row["signal"]) is str),
        ("log_belief", type(belief) is list and all(map(_is_real, belief))),
        ("crash_phase", row["crash_phase"] is None
         or row["crash_phase"] in CRASH_PHASES)) if not ok]
    if wrong:
        raise TraceInvariantError(f"line {lineno}: malformed fields {wrong}")
    record = AgentRecord(
        completed=row["completed"],
        quorum=None if quorum is None else tuple(quorum),
        signal=row["signal"],
        log_belief=np.asarray(belief, dtype=np.float64),
        crash_phase=row["crash_phase"])
    return row["t"], row["agent"], record


def read_trace(path) -> ExecutionTrace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise TraceInvariantError("empty trace file")
    header = _parse_record(lines[0], 1)
    if header.get("kind") != "header":
        raise TraceInvariantError("first line is not a header record")
    if not {"config", "initial_log_belief"} <= header.keys():
        raise TraceInvariantError("header needs config and initial_log_belief")
    try:
        config = SimulationConfig.from_dict(header["config"])
        config.validate()
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise TraceInvariantError(f"header config malformed ({exc!r})") from None
    try:
        initial = np.asarray(header["initial_log_belief"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TraceInvariantError(f"initial beliefs malformed ({exc})") from None
    if initial.shape != (config.graph.n, config.model.m):
        raise TraceInvariantError(f"initial beliefs have shape {initial.shape}")
    # f < n agents crash, so every iteration has at least one step record.
    if config.iterations > len(lines) - 1:
        raise TraceInvariantError(
            f"header claims {config.iterations} iterations but the trace has "
            f"{len(lines) - 1} step records")
    records: list[dict[int, AgentRecord]] = [{} for _ in range(config.iterations)]
    for lineno, line in enumerate(lines[1:], start=2):
        t, agent, record = _parse_step(line, lineno)
        if not 1 <= t <= config.iterations:
            raise TraceInvariantError(f"step iteration {t} out of range")
        if agent in records[t - 1]:
            raise TraceInvariantError(f"duplicate record for t={t} agent={agent}")
        records[t - 1][agent] = record
    last = records[-1]
    final_alive = frozenset(a for a, rec in last.items()
                            if rec.completed and rec.crash_phase is None)
    return ExecutionTrace(config, initial, records, final_alive)


def _belief_faults(trace: ExecutionTrace, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For every record in (t, agent) order: whether its log belief is
    malformed (not m finite entries), and otherwise its normalization gap
    |logsumexp|, checked on all records stacked into one block."""
    beliefs = [rec.log_belief for per_agent in trace.records
               for rec in per_agent.values()]
    shaped = np.array([np.shape(b) == (m,) for b in beliefs], dtype=bool)
    filler = np.zeros(m)
    block = np.array([b if ok else filler for b, ok in zip(beliefs, shaped)],
                     dtype=np.float64).reshape(len(beliefs), m)
    malformed = ~(shaped & np.isfinite(block).all(axis=1))
    block[malformed] = 0.0
    return malformed, np.abs(log_normalizer(block)[:, 0])


def validate_trace(trace: ExecutionTrace) -> None:
    """Check every protocol invariant a trace must satisfy; raise on the first
    violation. Does not re-run the scheduler, so it accepts any delivery
    order, but quorums must name real transmitting in-neighbors."""
    config = trace.config
    config.validate()
    g, model, T = config.graph, config.model, config.iterations
    need = {i: len(g.in_neighbors[i]) - config.f for i in g.nodes}
    if trace.alive_at_start(1) != g.nodes:
        raise TraceInvariantError("iteration 1 must include every agent")

    planned = tuple(sorted((ev.agent, ev.iteration, ev.phase)
                           for ev in config.adversary.crash_plan))
    if trace.crash_events_observed() != planned:
        raise TraceInvariantError(
            f"observed crashes {trace.crash_events_observed()} differ from "
            f"plan {planned}")

    malformed, gaps = _belief_faults(trace, model.m)
    position = 0
    for t in range(1, T + 1):
        transmitters = trace.transmitters_at(t)
        expected_next = set()
        for agent, rec in trace.records[t - 1].items():
            where = f"t={t} agent={agent}"
            if agent not in g.nodes:
                raise TraceInvariantError(f"{where}: unknown agent")
            if malformed[position]:
                raise TraceInvariantError(f"{where}: malformed log beliefs")
            gap = float(gaps[position])
            if gap > BELIEF_NORMALIZATION_TOLERANCE:
                raise TraceInvariantError(f"{where}: beliefs unnormalized "
                                          f"(logsumexp={gap:.3e})")
            position += 1
            belief = rec.log_belief
            _, takes_quorum, completes = _PHASE_RULES[rec.crash_phase]
            if rec.completed and not completes:
                raise TraceInvariantError(f"{where}: completed record with "
                                          f"phase {rec.crash_phase}")
            if completes and not rec.completed:
                raise TraceInvariantError(f"{where}: incomplete record needs a "
                                          f"crash phase, got {rec.crash_phase}")
            if rec.crash_phase is None:
                expected_next.add(agent)
            if takes_quorum:
                if rec.quorum is None or rec.signal is None:
                    raise TraceInvariantError(f"{where}: missing quorum or signal")
                if len(rec.quorum) != need[agent]:
                    raise TraceInvariantError(f"{where}: quorum size "
                                              f"{len(rec.quorum)} != {need[agent]}")
                if list(rec.quorum) != sorted(set(rec.quorum)):
                    raise TraceInvariantError(f"{where}: quorum not strictly "
                                              f"increasing")
                bad = set(rec.quorum) - g.in_neighbors[agent]
                if bad:
                    raise TraceInvariantError(f"{where}: quorum members {sorted(bad)} "
                                              f"are not in-neighbors")
                ghosts = set(rec.quorum) - transmitters
                if ghosts:
                    raise TraceInvariantError(f"{where}: quorum members {sorted(ghosts)} "
                                              f"did not transmit at t={t}")
                if rec.signal not in model.signals(agent):
                    raise TraceInvariantError(f"{where}: unknown signal "
                                              f"{rec.signal!r}")
            else:
                if rec.quorum is not None or rec.signal is not None:
                    raise TraceInvariantError(f"{where}: {rec.crash_phase} record "
                                              f"must not carry quorum or signal")
                previous = trace.log_belief_before(t, agent)
                if not np.array_equal(belief, previous):
                    raise TraceInvariantError(f"{where}: belief changed without "
                                              f"an update")
        nxt = trace.alive_at_start(t + 1)
        if set(nxt) != expected_next:
            raise TraceInvariantError(
                f"iteration {t + 1} alive set {sorted(nxt)} != survivors of "
                f"iteration {t} {sorted(expected_next)}")
