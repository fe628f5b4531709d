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

A run is computed in two passes. _schedule fixes every phase and quorum
from the delays and the crash plan alone, since who hears whom never
depends on belief values; then _belief_pass computes every belief through
belief_recursion, the scan the analysis replay shares. An ExecutionTrace
holds the result.
write_trace and read_trace, the trace file's writer and reader, live in
the tracefile module and are part of this module's interface.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from .graphs import (ConfigError, DirectedGraph, config_float, config_integer,
                     config_list)
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

# The most array cells, iterations * n * (n + m), that one run may hold. A
# run keeps (T, n, n) update matrices and (T, n, m) beliefs, so at the
# ceiling each of its float64 arrays stays under 800 MB.
MAX_RUN_CELLS = 10 ** 8


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
        return cls(agent=config_integer(payload["agent"], "crash agent"),
                   iteration=config_integer(payload["iteration"], "crash iteration"),
                   phase=str(payload["phase"]),
                   partial_count=None if pc is None
                   else config_integer(pc, "partial_count"))


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
                edge = (int(sender), int(receiver))
                # int() also reads " 1", "01" and "1_0": such a key would
                # alias another and the later one would silently win
                if _delay_key(*edge) != key:
                    raise ConfigError(f"fixed_delays key {key!r} is not written "
                                      f"as {_delay_key(*edge)!r}")
                parsed[edge] = config_float(value, f"fixed delay {key}")
            fixed = parsed
        elif fixed is not None:
            fixed = config_float(fixed, "fixed_delays")
        return cls(mode=str(payload.get("mode", "uniform")),
                   dmax=config_float(payload.get("dmax", 1.0), "dmax"),
                   fixed_delays=fixed,
                   crash_plan=tuple(CrashEvent.from_dict(ev) for ev in
                                    config_list(payload.get("crash_plan", ()),
                                                "crash_plan")))


@dataclass(frozen=True)
class SimulationConfig:
    """One run's description, checked when it is built, so it is valid."""

    graph: DirectedGraph
    f: int
    model: LikelihoodModel
    theta_star: str
    iterations: int
    seed: int
    adversary: AdversarySchedule = field(default_factory=AdversarySchedule)

    def __post_init__(self):
        g, model = self.graph, self.model
        # from_dict reads these with config_integer; a bool or a float here
        # would reach numpy or the trace file.
        for name in ("f", "iterations", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if g.n != model.n:
            raise ConfigError(f"graph has {g.n} nodes but model has {model.n} agents")
        if not 0 <= self.f <= g.min_in_degree:
            raise ConfigError(f"f={self.f} outside [0, min in-degree={g.min_in_degree}]")
        if self.iterations < 1:
            raise ConfigError(f"iterations={self.iterations} must be >= 1")
        cells = self.iterations * g.n * (g.n + model.m)
        if cells > MAX_RUN_CELLS:
            raise ConfigError(f"iterations={self.iterations} make T*n*(n + m) = "
                              f"{cells} array cells, above the ceiling of "
                              f"{MAX_RUN_CELLS}; such a run would exhaust "
                              f"memory, or even the address space")
        if self.theta_star not in model.hypotheses:
            raise ConfigError(f"theta_star {self.theta_star!r} not a hypothesis")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        adv = self.adversary
        if adv.mode not in ADVERSARY_MODES:
            raise ConfigError(f"unknown adversary mode {adv.mode!r}")
        if adv.mode == "uniform":
            if not (math.isfinite(adv.dmax) and adv.dmax > 0):
                raise ConfigError(f"uniform mode needs dmax > 0, got {adv.dmax}")
        if adv.mode == "fixed" and adv.fixed_delays is not None:
            if isinstance(adv.fixed_delays, Mapping):
                missing = g.edges - adv.fixed_delays.keys()
                if missing:
                    raise ConfigError(f"fixed_delays missing edges {sorted(missing)[:5]}")
                extra = adv.fixed_delays.keys() - g.edges
                if extra:
                    raise ConfigError(f"fixed_delays names non-edges {sorted(extra)[:5]}")
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
                   f=config_integer(payload["f"], "f"),
                   model=LikelihoodModel.from_dict(payload["model"]),
                   theta_star=str(payload["theta_star"]),
                   iterations=config_integer(payload["iterations"], "iterations"),
                   seed=config_integer(payload["seed"], "seed"),
                   adversary=AdversarySchedule.from_dict(payload.get("adversary", {})))


# -- belief arithmetic --------------------------------------------------------
#
# The one-row updates state the protocol's arithmetic directly; every
# function here works on one (m,) vector or on a (k, m) block of rows alike.
# belief_recursion computes whole runs and agrees with them within 1e-12.

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
    + top, with c the number of ties. The last axis is short (one entry per
    hypothesis), so the top and the tie count are taken one column at a
    time over all rows; both are exact in any order. The shifted sum is
    rounded, so it stays a reduction along the last axis, as scipy's is.
    """
    top = _fold_columns(np.maximum, rows)
    count = np.zeros(top.shape + (1,))
    for column in np.moveaxis(rows, -1, 0):
        count[..., 0] += column == top
    top = top[..., None]
    shifted = np.exp(rows - top)
    np.putmask(shifted, rows == top, 0.0)
    return (np.log1p(np.add.reduce(shifted, axis=-1, keepdims=True) / count)
            + np.log(count) + top)


def _fold_columns(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """ufunc folded over the last axis one column at a time, elementwise
    over all rows, with that axis dropped: numpy's own reduction along a
    short last axis costs several times more. It starts from ufunc's
    identity if it has one (an empty axis gives that), else the first column."""
    columns = np.moveaxis(rows, -1, 0)
    if ufunc.identity is None:
        out, columns = columns[0], columns[1:]
    else:
        out = np.full(rows.shape[:-1], ufunc.identity)
    for column in columns:
        out = ufunc(out, column)
    return out


def normalize_log_belief(unnormalized: np.ndarray) -> np.ndarray:
    return unnormalized - log_normalizer(unnormalized)


def update_belief(current: np.ndarray, neighbor_logs: Sequence[np.ndarray],
                  signal: str, model: LikelihoodModel, agent: int,
                  quorum_size: int) -> np.ndarray:
    """One full belief update in log space; returns a normalized vector."""
    return normalize_log_belief(combine_log_beliefs(
        current, neighbor_logs, quorum_size, model.log_likelihoods(agent, signal)))


def partial_update_belief(current: np.ndarray, neighbor_logs: Sequence[np.ndarray],
                          signal: str, model: LikelihoodModel, agent: int,
                          quorum_size: int, partial_count: int) -> np.ndarray:
    """Crash artifact of mid_update: only the first partial_count entries get
    the unnormalized update values before the whole vector is renormalized."""
    unnormalized = combine_log_beliefs(current, neighbor_logs, quorum_size,
                                       model.log_likelihoods(agent, signal))
    keep = np.arange(current.shape[-1]) >= partial_count
    return normalize_log_belief(np.where(keep, current, unnormalized))


def update_matrices(rows: np.ndarray, quorum: np.ndarray) -> np.ndarray:
    """(T, n, n) stack of row-stochastic update matrices from a (T, n) mask
    of the agents that update and their (T, n, q) padded quorums: an
    updating agent weighs itself and each quorum member 1/(quorum size + 1),
    every other agent keeps a unit row."""
    matrices = np.zeros(rows.shape + rows.shape[1:], dtype=np.float64)
    steps, agents = np.nonzero(rows)
    quorums = quorum[steps, agents]
    sizes = np.add.reduce(quorums >= 0, axis=1)
    weights = 1.0 / (sizes + 1)
    cells, places = np.nonzero(quorums >= 0)
    matrices[steps[cells], agents[cells], quorums[cells, places] - 1] = weights[cells]
    matrices[steps, agents, agents] = 1.0 - sizes * weights
    idle_steps, idle = np.nonzero(~rows)
    matrices[idle_steps, idle, idle] = 1.0
    return matrices


# Iterations per scan chunk. Unnormalized beliefs drift with the length of
# a chunk, so renormalizing at its end also bounds the rounding.
BELIEF_CHUNK = 512


def belief_recursion(initial: np.ndarray, phase: np.ndarray, rows: np.ndarray,
                     quorum: np.ndarray, log_likelihood: np.ndarray) -> np.ndarray:
    """(T, n, m) log beliefs at the end of every iteration, from the (n, m)
    initial block, the (T, n) phase codes, a (T, n) mask of the agents that
    update (a function of each iteration's phase row), their (T, n, q)
    padded quorums and (T, n, m) log-likelihood rows. Every update is full;
    _belief_pass adds the mid_update partial writes.

    A span is a run of iterations with equal phase rows, cut into chunks of
    BELIEF_CHUNK iterations and solved with one scan each (see _scan), so
    memory stays O(BELIEF_CHUNK n^2). A crashing agent's code differs from
    its code before and after, so every crash iteration is a single step.
    A chunk is steady when all its quorum rows are equal, as in every chunk
    of a crash-free adversarial_latest span: it applies one update matrix A
    throughout, and its scan's products are the powers A^1 .. A^L (see
    _powers). The powers of the last steady chunk are kept with their
    (update row, quorum row) key, and a later steady chunk with that key and
    no more iterations reuses them; every other chunk builds its own
    update_matrices. The key is read from the arrays, never from the span,
    since one span may hold steady stretches with different quorums. Rows
    that do not update copy their previous value exactly.
    """
    # Shifting a row's log-likelihoods by a constant only shifts its
    # unnormalized beliefs, so each row drives with its top entry at 0,
    # which keeps them near the normalized ones (and a flat row exact).
    shift = _fold_columns(np.maximum, log_likelihood)[..., None]
    drive = np.where(rows[..., None], log_likelihood - shift, 0.0)
    out = np.empty(drive.shape, dtype=np.float64)
    previous = initial
    # ((update row, quorum row), powers) of the last steady chunk
    memo = None
    for lo, hi in _spans(phase):
        for a in range(lo, hi, BELIEF_CHUNK):
            b = min(a + BELIEF_CHUNK, hi)
            if (quorum[a + 1:b] == quorum[a]).all():
                key = (rows[a].tobytes(), quorum[a].tobytes())
                if memo is None or memo[0] != key or len(memo[1]) < b - a:
                    matrix = update_matrices(rows[a:a + 1], quorum[a:a + 1])[0]
                    memo = key, _powers(matrix, b - a)
                prefix = memo[1][:b - a]
                strides = ((k, prefix[k - 1]) for k in _doublings(b - a))
            else:
                prefix = update_matrices(rows[a:b], quorum[a:b])
                strides = _stacked_strides(prefix)
            out[a:b] = _scan(previous, prefix, strides, drive[a:b], rows[a])
            previous = out[b - 1]
    return out


def _spans(phase: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the runs of equal rows of a (T, n) phase
    array."""
    starts = np.ones(len(phase), dtype=bool)
    starts[1:] = (phase[1:] != phase[:-1]).any(axis=1)
    bounds = np.flatnonzero(starts).tolist() + [len(phase)]
    return list(zip(bounds[:-1], bounds[1:]))


def _doublings(length: int) -> Iterator[int]:
    """The strides 1, 2, 4, ... below length of a Hillis-Steele scan."""
    return (1 << s for s in range((length - 1).bit_length()))


def _stacked_strides(product: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(k, product[k:]) for each stride k of the scan over a (L, n, n) stack
    of matrices: entry t of the stack applied at stride k composes the maps
    t - k + 1 .. t. After each item the stack is updated in place, so once
    the iterator is exhausted entry t is the prefix product of maps 0 .. t."""
    for k in _doublings(len(product)):
        yield k, product[k:]
        product[k:] = product[k:] @ product[:-k]


def _powers(matrix: np.ndarray, length: int) -> np.ndarray:
    """The prefix products that _stacked_strides leaves over a stack of
    length copies of one matrix, bit for bit, built in O(length) products.
    There, the stack applied at stride k holds the prefix product of maps
    0 .. k - 1 in every entry t >= k - 1, and the step at stride k sets
    entries k .. 2k - 1 to that entry times entries 0 .. k - 1."""
    powers = np.empty((length,) + matrix.shape)
    powers[0] = matrix
    for k in _doublings(length):
        powers[k:2 * k] = powers[k - 1] @ powers[:min(k, length - k)]
    return powers


def _scan(previous: np.ndarray, prefix: np.ndarray,
          strides: Iterator[tuple[int, np.ndarray]], drive: np.ndarray,
          rows: np.ndarray) -> np.ndarray:
    """Beliefs over one chunk whose updating rows are the same throughout.

    In log space an update is the affine map y -> A_t y + L_t followed by a
    per-row shift (the normalizer), and a per-row shift stays a per-row
    shift through A_t. So the unnormalized beliefs are a prefix scan of the
    affine maps, here Hillis-Steele: strides gives, for k = 1, 2, 4, ...,
    the product the step of offset k applies (one matrix for every entry
    of a steady chunk, a stack otherwise), and after that step entry t of
    the offsets holds the composition of the maps t - 2k + 1 .. t. The
    prefix products, read once strides is exhausted, are then applied to
    the chunk's starting beliefs, and every updating row is renormalized.
    """
    offset = drive.copy()
    for k, product in strides:
        offset[k:] = product @ offset[:-k] + offset[k:]
    unnormalized = prefix @ previous + offset
    return np.where(rows[:, None], normalize_log_belief(unnormalized), previous)


# -- trace --------------------------------------------------------------------

class PhaseTable(NamedTuple):
    """The crash-phase state machine over trace phase codes: code 0 is no
    crash and code k the k-th of CRASH_PHASES. Each bool column is indexed
    by code, and code -1 (not alive) reads its last entry, False."""

    names: tuple[str | None, ...]       # the crash phase of each code
    codes: Mapping[str | None, int]     # the code of each crash phase
    alive: np.ndarray
    transmits: np.ndarray
    takes_quorum: np.ndarray
    completes: np.ndarray


PHASES = PhaseTable(tuple(_PHASE_RULES),
                    {phase: code for code, phase in enumerate(_PHASE_RULES)},
                    *np.array([(True, *rules) for rules in _PHASE_RULES.values()]
                              + [(False,) * 4], dtype=bool).T)


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array and, for each row, the
    index of its distinct row."""
    order = np.lexsort(keys.T)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


@dataclass(eq=False)
class AgentRecord:
    """State of one agent at the end of one iteration it was alive for."""

    completed: bool
    quorum: tuple[int, ...] | None
    signal: str | None
    log_belief: np.ndarray
    crash_phase: str | None = None


class ExecutionTrace:
    """Everything one run produced, as four arrays over (iteration, agent),
    row t - 1 for iteration t: phase (T, n) int8 (a PHASES code, -1 for an
    agent not alive at the start of t), quorum (T, n, q) (1-based labels
    padded with -1, q the largest in-degree minus f), signal (T, n) (index
    into model.signals(agent), or -1) and log_belief (T, n, m) (beliefs at
    the end of t; a dead agent's stays frozen). The masks alive,
    transmitted, takes_quorum and completed are read from phase through
    PHASES, and alive_after holds, in row t - 1, the agents that begin
    iteration t + 1. Every check and validate_trace read these arrays."""

    def __init__(self, config: SimulationConfig, initial_log_belief: np.ndarray,
                 phase: np.ndarray, quorum: np.ndarray, signal: np.ndarray,
                 log_belief: np.ndarray):
        T, n, m = config.iterations, config.graph.n, config.model.m
        shapes = (phase.shape, quorum.shape[:2], signal.shape, log_belief.shape)
        if shapes != ((T, n), (T, n), (T, n), (T, n, m)):
            raise ValueError(f"trace arrays of shapes {shapes} for T={T}, "
                             f"n={n}, m={m}")
        self.config = config
        self.initial_log_belief = initial_log_belief
        self.phase, self.quorum = phase, quorum
        self.signal, self.log_belief = signal, log_belief
        self.alive, self.transmitted = PHASES.alive[phase], PHASES.transmits[phase]
        self.takes_quorum = PHASES.takes_quorum[phase]
        self.completed = PHASES.completes[phase]
        # row t - 1: who begins iteration t + 1 (the survivors in the last row)
        self.alive_after = np.concatenate([self.alive[1:], phase[-1:] == 0])
        self.final_alive = _agents(self.alive_after[-1])

    @property
    def iterations(self) -> int:
        return self.config.iterations

    @property
    def n(self) -> int:
        return self.config.graph.n

    @cached_property
    def records(self) -> tuple[dict[int, AgentRecord], ...]:
        """Every iteration as {agent: AgentRecord}, built on first use from
        step_blocks."""
        out = tuple({} for _ in range(self.iterations))
        for ts, agents, fields, index, _ in self.step_blocks():
            for t, agent, k in zip(ts.tolist(), agents.tolist(), index.tolist()):
                _, phase, completed, signal, quorum = fields[k]
                out[t - 1][agent] = AgentRecord(
                    completed, None if quorum is None else tuple(quorum), signal,
                    self.log_belief[t - 1, agent - 1], phase)
        return out

    def record(self, t: int, agent: int) -> AgentRecord:
        return self.records[t - 1][agent]

    def step_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple],
                                            np.ndarray, np.ndarray]]:
        """The step records, one per (iteration, alive agent) in (t, agent)
        order, BELIEF_CHUNK iterations at a time, as (t, agent, fields,
        index, log_belief): the records' t and agent labels, the block's
        distinct (agent, crash_phase, completed, signal, quorum) fields as
        plain values (crash_phase and signal a name or None, quorum a list
        of labels or None for an agent that takes none), each record's index
        into fields, and the records' (R, m) log beliefs."""
        takes_quorum, completes = PHASES.takes_quorum.tolist(), PHASES.completes.tolist()
        spaces = [self.config.model.signals(a) for a in range(1, self.n + 1)]
        for lo in range(0, self.iterations, BELIEF_CHUNK):
            ts, agents = np.nonzero(self.alive[lo:lo + BELIEF_CHUNK])
            ts += lo
            code = self.phase[ts, agents]
            takes = PHASES.takes_quorum[code]
            distinct, index = distinct_rows(np.column_stack(
                [agents, code, self.signal[ts, agents],
                 np.where(takes[:, None], self.quorum[ts, agents], -1)]))
            fields = [(a + 1, PHASES.names[c], completes[c],
                       spaces[a][k] if k >= 0 else None,
                       [j for j in quorum if j >= 0] if takes_quorum[c] else None)
                      for a, c, k, *quorum in distinct.tolist()]
            yield ts + 1, agents + 1, fields, index, self.log_belief[ts, agents]


def _agents(mask: np.ndarray) -> frozenset[int]:
    """The 1-based labels where an (n,) mask is True."""
    return frozenset(compress(range(1, mask.size + 1), mask.tolist()))


def min_final_posterior(trace: ExecutionTrace) -> float:
    """Smallest posterior on the true hypothesis among surviving agents."""
    star = trace.config.model.hypothesis_index(trace.config.theta_star)
    rows = np.flatnonzero(trace.alive_after[-1])
    if not rows.size:
        raise ValueError("no surviving agents")
    return min(math.exp(v) for v in trace.log_belief[-1, rows, star].tolist())


# -- execution ----------------------------------------------------------------

def _rng(seed: int, stream: int, agent: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, agent]))


def run_execution(config: SimulationConfig) -> ExecutionTrace:
    """Simulate one run to completion; deterministic in (config, seed)."""
    phase, quorum = _schedule(config)
    return _belief_pass(config, phase, quorum)


def blank_schedule(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """phase and quorum arrays with no agent alive anywhere."""
    g, T = config.graph, config.iterations
    width = g.max_in_degree - config.f
    return (np.full((T, g.n), -1, dtype=np.int8),
            np.full((T, g.n, width), -1, dtype=np.int32))


def _schedule(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The phase and quorum arrays of a run, a recursion over ready times.
    Every agent is ready for iteration 1 at time 0. In iteration t a
    transmitting agent j sends at its ready time r_j, and its message
    reaches an out-neighbor i at r_j + d_t(j, i) (_delays). An agent that
    takes a quorum takes its len(in_neighbors) - f earliest messages
    (_take) and is ready for t + 1 at the later of r_i and its latest taken
    arrival, so an agent may run many iterations ahead of a slow one and no
    message buffer is needed. Only that arrival's value carries to the next
    iteration, and a tie does not change it, so per block of BELIEF_CHUNK
    iterations a loop carries each agent's need-th earliest arrival into its
    ready time, and then every quorum of the block is taken at once.

    adversarial_latest withholds every message as long as it can: nobody
    runs ahead, so execution is lockstep rounds, the recursion with every
    delay 0 (fixed delays of 0 give the same quorums). A quorum is then the
    lowest-labeled transmitting in-neighbors, a function of its phase row,
    so each span of equal phase rows, the cut belief_recursion uses, is
    taken once. No agent waits forever: a SimulationConfig allows at most f
    crashes and f <= every in-degree, so every quorum can be formed, and no
    check for a stuck agent is needed."""
    g, adversary = config.graph, config.adversary
    phase, quorum = blank_schedule(config)
    # Code 0 until an agent's crash iteration, its phase's code there, -1 after.
    phase[:] = 0
    for ev in adversary.crash_plan:
        phase[ev.iteration - 1, ev.agent - 1] = PHASES.codes[ev.phase]
        phase[ev.iteration:, ev.agent - 1] = -1
    need = g.in_degree - config.f
    width = quorum.shape[2]

    def rules(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Who transmits, and how many messages each agent takes (0 if it
        takes no quorum), in each of some phase rows."""
        return PHASES.transmits[rows], np.where(PHASES.takes_quorum[rows], need, 0)

    if adversary.mode == "adversarial_latest":
        spans = _spans(phase)
        transmits, counts = rules(phase[[lo for lo, _ in spans]])
        offset = np.where(transmits[:, None, :] & g.in_links, 0.0, np.inf)
        for (lo, hi), rows in zip(spans, _labels(_take(offset, counts), width)):
            quorum[lo:hi] = rows
        return phase, quorum
    # Each agent's need-th earliest arrival in the sorted table, read through
    # a flat view of it.
    arrival = np.empty((g.n, g.n))
    flat = arrival.reshape(-1)
    pick = np.arange(g.n) * g.n + np.maximum(need - 1, 0)
    ready = np.zeros(g.n)
    for lo, delay in zip(range(0, config.iterations, BELIEF_CHUNK), _delays(config)):
        hi = lo + len(delay)
        transmits, counts = rules(phase[lo:hi])
        offset = np.where(transmits[:, None, :], delay, np.inf)
        # nan rows for agents that take nothing: fmax ignores them, so their
        # ready times stay put.
        gate = np.where(counts[:, :, None] > 0, offset, np.nan)
        readies = np.empty((hi - lo, g.n))
        for s, row in enumerate(gate):
            readies[s] = ready
            np.add(ready, row, out=arrival)
            arrival.sort(axis=1)
            np.fmax(ready, flat[pick], out=ready)
        quorum[lo:hi] = _labels(_take(readies[:, None, :] + offset, counts), width)
    return phase, quorum


def _take(times: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The quorum rule over a stack of iterations. times[s, i - 1, j - 1] is
    when j's message reaches i (inf if j sends i none) and counts[s, i - 1]
    how many messages i takes. Every agent takes its count earliest
    messages, ties going to the lower label. Returns the (S, n, n) mask of
    the messages taken.
    """
    rank = np.argsort(np.argsort(times, axis=-1, kind="stable"), axis=-1)
    return rank < counts[..., None]


def _labels(taken: np.ndarray, width: int) -> np.ndarray:
    """Quorum rows from (..., n, n) masks of taken messages: the senders'
    labels in ascending order, padded with -1 to width."""
    order = np.argsort(~taken, axis=-1, kind="stable")[..., :width]
    return np.where(np.take_along_axis(taken, order, axis=-1), order + 1, -1)


def _delays(config: SimulationConfig) -> Iterator[np.ndarray]:
    """Every iteration's delay table, laid out as graph.in_links (inf off
    the edges), in blocks of BELIEF_CHUNK iterations. Uniform delays come
    from each sender's own substream in iteration order, then out-neighbor
    order, drawn a block at a time."""
    g, T, adversary = config.graph, config.iterations, config.adversary
    blocks = (min(BELIEF_CHUNK, T - lo) for lo in range(0, T, BELIEF_CHUNK))
    if adversary.mode == "fixed":
        table = np.full((g.n, g.n), np.inf)
        for j, i in g.edges:
            table[i - 1, j - 1] = adversary.delay_for(j, i)
        yield from (np.broadcast_to(table, (size, g.n, g.n)) for size in blocks)
        return
    senders = range(1, g.n + 1)
    rngs = [_rng(config.seed, DELAY_STREAM, j) for j in senders]
    outs = [[i - 1 for i in sorted(g.out_neighbors[j])] for j in senders]
    for size in blocks:
        block = np.full((size, g.n, g.n), np.inf)
        for j, (rng, out) in enumerate(zip(rngs, outs)):
            block[:, out, j] = rng.uniform(0.0, adversary.dmax, (size, len(out)))
        yield block


def _belief_pass(config: SimulationConfig, phase: np.ndarray,
                 quorum: np.ndarray) -> ExecutionTrace:
    """Replay the schedule through belief_recursion, which updates the
    completers as in the analysis replay, then apply each mid_update partial
    write. The crashing agent sends its belief of t - 1 at its crash
    iteration t and never transmits again, so no agent reads its belief at t
    and the scan need not know of it: the row is computed afterwards with
    the scan's arithmetic on the beliefs at t - 1, then frozen from t on."""
    draws = _signal_draws(config)
    log_likelihood = log_likelihood_rows(config.model, draws)
    m = config.model.m
    initial = np.full((config.graph.n, m), -math.log(m), dtype=np.float64)
    takes_quorum = PHASES.takes_quorum[phase]
    log_belief = belief_recursion(initial, phase, PHASES.completes[phase],
                                  quorum, log_likelihood)
    # A SimulationConfig sets partial_count for mid_update only.
    for ev in config.adversary.crash_plan:
        if ev.partial_count is not None:
            t, i, k = ev.iteration - 1, ev.agent - 1, ev.partial_count
            before = log_belief[t - 1] if t else initial
            row = (update_matrices(takes_quorum[t:t + 1], quorum[t:t + 1])
                   @ before + log_likelihood[t:t + 1])[0, i]
            row[k:] = before[i, k:]
            log_belief[t:, i] = normalize_log_belief(row)
    signal = np.where(takes_quorum, draws, -1).astype(np.int32)
    return ExecutionTrace(config, initial, phase, quorum, signal, log_belief)


def _signal_draws(config: SimulationConfig) -> np.ndarray:
    """Every agent's T signal indices, as a (T, n) array, from the agent's
    own substream in iteration order, so they do not depend on the delays."""
    model, T = config.model, config.iterations
    return np.stack([signal_indices_from_uniforms(
        model, i, config.theta_star, _rng(config.seed, SIGNAL_STREAM, i).random(T))
        for i in sorted(config.graph.nodes)], axis=1)


def log_likelihood_rows(model: LikelihoodModel, signal: np.ndarray) -> np.ndarray:
    """The (T, n, m) log-likelihood rows of (T, n) signal indices; entries
    of -1 (no signal) give an arbitrary row."""
    return np.stack([model.log_table(i).T[signal[:, i - 1]]
                     for i in range(1, model.n + 1)], axis=1)


def validate_trace(trace: ExecutionTrace) -> None:
    """Check every invariant that relates a trace's records to each other
    and to the config; raise on the first violation in (t, agent) order.
    Does not re-run the scheduler, so it accepts any delivery order, but
    quorums must name real transmitting in-neighbors."""
    config = trace.config
    g, T, n = config.graph, config.iterations, config.graph.n
    if not trace.alive[0].all():
        raise TraceInvariantError("iteration 1 must include every agent")

    planned = tuple(sorted((ev.agent, ev.iteration, ev.phase)
                           for ev in config.adversary.crash_plan))
    ts, agents = np.nonzero(trace.phase > 0)
    observed = tuple(sorted(
        (a + 1, t + 1, PHASES.names[code]) for t, a, code in
        zip(ts.tolist(), agents.tolist(), trace.phase[ts, agents].tolist())))
    if observed != planned:
        raise TraceInvariantError(
            f"observed crashes {observed} differ from plan {planned}")

    alive, takes, quorum = trace.alive, trace.takes_quorum, trace.quorum
    beliefs = trace.log_belief
    # Reductions along the short m or q axis are folded column by column.
    need = g.in_degree - config.f
    sizes = _fold_columns(np.add, quorum >= 0)
    # Tables indexed by label, where the padding label -1 reads column 0.
    members = np.maximum(quorum, 0)
    hears = np.concatenate([np.ones((n, 1), dtype=bool), g.in_links], axis=1)
    sent = np.concatenate([np.ones((T, 1), dtype=bool), trace.transmitted], axis=1)
    malformed = alive & ~_fold_columns(np.logical_and, np.isfinite(beliefs))
    gaps = np.abs(log_normalizer(np.where(malformed[..., None], 0.0, beliefs))[..., 0])
    before = np.concatenate([trace.initial_log_belief[None], beliefs[:-1]])

    def outside(table: np.ndarray, t: int, i: int) -> list[int]:
        return sorted({j for j in quorum[t, i].tolist() if j >= 0 and not table[j]})

    # Each record's checks as (T, n) masks, in the order they are reported.
    checks = (
        (malformed, lambda t, i: "malformed log beliefs"),
        (alive & (gaps > BELIEF_NORMALIZATION_TOLERANCE),
         lambda t, i: f"beliefs unnormalized (logsumexp={gaps[t, i]:.3e})"),
        (takes & (sizes != need),
         lambda t, i: f"quorum size {sizes[t, i]} != {need[i]}"),
        (takes & _fold_columns(np.logical_or, (quorum[..., 1:] >= 0)
                               & (quorum[..., 1:] <= quorum[..., :-1])),
         lambda t, i: "quorum not strictly increasing"),
        (takes & ~_fold_columns(np.logical_and, hears[np.arange(n)[:, None], members]),
         lambda t, i: f"quorum members {outside(hears[i], t, i)} are not "
                      f"in-neighbors"),
        (takes & ~_fold_columns(np.logical_and,
                                sent[np.arange(T)[:, None, None], members]),
         lambda t, i: f"quorum members {outside(sent[t], t, i)} did not "
                      f"transmit at t={t + 1}"),
        (alive & ~takes & _fold_columns(np.logical_or, beliefs != before),
         lambda t, i: "belief changed without an update"),
    )
    hits = np.flatnonzero(np.stack([mask for mask, _ in checks], axis=2))
    survivors = alive & (trace.phase == 0)
    following = np.concatenate([alive[1:], survivors[-1:]])
    broken = np.flatnonzero((following != survivors).any(axis=1))
    first = np.unravel_index(hits[0], (T, n, len(checks))) if hits.size else None
    if broken.size and (first is None or broken[0] < first[0]):
        t = int(broken[0])
        raise TraceInvariantError(
            f"iteration {t + 2} alive set {sorted(_agents(following[t]))} != "
            f"survivors of iteration {t + 1} {sorted(_agents(survivors[t]))}")
    if first is not None:
        t, i, c = (int(v) for v in first)
        raise TraceInvariantError(f"t={t + 1} agent={i + 1}: {checks[c][1](t, i)}")


# tracefile reads the definitions above, so it is imported last.
from .tracefile import read_trace, write_trace  # noqa: E402
