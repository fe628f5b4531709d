"""Per-agent finite signal models and identifiability analysis.

Each agent i observes i.i.d. signals from a finite alphabet with a strictly
positive likelihood row per hypothesis. Identifiability questions are always
about ordered hypothesis pairs: globally (summing information over all
agents) and locally (summing only over a reduced graph's source component,
which is what survives worst-case crashes and link starvation). Every
divergence is read from a model's one KL table, kl_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .graphs import (DEFAULT_ENUMERATION_CAP, ConfigError, DirectedGraph,
                     config_list, source_census)

ZERO_TOLERANCE = 1e-12          # "nonzero" means strictly above this
ROW_SUM_TOLERANCE = 1e-12       # direct construction
FILE_ROW_SUM_TOLERANCE = 1e-9   # JSON loading, rows renormalized afterwards


class IdentifiabilityPreconditionError(RuntimeError):
    """Source-based identifiability was queried on a non-detectable topology."""


class LikelihoodModel:
    """Immutable collection of per-agent likelihood tables.

    Args:
        hypotheses: ordered hypothesis labels (at least one, all distinct).
        signal_spaces: per-agent ordered signal labels.
        tables: per-agent arrays of shape (m, |signals_i|); every entry
            strictly positive, every row summing to 1 within ROW_SUM_TOLERANCE.
    """

    def __init__(self, hypotheses: Sequence[str],
                 signal_spaces: Sequence[Sequence[str]],
                 tables: Sequence[np.ndarray]):
        hyp = tuple(str(h) for h in hypotheses)
        if not hyp:
            raise ValueError("need at least one hypothesis")
        if len(set(hyp)) != len(hyp):
            raise ValueError("hypothesis labels must be distinct")
        if len(signal_spaces) != len(tables):
            raise ValueError("one table per agent required")
        if not tables:
            raise ValueError("need at least one agent")
        spaces: list[tuple[str, ...]] = []
        mats: list[np.ndarray] = []
        for idx, (sig, tab) in enumerate(zip(signal_spaces, tables), start=1):
            labels = tuple(str(s) for s in sig)
            if not labels or len(set(labels)) != len(labels):
                raise ValueError(f"agent {idx}: signal labels empty or duplicated")
            arr = np.asarray(tab, dtype=np.float64)
            if arr.shape != (len(hyp), len(labels)):
                raise ValueError(f"agent {idx}: table shape {arr.shape} != "
                                 f"({len(hyp)}, {len(labels)})")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValueError(f"agent {idx}: entries must be finite and > 0")
            gap = np.abs(arr.sum(axis=1) - 1.0).max()
            if gap > ROW_SUM_TOLERANCE:
                raise ValueError(f"agent {idx}: row sums off by {gap:.3e} "
                                 f"(tolerance {ROW_SUM_TOLERANCE:.0e})")
            arr = arr.copy()
            arr.setflags(write=False)
            spaces.append(labels)
            mats.append(arr)
        self.hypotheses: tuple[str, ...] = hyp
        self._hyp_index = {h: k for k, h in enumerate(hyp)}
        self._spaces = tuple(spaces)
        self.signal_indices: tuple[Mapping[str, int], ...] = tuple(  # label -> column
            MappingProxyType({s: k for k, s in enumerate(sp)}) for sp in spaces)
        self._tables = tuple(mats)
        self._log_tables = tuple(np.log(arr) for arr in mats)
        for lg in self._log_tables:
            lg.setflags(write=False)

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._tables)

    @property
    def m(self) -> int:
        return len(self.hypotheses)

    def agents(self) -> range:
        return range(1, self.n + 1)

    def hypothesis_index(self, theta: str) -> int:
        try:
            return self._hyp_index[theta]
        except KeyError:
            raise ValueError(f"unknown hypothesis {theta!r}") from None

    def signals(self, agent: int) -> tuple[str, ...]:
        return self._spaces[agent - 1]

    def table(self, agent: int) -> np.ndarray:
        return self._tables[agent - 1]

    def log_table(self, agent: int) -> np.ndarray:
        return self._log_tables[agent - 1]

    def signal_index(self, agent: int, signal: str) -> int:
        try:
            return self.signal_indices[agent - 1][signal]
        except KeyError:
            raise ValueError(f"agent {agent} has no signal {signal!r}") from None

    def log_likelihoods(self, agent: int, signal: str) -> np.ndarray:
        """Column of log-likelihoods over hypotheses for one observed signal."""
        return self._log_tables[agent - 1][:, self.signal_index(agent, signal)]

    @cached_property
    def ordered_pairs(self) -> tuple[tuple[str, str], ...]:
        """Every ordered pair of distinct hypothesis labels."""
        return tuple((a, b) for a in self.hypotheses for b in self.hypotheses
                     if a != b)

    @cached_property
    def kl_table(self) -> np.ndarray:
        """Read-only (n, m, m) KL divergences (natural log): [i - 1, a, b]
        is np.sum(p * (log p - log q)), p and q agent i's rows a and b."""
        table = np.stack([np.sum(tab[:, None] * (lg[:, None] - lg[None]), axis=-1)
                          for tab, lg in zip(self._tables, self._log_tables)])
        table.setflags(write=False)
        return table

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping) -> LikelihoodModel:
        """Parse a model file. Rows are renormalized before the constructor
        checks the tables, and a row sum more than FILE_ROW_SUM_TOLERANCE
        from 1 is refused after it, so the constructor's messages come
        first."""
        hyp = [str(h) for h in config_list(payload["hypotheses"], "hypotheses")]
        spaces, tables, gaps = [], [], []
        for idx, spec in enumerate(config_list(payload["agents"], "agents"),
                                   start=1):
            labels = [str(s) for s in config_list(spec["signals"],
                                                  f"agent {idx} signals")]
            table = spec["likelihood"]
            if not isinstance(table, Mapping):
                raise ConfigError(f"agent {idx} likelihood must be an object, "
                                  f"got {table!r}")
            missing = [h for h in hyp if h not in table]
            if missing:
                raise ValueError(f"agent {idx}: missing likelihood rows {missing}")
            rows = []
            for h in hyp:
                row = np.asarray(table[h], dtype=np.float64)
                if row.shape != (len(labels),):
                    raise ValueError(f"agent {idx}, hypothesis {h}: row length "
                                     f"{row.size} != {len(labels)} signals")
                rows.append(row)
            # (0, k) with no hypotheses, so the constructor says what is wrong
            arr = np.array(rows).reshape(len(hyp), len(labels))
            sums = arr.sum(axis=1, keepdims=True)
            gaps.append(np.abs(sums - 1.0).max(initial=0.0))
            # a zero sum needs an entry <= 0, which the constructor refuses
            with np.errstate(divide="ignore", invalid="ignore"):
                tables.append(arr / sums)
            spaces.append(labels)
        model = cls(hyp, spaces, tables)
        for idx, gap in enumerate(gaps, start=1):
            if gap > FILE_ROW_SUM_TOLERANCE:
                raise ValueError(f"agent {idx}: row sums off by {gap:.3e}")
        return model

    def to_dict(self) -> dict:
        return {
            "hypotheses": list(self.hypotheses),
            "agents": [
                {"signals": list(self._spaces[k]),
                 "likelihood": {h: [float(x) for x in self._tables[k][r]]
                                for r, h in enumerate(self.hypotheses)}}
                for k in range(self.n)
            ],
        }


# -- information quantities ---------------------------------------------------

def kl_divergence(model: LikelihoodModel, agent: int, theta1: str, theta2: str) -> float:
    """KL divergence (natural log) between agent's rows for theta1 and theta2."""
    return float(model.kl_table[agent - 1, model.hypothesis_index(theta1),
                                model.hypothesis_index(theta2)])


def expected_log_ratios(model: LikelihoodModel, theta: str, theta_star: str) -> np.ndarray:
    """Per-agent expectation of log(l(s|theta)/l(s|theta_star)) under theta_star.

    Equals minus the KL divergence from the true row to the theta row, hence
    always in [-compute_log_ratio_bound(model), 0].
    """
    return -model.kl_table[:, model.hypothesis_index(theta_star),
                           model.hypothesis_index(theta)]


def compute_log_ratio_bound(model: LikelihoodModel) -> float:
    """Largest |log(l(w|theta1)/l(w|theta2))| over agents, pairs, signals (C0)."""
    return max(float(np.max(np.abs(lg[:, None] - lg[None])))
               for lg in map(model.log_table, model.agents()))


def check_failure_free_identifiability(model: LikelihoodModel,
                                       ) -> tuple[bool, tuple[str, str] | None]:
    """True iff for every ordered pair the network-wide KL sum is nonzero."""
    for a, b in model.ordered_pairs:
        total = sum(kl_divergence(model, i, a, b) for i in model.agents())
        if total <= ZERO_TOLERANCE:
            return False, (a, b)
    return True, None


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Global and crash-worst-case identifiability for (model, graph, f)."""

    failure_free_ok: bool
    assumption1_ok: bool
    worst_pair_and_source: tuple[str, str, frozenset[int]] | None
    C0: float
    C1: float

    def to_dict(self) -> dict:
        witness = self.worst_pair_and_source
        if witness is not None:
            witness = {"theta_star": witness[0], "theta": witness[1],
                       "source": sorted(witness[2])}
        return {"failure_free_ok": self.failure_free_ok,
                "assumption1_ok": self.assumption1_ok,
                "worst_pair_and_source": witness,
                "C0": self.C0, "C1": self.C1}


def check_assumption1(model: LikelihoodModel, g: DirectedGraph, f: int,
                      max_candidates: int = DEFAULT_ENUMERATION_CAP,
                      ) -> IdentifiabilityReport:
    """Every reduced-graph source component must distinguish every ordered pair.

    Raises IdentifiabilityPreconditionError if some reduced graph lacks a
    unique source component. C1 is the smallest source KL sum over reduced
    graphs and ordered pairs, clamped to 0.0 when the check fails (m == 1 is
    vacuous: C1 = +inf). The reported source has the smallest KL sum, ties
    going to the first in source_census's canonical order.
    """
    if g.n != model.n:
        raise ConfigError(f"graph has {g.n} nodes but model has {model.n} agents")
    census = source_census(g, f, max_candidates)
    if census.witness is not None:
        decomp = census.witness.source_decomposition()
        raise IdentifiabilityPreconditionError(
            f"reduced graph on nodes {sorted(census.witness.nodes)} has "
            f"{len(decomp.source_components)} source components")

    c0 = compute_log_ratio_bound(model)
    ff_ok, _ = check_failure_free_identifiability(model)
    if not model.ordered_pairs:
        return IdentifiabilityReport(failure_free_ok=True, assumption1_ok=True,
                                     worst_pair_and_source=None,
                                     C0=c0, C1=math.inf)
    worst_value = math.inf
    worst_witness: tuple[str, str, frozenset[int]] | None = None
    for a, b in model.ordered_pairs:
        kls = [kl_divergence(model, i, a, b) for i in model.agents()]
        for src in census.sources:
            total = sum(kls[i - 1] for i in src)
            if total < worst_value:
                worst_value = total
                worst_witness = (a, b, src)
    ok = worst_value > ZERO_TOLERANCE
    c1 = float(worst_value) if ok else 0.0
    return IdentifiabilityReport(failure_free_ok=ff_ok, assumption1_ok=ok,
                                 worst_pair_and_source=worst_witness,
                                 C0=c0, C1=c1)


def signal_indices_from_uniforms(model: LikelihoodModel, agent: int,
                                 theta_star: str, u) -> np.ndarray:
    """Signal indices of uniform [0, 1) variates via the inverse CDF."""
    row = np.cumsum(model.table(agent)[model.hypothesis_index(theta_star)])
    # the minimum guards the u ~ 1.0 edge
    return np.minimum(np.searchsorted(row, u, side="right"), row.size - 1)


def bernoulli_agent(p: float, q: float,
                    signals: tuple[str, str] = ("a", "b")) -> tuple[tuple[str, str], np.ndarray]:
    """Two-signal table helper: P(signals[0]) = p under the first hypothesis, q under the second."""
    table = np.array([[p, 1.0 - p], [q, 1.0 - q]], dtype=np.float64)
    return signals, table
