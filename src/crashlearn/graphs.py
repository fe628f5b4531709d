"""Directed communication topologies and crash-resilience detectability checks.

Nodes are labeled 1..n. An edge (j, i) means "j sends to i"; self-loops are
implicit (every agent always hears itself) and never stored. The central
object is the *reduced graph*: what survives after every node drops up to f
of its in-links and up to f sinks of the resulting graph are deleted. A
topology tolerates f crashes exactly when every reduced graph keeps a single
source component, and that structural test is equivalent to a quantifier over
two-sided partitions; both routes are implemented and cross-asserted. The
detectability report and the checks all read one cached source_census, and
every in-degree, neighbor set and link matrix is read from a graph's
in_links table.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

DEFAULT_ENUMERATION_CAP = 1_000_000
PARTITION_NODE_LIMIT = 12
_SCAN_CHUNK = 1 << 15
# Assignments per block of check_condition2's scan: about 9 MB traced at
# PARTITION_NODE_LIMIT nodes.
_PARTITION_CHUNK = 1 << 13

_Parsed = TypeVar("_Parsed")


class ConfigError(ValueError):
    """Simulation configuration rejected before any execution starts."""


def config_integer(value, name: str) -> int:
    """A config field that must be an integer: an int, or a float with an
    integral value. Booleans, fractions and non-numbers are rejected, not
    truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def config_float(value, name: str) -> float:
    """A config field that must be a number: an int or a float. Booleans,
    strings and other values are rejected, not coerced."""
    if isinstance(value, (numbers.Integral, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def config_list(value, name: str) -> list:
    """A config field that must be a JSON array: a list or a tuple. Strings,
    mappings and other values are rejected, not iterated."""
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"{name} must be a list, got {value!r}")


def parse_config(what: str, parse: Callable[..., _Parsed], *args) -> _Parsed:
    """parse(*args), with the errors a parser raises on a missing key, a
    wrong type or an out-of-range value reported as a ConfigError naming
    what was parsed. Every input from outside the program (config, batch,
    graph and model files, a trace header) is parsed through here: no other
    path of the package turns JSON text into a graph, model or config."""
    try:
        return parse(*args)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} missing key {exc}") from None
    except (AttributeError, IndexError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from None


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured candidate cap."""


class EquivalenceViolationError(AssertionError):
    """Independent detectability routes disagree: implementation defect."""


@dataclass(frozen=True)
class DirectedGraph:
    """Static directed topology on nodes 1..n without explicit self-loops."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        # Any iterable of pairs is stored as a frozenset, so the graph stays
        # hashable for the caches keyed on it.
        object.__setattr__(self, "edges", frozenset((j, i) for j, i in self.edges))
        for j, i in self.edges:
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise ValueError(f"edge ({j}, {i}) outside 1..{self.n}")
            if j == i:
                raise ValueError(f"self-loop ({j}, {i}) is implicit; do not list it")

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> DirectedGraph:
        return cls(n=n, edges=((int(j), int(i)) for j, i in edges))

    @classmethod
    def complete(cls, n: int) -> DirectedGraph:
        return cls.from_edge_list(n, ((j, i) for j in range(1, n + 1)
                                      for i in range(1, n + 1) if j != i))

    @classmethod
    def cycle(cls, n: int) -> DirectedGraph:
        return cls.from_edge_list(n, ((i, i % n + 1) for i in range(1, n + 1)))

    @classmethod
    def from_dict(cls, payload: Mapping) -> DirectedGraph:
        """Parse {"n": int, "edges": [[j, i], ...]}; rejects duplicates and self-loops."""
        n = config_integer(payload["n"], "graph n")
        seen: set[tuple[int, int]] = set()
        for item in config_list(payload.get("edges", []), "graph edges"):
            item = config_list(item, "edge")
            if len(item) != 2:
                raise ConfigError(f"edge {item!r} must have two endpoints")
            j = config_integer(item[0], "edge endpoint")
            i = config_integer(item[1], "edge endpoint")
            if (j, i) in seen:
                raise ValueError(f"duplicate edge ({j}, {i})")
            seen.add((j, i))
        return cls(n=n, edges=seen)

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    @cached_property
    def in_neighbors(self) -> dict[int, frozenset[int]]:
        return _label_sets(self.in_links)

    @cached_property
    def out_neighbors(self) -> dict[int, frozenset[int]]:
        return _label_sets(self.in_links.T)

    @cached_property
    def in_links(self) -> np.ndarray:
        """Read-only (n, n) bool table, True at [i - 1, j - 1] for edge (j, i)."""
        links = np.zeros((self.n, self.n), dtype=bool)
        for j, i in self.edges:
            links[i - 1, j - 1] = True
        links.setflags(write=False)
        return links

    @cached_property
    def in_degree(self) -> np.ndarray:
        """Read-only (n,) in-degrees, entry i - 1 for node i."""
        degree = self.in_links.sum(axis=1)
        degree.setflags(write=False)
        return degree

    @cached_property
    def max_in_degree(self) -> int:
        return int(self.in_degree.max())

    @cached_property
    def min_in_degree(self) -> int:
        return int(self.in_degree.min())

    def influence_floor(self) -> Fraction:
        """Smallest positive weight any update row can assign: 1/(1 + max in-degree)."""
        return Fraction(1, 1 + self.max_in_degree)


def _label_sets(links: np.ndarray) -> dict[int, frozenset[int]]:
    """{k: the 1-based labels where row k - 1 of an (n, n) bool table is
    True}, for every node k."""
    return {k: frozenset((np.flatnonzero(row) + 1).tolist())
            for k, row in enumerate(links, start=1)}


@dataclass(frozen=True)
class SourceDecomposition:
    """Strongly connected components plus the ones with no incoming edge."""

    components: tuple[frozenset[int], ...]
    source_components: tuple[frozenset[int], ...]

    @property
    def unique_source(self) -> bool:
        return len(self.source_components) == 1


def source_decomposition(nodes: Iterable[int],
                         edges: Iterable[tuple[int, int]]) -> SourceDecomposition:
    """SCCs of an arbitrary node/edge set and the components with no inbound
    edge, from the boolean transitive closure of its in-reach: a node's
    component is the nodes it reaches and is reached by, and a component is
    a source exactly when nothing outside it reaches in."""
    node_list = sorted(set(nodes))
    index = {v: k for k, v in enumerate(node_list)}
    reach = np.eye(len(node_list), dtype=bool)   # reach[a, b]: a path b -> a
    for j, i in edges:
        if j not in index or i not in index:
            raise ValueError(f"edge ({j}, {i}) references a missing node")
        reach[index[i], index[j]] = True
    for k in range(len(node_list)):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    mutual = reach & reach.T
    components, sources, seen = [], [], set()
    # Ascending labels meet each component first at its smallest member.
    for k, v in enumerate(node_list):
        if v in seen:
            continue
        component = frozenset(itertools.compress(node_list, mutual[k].tolist()))
        seen |= component
        components.append(component)
        if (reach[k] == mutual[k]).all():
            sources.append(component)
    return SourceDecomposition(components=tuple(components),
                               source_components=tuple(sources))


@dataclass(frozen=True)
class ReducedGraph:
    """Survivor of dropping <=f in-links per node, then <=f sinks of the result.

    Identity for deduplication is the surviving (nodes, edges) pair; the
    removal metadata records one way of producing it.
    """

    base: DirectedGraph
    f: int
    removed_in_links: tuple[tuple[int, frozenset[int]], ...]
    removed_sinks: frozenset[int]
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def key(self) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
        return (self.nodes, self.edges)

    def source_decomposition(self) -> SourceDecomposition:
        return source_decomposition(self.nodes, self.edges)


_WORD = 64


def _packed(nodes: Iterable[int], words: int) -> np.ndarray:
    """Bitmask of 1-based nodes in uint64 words, node v at bit v - 1."""
    m = 0
    for v in nodes:
        m |= 1 << (v - 1)
    return np.array([(m >> (_WORD * w)) & ((1 << _WORD) - 1) for w in range(words)],
                    dtype=np.uint64)


def _unpacked(mask: np.ndarray) -> set[int]:
    """The 1-based nodes of one packed mask."""
    m = sum(int(word) << (_WORD * w) for w, word in enumerate(mask))
    return {v + 1 for v in range(m.bit_length()) if (m >> v) & 1}


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


def _close_in_reach(reach: np.ndarray) -> None:
    """Transitive closure in place, one Warshall pass over intermediate nodes.

    reach has shape (candidates, n, words); reach[c, i] holds the nodes with a
    path into node i of candidate c. Nodes with an empty row stay empty.
    """
    for k in range(reach.shape[1]):
        word, bit = divmod(k, _WORD)
        into = (reach[:, :, word] >> np.uint64(bit)) & np.uint64(1)
        reach |= reach[:, k:k + 1, :] * into[:, :, None]


def _removal_counts(g: DirectedGraph, sizes: Callable[[int], Iterable[int]],
                    cap: int, what: str) -> list[int]:
    """Per node, its number of ways to drop sizes(in-degree) in-links;
    BudgetExceededError when their product, the candidate count, exceeds
    cap."""
    counts = [sum(math.comb(d, k) for k in sizes(d)) for d in g.in_degree.tolist()]
    total = math.prod(counts)
    if total > cap:
        raise BudgetExceededError(f"{total} {what} candidates exceed the cap {cap}")
    return counts


class _RemovalSpace:
    """Every way for each node to drop some of its in-links, as one index.

    Candidate c picks option (c // strides[i]) % counts[i] at node i + 1; node
    1 is the most significant digit, so c runs in itertools.product order.
    Option o of node i + 1 is removals[i][o], a (node, dropped in-neighbors)
    pair as in ReducedGraph.removed_in_links; it keeps kept_edges[i][o],
    packed in kept[i][o].
    """

    def __init__(self, g: DirectedGraph, sizes: Callable[[int], Iterable[int]],
                 cap: int, what: str) -> None:
        counts = _removal_counts(g, sizes, cap, what)
        self.total = math.prod(counts)
        self.g = g
        self.words = -(-g.n // _WORD)
        self.removals: list[list[tuple[int, frozenset[int]]]] = []
        self.kept_edges: list[list[tuple[tuple[int, int], ...]]] = []
        self.kept: list[np.ndarray] = []
        for i in range(1, g.n + 1):
            nbrs = sorted(g.in_neighbors[i])
            removals = [(i, frozenset(c)) for k in sizes(len(nbrs))
                        for c in itertools.combinations(nbrs, k)]
            keeps = [[j for j in nbrs if j not in r] for _, r in removals]
            self.removals.append(removals)
            self.kept_edges.append([tuple((j, i) for j in k) for k in keeps])
            self.kept.append(np.stack([_packed(k, self.words) for k in keeps]))
        self.counts = np.asarray(counts, dtype=np.int64)
        self.strides = np.ones(g.n, dtype=np.int64)
        for i in range(g.n - 2, -1, -1):
            self.strides[i] = self.strides[i + 1] * counts[i + 1]

    def chunks(self, size: int) -> Iterator[np.ndarray]:
        """The indices 0 .. size - 1, _SCAN_CHUNK at a time."""
        for start in range(0, size, _SCAN_CHUNK):
            yield np.arange(start, min(start + _SCAN_CHUNK, size), dtype=np.int64)

    def digits(self, c: np.ndarray) -> np.ndarray:
        return (c[:, None] // self.strides) % self.counts

    def in_masks(self, digits: np.ndarray) -> np.ndarray:
        """(candidates, n, words) kept in-link masks for the given digits."""
        return np.stack([kept[digits[:, i]] for i, kept in enumerate(self.kept)],
                        axis=1)

    def self_bits(self, nodes: Iterable[int]) -> np.ndarray:
        """(n, words) masks with each given node's own bit in its row."""
        bits = np.zeros((self.g.n, self.words), dtype=np.uint64)
        for v in nodes:
            bits[v - 1] = _packed([v], self.words)
        return bits


def _link_sizes(f: int) -> Callable[[int], range]:
    """The removal sizes 0..min(f, d) of a node of in-degree d."""
    if f < 0:
        raise ValueError("f must be nonnegative")
    return lambda d: range(min(f, d) + 1)


def _link_removals(g: DirectedGraph, f: int, max_candidates: int) -> _RemovalSpace:
    """Every way to drop at most f in-links per node; refused above the cap."""
    return _RemovalSpace(g, _link_sizes(f), max_candidates, "link-removal")


def _census(space: _RemovalSpace, f: int,
            ) -> list[tuple[frozenset[int], np.ndarray | None, np.ndarray | None]]:
    """Every distinct reduced graph, as (sink set S, keys, first candidates)
    blocks ordered by sorted surviving nodes.

    Sinks are never kept in-links, so within block S two candidates give the
    same reduced graph exactly when they pick the same options outside S: the
    key is the candidate index with the digits of S zeroed, and first is the
    smallest candidate with that key. For S empty the key is the candidate
    itself, so that block is every candidate, its own first: its keys and
    firsts are None, and readers walk it by index ranges (space.chunks).
    """
    g = space.g
    found: dict[frozenset[int], tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for c in space.chunks(space.total):
        digits = space.digits(c)
        has_out = np.bitwise_or.reduce(space.in_masks(digits), axis=1)
        maybe_sinks = sorted(g.nodes - _unpacked(np.bitwise_and.reduce(has_out, axis=0)))
        for size in range(1, min(f, len(maybe_sinks)) + 1):
            if size == g.n:
                continue  # never delete every node
            for subset in itertools.combinations(maybe_sinks, size):
                rows = ~(has_out & _packed(subset, space.words)).any(axis=1)
                cols = [v - 1 for v in subset]
                keys = c[rows] - digits[rows][:, cols] @ space.strides[cols]
                block = found.setdefault(frozenset(subset), ([], []))
                block[0].append(keys)
                block[1].append(c[rows])
    blocks = [(frozenset(), None, None)]
    for sinks, (keys, firsts) in found.items():
        keys, at = np.unique(np.concatenate(keys), return_index=True)
        if keys.size:
            blocks.append((sinks, keys, np.concatenate(firsts)[at]))
    blocks.sort(key=lambda b: sorted(g.nodes - b[0]))
    return blocks


def _enumeration_rank(space: _RemovalSpace, sinks: frozenset[int],
                      keys: np.ndarray) -> np.ndarray:
    """The permutation that puts census rows of block sinks in
    enumerate_reduced_graphs order.

    All rows of a block share their nodes, so the order is that of their
    sorted edge lists, a proper prefix first: each row's indices into
    sorted(g.edges), ascending and padded with -1, compared column by column.
    """
    if keys.size < 2:
        return np.arange(keys.size)
    g = space.g
    index = {e: k for k, e in enumerate(sorted(g.edges))}
    width = len(index)
    dtype = np.min_scalar_type(-width - 1)
    receivers = [i - 1 for i in sorted(g.nodes - sinks) if g.in_neighbors[i]]
    options = {}
    for i in receivers:
        options[i] = np.zeros((len(space.kept_edges[i]), width), dtype=bool)
        for o, edges in enumerate(space.kept_edges[i]):
            options[i][o, [index[e] for e in edges]] = True
    columns = np.empty((keys.size, width), dtype=dtype)
    for start in range(0, keys.size, _SCAN_CHUNK):
        digits = space.digits(keys[start:start + _SCAN_CHUNK])
        kept = np.zeros((len(digits), width), dtype=bool)
        for i in receivers:
            kept |= options[i][digits[:, i]]
        columns[start:start + len(digits)] = np.sort(
            np.where(kept, np.arange(width, dtype=dtype), width), axis=1)
    columns[columns == width] = -1
    return np.lexsort(columns.T[::-1])


def _materialize(space: _RemovalSpace, f: int, sinks: frozenset[int],
                 keys: np.ndarray, firsts: np.ndarray) -> list[ReducedGraph]:
    """The reduced graphs of census rows (sinks, keys), each with the removal
    metadata of its first candidate."""
    g = space.g
    nodes = g.nodes - sinks
    receivers = [i - 1 for i in sorted(nodes) if g.in_neighbors[i]]
    reduced = []
    for key, picks in zip(space.digits(keys).tolist(), space.digits(firsts).tolist()):
        edges = frozenset(e for i in receivers for e in space.kept_edges[i][key[i]])
        removed = tuple(map(operator.getitem, space.removals, picks))
        reduced.append(ReducedGraph(base=g, f=f, removed_in_links=removed,
                                    removed_sinks=sinks, nodes=nodes, edges=edges))
    return reduced


def enumerate_reduced_graphs(g: DirectedGraph, f: int,
                             max_candidates: int = DEFAULT_ENUMERATION_CAP,
                             ) -> tuple[ReducedGraph, ...]:
    """All distinct reduced graphs, deduplicated on (surviving nodes, edges).

    Ordered by (sorted nodes, sorted edges); each carries the removal of the
    first candidate, in per-node itertools.product order, that produces it.
    Raises BudgetExceededError when the link-removal choice space alone
    exceeds max_candidates.
    """
    space = _link_removals(g, f, max_candidates)
    reduced = []
    for sinks, keys, firsts in _census(space, f):
        if keys is None:
            keys = firsts = np.arange(space.total, dtype=np.int64)
        order = _enumeration_rank(space, sinks, keys)
        reduced.extend(_materialize(space, f, sinks, keys[order], firsts[order]))
    return tuple(reduced)


@dataclass(frozen=True)
class SourceCensus:
    """Source structure over every reduced graph of (g, f), with the constants
    the convergence bounds read from it."""

    chi: int                                # number of distinct reduced graphs
    gamma: int                              # smallest source component size
    sources: tuple[frozenset[int], ...]     # distinct, by size then members
    witness: ReducedGraph | None            # first graph without a unique source
    xi: Fraction                            # influence floor of the base graph
    window: int                             # graph size times chi

    @cached_property
    def xi_window_exact(self) -> Fraction:
        """xi ** window, Theorem 2's per-window overlap floor."""
        return self.xi ** self.window

    @cached_property
    def xi_window_float(self) -> float:
        """xi ** window as a float: 0.0 once it underflows."""
        return float(self.xi_window_exact)


def source_census(g: DirectedGraph, f: int,
                  max_candidates: int = DEFAULT_ENUMERATION_CAP) -> SourceCensus:
    """chi, gamma, every distinct source component in canonical order (by
    size, then by sorted members), the first reduced graph in
    enumerate_reduced_graphs order without a unique source, and xi and the
    window n * chi. The cap is checked on every call, but the census is
    cached on (g, f) alone, whatever cap let it through."""
    _removal_counts(g, _link_sizes(f), max_candidates, "link-removal")
    return _source_census(g, f)


def _row_sources(reach: np.ndarray, live: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of reach have a unique source, and the distinct source masks
    of all rows, a zero mask among them when some row has several sources.

    reach has shape (rows, live nodes, words), each live node's row the
    nodes with a path into it, itself included. A row's source is unique
    exactly when some node reaches every live node, that is, when the AND of
    its live rows is nonzero, and that AND is then the source. Otherwise its
    sources are its minimal in-reach sets: node v lies in one exactly when
    every node that reaches v is reached by v.
    """
    common = np.bitwise_and.reduce(reach, axis=1)
    one = common.any(axis=1)
    several = reach[~one]
    member = np.unpackbits(several.view(np.uint8), axis=-1,
                           bitorder="little")[:, :, live].astype(bool)
    in_source = (~member | member.transpose(0, 2, 1)).all(axis=2)
    masks = np.concatenate([common, several[in_source]])
    # neighbouring rows mostly share their sources: sort only the changes
    fresh = np.r_[True, (masks[1:] != masks[:-1]).any(axis=1)]
    return one, distinct_rows(masks[fresh])[0]


@lru_cache(maxsize=64)
def _source_census(g: DirectedGraph, f: int) -> SourceCensus:
    """source_census without the cap."""
    space = _link_removals(g, f, math.inf)
    chi = 0
    sources: set[frozenset[int]] = set()
    witness = None
    for sinks, keys, firsts in _census(space, f):
        self_bits = space.self_bits(g.nodes - sinks)
        live = [v - 1 for v in sorted(g.nodes - sinks)]
        dead = [v - 1 for v in sinks]
        failing = []        # the block's rows without a unique source
        for rows in space.chunks(space.total if keys is None else keys.size):
            chi += rows.size
            reach = space.in_masks(space.digits(rows if keys is None else keys[rows]))
            reach[:, dead] = 0      # a zeroed key digit keeps every in-link
            reach |= self_bits
            _close_in_reach(reach)
            unique, masks = _row_sources(reach[:, live], live)
            sources.update(frozenset(_unpacked(m)) for m in masks if m.any())
            if witness is None:
                failing.append(rows[~unique])
        if witness is None:
            rows = np.concatenate(failing)      # only these rows are ranked
            if rows.size:
                keys, firsts = (rows, rows) if keys is None else (keys[rows], firsts[rows])
                first = _enumeration_rank(space, sinks, keys)[:1]
                witness, = _materialize(space, f, sinks, keys[first], firsts[first])
    ordered = tuple(sorted(sources, key=lambda s: (len(s), sorted(s))))
    return SourceCensus(chi=chi, gamma=len(ordered[0]), sources=ordered,
                        witness=witness, xi=g.influence_floor(),
                        window=g.n * chi)


def first_dominated_nodes(g: DirectedGraph, f: int,
                          kept_in: Mapping[int, Iterable[int]]) -> frozenset[int] | None:
    """Nodes of the first reduced graph, in enumerate_reduced_graphs order,
    whose every edge (j, i) has j in kept_in[i] (a node missing from kept_in
    keeps no in-link); None when no reduced graph qualifies.

    Deleted sinks S keep no out-link, so such a graph with sinks S exists
    exactly when |S| <= f, S is not every node, and each other node i can
    drop, within its budget f, every in-link from outside kept_in[i] or from
    S. Nodes order reduced graphs first, so the first one has the feasible S
    whose surviving node list sorts first.
    """
    nodes = sorted(g.nodes)
    kept = {i: frozenset(kept_in.get(i, ())) for i in nodes}
    best = None
    for size in range(min(f, g.n - 1) + 1):
        for removed in map(frozenset, itertools.combinations(nodes, size)):
            survivors = [i for i in nodes if i not in removed]
            if best is not None and survivors >= best:
                continue
            if all(len(g.in_neighbors[i] - (kept[i] - removed)) <= f
                   for i in survivors):
                best = survivors
    return None if best is None else frozenset(best)


def check_condition1(g: DirectedGraph, f: int,
                     max_candidates: int = DEFAULT_ENUMERATION_CAP,
                     ) -> tuple[bool, ReducedGraph | None]:
    """True iff every reduced graph has exactly one source component.

    Source-component uniqueness is monotone in the edge set and insensitive to
    sink removal, so scanning the maximal link-removal patterns (every node
    drops min(f, in-degree) in-links) decides the property for every reduced
    graph. On failure the witness is the first such pattern, in per-node
    itertools.product order, with two or more source components (no sinks
    removed).
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    space = _RemovalSpace(g, lambda d: (min(f, d),), max_candidates,
                          "maximal-removal")
    self_bits = space.self_bits(g.nodes)
    for c in space.chunks(space.total):
        reach = space.in_masks(space.digits(c)) | self_bits
        _close_in_reach(reach)
        bad = c[~np.bitwise_and.reduce(reach, axis=1).any(axis=1)]
        if bad.size:
            witness, = _materialize(space, f, frozenset(), bad[:1], bad[:1])
            return False, witness
    return True, None


def _refuse_partition_scan(n: int) -> None:
    if n > PARTITION_NODE_LIMIT:
        raise BudgetExceededError(
            f"partition scan is 3^{n}; limit is {PARTITION_NODE_LIMIT} nodes")


def check_condition2(g: DirectedGraph, f: int,
                     ) -> tuple[bool, tuple[frozenset[int], frozenset[int], frozenset[int]] | None]:
    """Partition route: every two-sided split is bridged by f+1 outside in-links.

    For each partition of the nodes into nonempty L, R and a rest C, some node
    in L must have at least f+1 in-links from R union C, or some node in R at
    least f+1 from L union C. Returns a violating (L, R, C) as witness.
    Graphs above PARTITION_NODE_LIMIT nodes are refused.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    n = g.n
    _refuse_partition_scan(n)
    # links[j - 1, i - 1]: j -> i, in C order (a transposed one slows the matmul)
    links = np.ascontiguousarray(g.in_links.T, dtype=np.float64)
    place = 3 ** np.arange(n - 1, -1, -1)
    total = 3 ** n
    # the assignments in itertools.product order, node 1 the most significant
    # digit, each node's side 0 for L, 1 for R and 2 for C
    for start in range(0, total, _PARTITION_CHUNK):
        assignments = np.arange(start, min(start + _PARTITION_CHUNK, total))
        side = assignments[:, None] // place % 3
        member = side[:, None, :] == np.arange(3)[:, None]
        # each node's in-links from each side, then from its own side
        per_side = member.astype(np.float64) @ links
        own = np.take_along_axis(per_side, side[:, None, :], axis=1)[:, 0]
        bridged = ((side < 2) & (g.in_degree - own > f)).any(axis=1)
        bad = np.flatnonzero(member[:, 0].any(axis=1) & member[:, 1].any(axis=1)
                             & ~bridged)
        if bad.size:
            sides = side[bad[0]]
            return False, tuple(frozenset((np.flatnonzero(sides == s) + 1).tolist())
                                for s in range(3))
    return True, None


@dataclass(frozen=True)
class DetectabilityReport:
    """Structural crash-tolerance summary for a (graph, f) pair."""

    n: int
    f: int
    condition1_holds: bool
    condition2_holds: bool
    chi: int                       # number of distinct reduced graphs
    gamma: int                     # minimum source-component size
    xi: Fraction                   # influence floor 1/(1 + max in-degree)
    witness: ReducedGraph | None = None

    def to_dict(self) -> dict:
        witness = self.witness
        if witness is not None:
            witness = {"nodes": sorted(witness.nodes),
                       "edges": [list(e) for e in sorted(witness.edges)]}
        return {
            "n": self.n, "f": self.f,
            "condition1_holds": self.condition1_holds,
            "condition2_holds": self.condition2_holds,
            "chi": self.chi, "gamma": self.gamma,
            "xi": str(self.xi), "xi_float": float(self.xi),
            "witness": witness,
        }


def detectability_report(g: DirectedGraph, f: int,
                         max_candidates: int = DEFAULT_ENUMERATION_CAP,
                         ) -> DetectabilityReport:
    """Reduced-graph census plus both condition checks, cross-asserted.

    chi, gamma, xi and the literal unique-source verdict are source_census's;
    on failure the witness is its first failing reduced graph in
    enumerate_reduced_graphs order. Raises EquivalenceViolationError if any
    two routes disagree (that would be an implementation defect, not a
    property of the input). Graphs that check_condition2 refuses are refused
    before the census.
    """
    _refuse_partition_scan(g.n)
    census = source_census(g, f, max_candidates)
    literal_unique = census.witness is None
    fast_holds, _ = check_condition1(g, f, max_candidates=max_candidates)
    c2_holds, _ = check_condition2(g, f)
    if not (literal_unique == fast_holds == c2_holds):
        raise EquivalenceViolationError(
            f"detectability routes disagree: literal={literal_unique} "
            f"maximal-scan={fast_holds} partition={c2_holds}")
    return DetectabilityReport(
        n=g.n, f=f,
        condition1_holds=literal_unique,
        condition2_holds=c2_holds,
        chi=census.chi, gamma=census.gamma, xi=census.xi,
        witness=census.witness)
