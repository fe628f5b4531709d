"""The trace file: JSON lines that store an ExecutionTrace.

A trace file is JSON lines, keys sorted: a header with the config and the
initial beliefs, then one step record per (iteration, alive agent) in (t,
agent) order. write_trace writes it and read_trace reads it back.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from itertools import chain, compress, repeat

import numpy as np

from .engine import (BELIEF_CHUNK, PHASES, ExecutionTrace, SimulationConfig,
                     TraceInvariantError, blank_schedule)
from .graphs import ConfigError, parse_config


def write_trace(trace: ExecutionTrace, path) -> None:
    """One JSON object per line, keys sorted: a header record, then one
    record per (iteration, alive agent) in (t, agent) order, each the text
    json.dumps(row, sort_keys=True) gives, without calling it per record.
    The records of trace.step_blocks() are formatted and written one block
    of BELIEF_CHUNK iterations at a time, from a template: once per distinct
    fields of a block, the text up to the beliefs (agent, completed, crash
    phase) and the text from the beliefs up to t (quorum, signal); the
    beliefs by str, which is json's spelling of a finite float. Every
    signal name, and the beliefs of a record holding a non-finite one, are
    spelled by json.dumps."""
    config, m = trace.config, trace.config.model.m
    record = "%s" + ", ".join(["%s"] * m) + "%s%d}\n"
    header = {"kind": "header", "config": config.to_dict(),
              "initial_log_belief": trace.initial_log_belief.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ts, _, fields, index, beliefs in trace.step_blocks():
            # each distinct record's text up to its beliefs, and from the end
            # of its beliefs up to its t, keys in sorted order
            prefixes = np.array([
                f'{{"agent": {agent}, "alive": true, "completed": '
                f'{json.dumps(completed)}, "crash_phase": {json.dumps(phase)}, '
                f'"kind": "step", "log_belief": ['
                for agent, phase, completed, _, _ in fields], dtype=object)
            middles = np.array([
                f'], "quorum": {json.dumps(quorum)}, "signal": '
                f'{json.dumps(signal)}, "t": '
                for _, _, _, signal, quorum in fields], dtype=object)
            cells = np.empty((len(ts), m + 3), dtype=object)
            cells[:, 0] = prefixes[index]
            cells[:, 1:-2] = beliefs
            odd = np.flatnonzero(~np.isfinite(beliefs).all(axis=1))
            if odd.size:
                cells[odd, 1:-2] = [[json.dumps(v) for v in row]
                                    for row in beliefs[odd].tolist()]
            cells[:, -2] = middles[index]
            cells[:, -1] = ts
            fh.write(record * len(ts) % tuple(cells.ravel().tolist()))


_STEP_KEYS = ("kind", "t", "agent", "alive", "completed", "quorum", "signal",
              "log_belief", "crash_phase")
_STEP_FIELDS = frozenset(_STEP_KEYS)
_step_values = operator.itemgetter(*_STEP_KEYS)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    row = dict(pairs)
    if len(row) != len(pairs):
        raise TraceInvariantError(f"duplicate keys in {[key for key, _ in pairs]}")
    return row


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _parse_record(line: str, lineno: int) -> dict:
    try:
        row = _DECODER.decode(line)
    except TraceInvariantError as exc:
        raise TraceInvariantError(f"line {lineno}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise TraceInvariantError(f"line {lineno}: not JSON ({exc})") from None
    if not isinstance(row, dict):
        raise TraceInvariantError(f"line {lineno}: not a JSON object")
    return row


def _parse_header(header: dict) -> tuple[SimulationConfig, np.ndarray]:
    return (SimulationConfig.from_dict(header["config"]),
            np.asarray(header["initial_log_belief"], dtype=np.float64))


def _typed(values: Sequence, *kinds: type) -> np.ndarray:
    """Per value, whether its type is one of kinds (so a bool is not an
    int); one pass over the types when they all are."""
    if set(map(type, values)) <= set(kinds):
        return np.ones(len(values), dtype=bool)
    return np.array([type(v) in kinds for v in values], dtype=bool)


def _label_column(values: Sequence, top: int) -> tuple[np.ndarray, np.ndarray,
                                                        np.ndarray]:
    """Per value, whether it is an int and whether it is an int in 1..top,
    and the values as an array with 0 for every value outside."""
    ints = _typed(values, int)
    if ints.all() and (not values or (1 <= min(values) and max(values) <= top)):
        return ints, ints, np.array(values, dtype=np.intp)
    inside = [ok and 1 <= v <= top for v, ok in zip(values, ints.tolist())]
    return (ints, np.array(inside, dtype=bool),
            np.array([v if ok else 0 for v, ok in zip(values, inside)], dtype=np.intp))


def _list_column(values: Sequence) -> tuple[np.ndarray, np.ndarray, list]:
    """Per value, whether it is a list and its length (0 if it is not), and
    the values of every list laid end to end."""
    lists = _typed(values, list)
    sizes = np.zeros(len(values), dtype=np.intp)
    sizes[lists] = list(map(len, compress(values, lists)))
    return lists, sizes, list(chain.from_iterable(compress(values, lists)))


def _all_per_list(ok: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per list, of the given sizes and laid end to end in ok, whether ok
    holds for every one of its values."""
    if ok.all():
        return np.ones(len(sizes), dtype=bool)
    faults = np.zeros(len(ok) + 1, dtype=np.intp)
    np.cumsum(~ok, out=faults[1:])
    ends = np.cumsum(sizes)
    return faults[ends] == faults[ends - sizes]


def _check_steps(rows: list, lineno: int, config: SimulationConfig,
                 width: int) -> tuple:
    """The rules of a step record, tested column by column on decoded step
    lines, the first of them on line lineno. Returns the index of the first
    record that breaks a rule (len(rows) if none), the message of the first
    rule it breaks (None if none) and, for the records before it, the
    0-based iterations and agents, phase codes, quorums padded to width,
    signal indices and log beliefs."""
    T, n, m = config.iterations, config.graph.n, config.model.m
    R = len(rows)
    try:        # every row an object holding every step field
        columns = [list(map(operator.itemgetter(key), rows)) for key in _STEP_KEYS]
        objects = np.ones(R, dtype=bool)
        exact = np.fromiter(map(len, rows), np.intp, R) == len(_STEP_KEYS)
    except (KeyError, TypeError):
        objects = [type(row) is dict for row in rows]
        exact = [ok and row.keys() == _STEP_FIELDS for ok, row in zip(objects, rows)]
        columns = list(zip(*[_step_values(row) if ok else (None,) * len(_STEP_KEYS)
                             for ok, row in zip(exact, rows)]))
        columns[0] = [row.get("kind") if ok else None for ok, row in zip(objects, rows)]
        objects, exact = np.array(objects, dtype=bool), np.array(exact, dtype=bool)
    kind, t, agent, alive, completed, quorum, signal, belief, phase = columns

    def each(test, values, value) -> np.ndarray:
        return np.fromiter(map(test, values, repeat(value)), bool, R)

    t_int, t_in, t = _label_column(t, T)
    agent_int, agent_in, agent = _label_column(agent, n)
    named = _typed(phase, str, type(None))
    code = np.full(R, -1, dtype=np.int8)
    code[named] = list(map(PHASES.codes.get, compress(phase, named), repeat(-1)))
    takes, completes = PHASES.takes_quorum[code], PHASES.completes[code]
    said = each(operator.is_, completed, True)
    lists, sizes, flat = _list_column(quorum)
    member_int, member_in, members = _label_column(flat, n)
    vectors, lengths, flat = _list_column(belief)
    numbers = _typed(flat, int, float)
    no_quorum = each(operator.is_, quorum, None)
    no_signal = each(operator.is_, signal, None)
    # each record's signal looked up in its agent's space (a record whose
    # agent is not a label reads the last space, and breaks a rule anyway)
    spaces = config.model.signal_indices
    texts = _typed(signal, str)
    k = np.full(R, -1, dtype=np.int32)
    k[texts] = [space.get(s, -1) for space, s in zip(
        compress(map(spaces.__getitem__, (agent - 1).tolist()), texts),
        compress(signal, texts))]
    malformed = {
        "t": ~t_int,
        "agent": ~agent_int,
        "alive": ~each(operator.is_, alive, True),
        "completed": ~_typed(completed, bool),
        "quorum": ~(no_quorum | (lists & _all_per_list(member_int, sizes))),
        "signal": ~(no_signal | texts),
        "log_belief": ~(vectors & _all_per_list(numbers, lengths)),
        "crash_phase": code < 0}

    def where(r: int) -> str:
        return f"t={rows[r]['t']} agent={rows[r]['agent']}"

    # Each rule as a column of the records that break it, with its message,
    # in the order a record's rules are reported.
    rules = (
        (~objects, lambda r: f"line {lineno + r}: not a JSON object"),
        (each(operator.ne, kind, "step"),
         lambda r: f"unexpected record kind {kind[r]!r}"),
        (~exact, lambda r: f"line {lineno + r}: step fields missing "
                           f"{sorted(_STEP_FIELDS - rows[r].keys())}, unexpected "
                           f"{sorted(rows[r].keys() - _STEP_FIELDS)}"),
        (np.logical_or.reduce(list(malformed.values())),
         lambda r: f"line {lineno + r}: malformed fields "
                   f"{[name for name, broken in malformed.items() if broken[r]]}"),
        (~t_in, lambda r: f"step iteration {rows[r]['t']} out of range"),
        (~agent_in, lambda r: f"{where(r)}: unknown agent"),
        (lengths != m, lambda r: f"{where(r)}: malformed log beliefs"),
        (said & ~completes,
         lambda r: f"{where(r)}: completed record with phase {phase[r]}"),
        (completes & ~said,
         lambda r: f"{where(r)}: incomplete record needs a crash phase, got {phase[r]}"),
        (~takes & ~(no_quorum & no_signal),
         lambda r: f"{where(r)}: {phase[r]} record must not carry quorum or signal"),
        (takes & (no_quorum | no_signal),
         lambda r: f"{where(r)}: missing quorum or signal"),
        # a quorum the arrays cannot hold gets validate_trace's message
        (takes & (sizes > width),
         lambda r: f"{where(r)}: quorum size {len(quorum[r])} != "
                   f"{config.graph.in_degree[rows[r]['agent'] - 1] - config.f}"),
        (takes & ~_all_per_list(member_in, sizes),
         lambda r: f"{where(r)}: quorum members "
                   f"{sorted({j for j in quorum[r] if not 1 <= j <= n})} are not "
                   f"in-neighbors"),
        (takes & (k < 0), lambda r: f"{where(r)}: unknown signal {signal[r]!r}"),
    )
    hits = np.flatnonzero(np.stack([broken for broken, _ in rules], axis=1))
    first, fault = R, None
    if hits.size:
        first, rule = divmod(int(hits[0]), len(rules))
        fault = rules[rule][1](first)
    count = sizes[:first]
    total = int(count.sum())
    ends = np.cumsum(count)
    padded = np.full((first, width), -1, dtype=np.int32)
    padded[np.repeat(np.arange(first), count),
           np.arange(total) - np.repeat(ends - count, count)] = members[:total]
    return (first, fault, t[:first] - 1, agent[:first] - 1, code[:first], padded,
            k[:first], belief[:first])


def read_trace(path) -> ExecutionTrace:
    """Parse a trace file into the trace arrays, checking each step record's
    own fields on the way; validate_trace checks the rest.

    Step lines are read in blocks of BELIEF_CHUNK * n: every line of a block
    is decoded by a decoder that refuses duplicate keys, and its records are
    tested against _check_steps's ordered rules, one boolean column each.
    The first record of the file that breaks a rule, or the first line that
    does not decode, is reported as a record-by-record reader reports it,
    unless a duplicate record comes earlier; a belief beyond float range is
    reported after every line has been checked. Lines are numbered as they
    stand in the file: blank lines at its end are dropped, and any other
    blank line does not decode."""
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
    # At most f agents ever crash, so a trace has at least T * (n - f) step
    # records: the arrays stay proportional to the file.
    if len(lines) - 1 < T * (n - config.f):
        raise TraceInvariantError(
            f"header claims {T} iterations but the trace has "
            f"{len(lines) - 1} step records")
    phase, quorum = blank_schedule(config)
    signal = np.full((T, n), -1, dtype=np.int32)
    # Row 0 is the initial belief; a dead agent reads its last record's row.
    stacked = np.empty((T + 1, n, config.model.m), dtype=np.float64)
    stacked[0] = initial
    overflow = None
    size = BELIEF_CHUNK * n
    for start in range(1, len(lines), size):
        block = lines[start:start + size]
        rows = []
        try:
            for line in block:
                rows.append(_DECODER.decode(line))
        except (TraceInvariantError, ValueError, RecursionError):
            pass        # the line at len(rows) does not decode
        first, fault, ts, agents, codes, members, k, beliefs = _check_steps(
            rows, start + 1, config, quorum.shape[2])
        # records before the first faulty one whose cell came earlier, in
        # this block or in an earlier one
        cells = ts * n + agents
        again = phase.ravel()[cells] >= 0
        order = np.argsort(cells, kind="stable")
        again[order[1:][np.diff(cells[order]) == 0]] = True
        if again.any():
            d = int(np.argmax(again))
            raise TraceInvariantError(f"duplicate record for t={ts[d] + 1} "
                                      f"agent={agents[d] + 1}")
        if fault is not None:
            raise TraceInvariantError(fault)
        if len(rows) < len(block):      # _parse_record raises, saying why
            _parse_record(block[len(rows)], start + len(rows) + 1)
        phase[ts, agents], quorum[ts, agents], signal[ts, agents] = codes, members, k
        if overflow is None:
            try:
                stacked[ts + 1, agents] = beliefs
            except OverflowError as exc:
                overflow = exc
    if overflow is not None:
        raise TraceInvariantError(f"malformed log beliefs ({overflow})")
    source = np.where(phase >= 0, np.arange(1, T + 1)[:, None], 0)
    log_belief = stacked[np.maximum.accumulate(source), np.arange(n)]
    return ExecutionTrace(config, initial, phase, quorum, signal, log_belief)
