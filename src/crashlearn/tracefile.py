"""The trace file: JSON lines that store an ExecutionTrace.

A trace file is JSON lines, keys sorted: a header with the config and the
initial beliefs, then one step record per (iteration, alive agent) in (t,
agent) order. write_trace formats the records from the arrays
BELIEF_CHUNK iterations at a time into exactly the text json.dumps would
give each one: a prefix per (agent, phase code), a quorum-and-signal middle
per distinct (agent, signal, quorum) row, and the beliefs by str, which is
json's spelling of a finite float; a record holding a non-finite belief and
every signal name are spelled by json.dumps. read_trace decodes every line
with a decoder that refuses duplicate keys, then checks the decoded fields
column by column: types, ranges, phase against completed, quorum members,
signal names and repeated (t, agent) cells. The first faulty line goes
through the scalar _parse_step, so every message, and the line it names,
is the one a record-by-record reader gives.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from itertools import chain, compress, repeat

import numpy as np

from .engine import (_PHASE_NAMES, _PHASE_RULES, _PHASE_TABLE, BELIEF_CHUNK,
                     CRASH_PHASES, ExecutionTrace, SimulationConfig,
                     TraceInvariantError, _blank_schedule)
from .graphs import ConfigError, parse_config


def write_trace(trace: ExecutionTrace, path) -> None:
    """One JSON object per line, keys sorted: a header record, then one
    record per (iteration, alive agent) in (t, agent) order, each the text
    json.dumps(row, sort_keys=True) gives. Records are formatted from the
    arrays by template (see the module docstring) and written one chunk of
    BELIEF_CHUNK iterations at a time."""
    config, n, m = trace.config, trace.n, trace.config.model.m
    codes = len(_PHASE_NAMES)
    prefixes = np.array([_step_prefix(agent, code) for agent in range(1, n + 1)
                         for code in range(codes)], dtype=object)
    spaces = [config.model.signals(agent) for agent in range(1, n + 1)]
    record = "%s" + ", ".join(["%s"] * m) + "%s%d}\n"
    header = {"kind": "header", "config": config.to_dict(),
              "initial_log_belief": trace.initial_log_belief.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, trace.iterations, BELIEF_CHUNK):
            ts, agents = np.nonzero(trace.alive[lo:lo + BELIEF_CHUNK])
            ts += lo
            code = trace.phase[ts, agents]
            takes = _PHASE_TABLE[code, 2]
            keys = np.column_stack([agents, trace.signal[ts, agents], takes,
                                    np.where(takes[:, None], trace.quorum[ts, agents],
                                             -1)])
            distinct, inverse = _distinct_rows(keys)
            middles = np.array([_step_middle(
                [j for j in quorum if j >= 0] if took else None,
                spaces[a][k] if k >= 0 else None)
                for a, k, took, *quorum in distinct.tolist()], dtype=object)
            beliefs = trace.log_belief[ts, agents]
            cells = np.empty((len(ts), m + 3), dtype=object)
            cells[:, 0] = prefixes[agents * codes + code]
            cells[:, 1:-2] = beliefs
            odd = np.flatnonzero(~np.isfinite(beliefs).all(axis=1))
            if odd.size:
                cells[odd, 1:-2] = [[json.dumps(v) for v in row]
                                    for row in beliefs[odd].tolist()]
            cells[:, -2] = middles[inverse]
            cells[:, -1] = ts + 1
            fh.write(record * len(ts) % tuple(cells.ravel().tolist()))


def _step_prefix(agent: int, code: int) -> str:
    """A step record's text up to its beliefs, keys in sorted order."""
    phase = _PHASE_NAMES[code]
    return (f'{{"agent": {agent}, "alive": true, "completed": '
            f'{json.dumps(_PHASE_RULES[phase][2])}, "crash_phase": '
            f'{json.dumps(phase)}, "kind": "step", "log_belief": [')


def _step_middle(quorum: list[int] | None, signal: str | None) -> str:
    """A step record's text from the end of its beliefs up to its t."""
    return (f'], "quorum": {json.dumps(quorum)}, "signal": {json.dumps(signal)}, '
            f'"t": ')


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array and, for each row, the
    index of its distinct row."""
    order = np.lexsort(keys.T)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


_STEP_KEYS = ("kind", "t", "agent", "alive", "completed", "quorum", "signal",
              "log_belief", "crash_phase")
_STEP_FIELDS = frozenset(_STEP_KEYS)
_step_values = operator.itemgetter(*_STEP_KEYS)
_PHASE_CODES = {phase: code for code, phase in enumerate(_PHASE_NAMES)}


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
        return row, _PHASE_NAMES.index(phase), [-1] * width, -1
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
    return (row, _PHASE_NAMES.index(phase), quorum + [-1] * (width - len(quorum)),
            config.model.signal_index(agent, signal))


def _parse_header(header: dict) -> tuple[SimulationConfig, np.ndarray]:
    config = SimulationConfig.from_dict(header["config"])
    config.validate()
    return config, np.asarray(header["initial_log_belief"], dtype=np.float64)


def _typed(values: Sequence, *kinds: type) -> np.ndarray:
    """Per value, whether its type is one of kinds (so a bool is not an
    int); one pass over the types when they all are."""
    if set(map(type, values)) <= set(kinds):
        return np.ones(len(values), dtype=bool)
    return np.array([type(v) in kinds for v in values], dtype=bool)


def _label_column(values: Sequence, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Per value, whether it is an int in 1..top, and the values as an
    array with 0 for every other."""
    ints = _typed(values, int)
    if ints.all() and (not values or (1 <= min(values) and max(values) <= top)):
        return ints, np.array(values, dtype=np.intp)
    inside = [ok and 1 <= v <= top for v, ok in zip(values, ints.tolist())]
    return (np.array(inside, dtype=bool),
            np.array([v if ok else 0 for v, ok in zip(values, inside)], dtype=np.intp))


def _check_steps(rows: list, config: SimulationConfig, width: int) -> tuple:
    """The checks _parse_step makes of one record, made column by column on
    decoded step lines. Returns the index of the first record _parse_step
    would reject (len(rows) if none) and, for the records before it, the
    0-based iterations and agents, phase codes, quorums padded to width,
    signal indices and log beliefs."""
    T, n, m = config.iterations, config.graph.n, config.model.m
    try:        # every row an object holding every step field
        columns = [list(map(operator.itemgetter(key), rows)) for key in _STEP_KEYS]
        exact = np.fromiter(map(len, rows), np.intp, len(rows)) == len(_STEP_KEYS)
    except (KeyError, TypeError):
        fields = [_step_values(row) if type(row) is dict and row.keys() == _STEP_FIELDS
                  else (None,) * len(_STEP_KEYS) for row in rows]
        columns = list(zip(*fields)) if fields else [()] * len(_STEP_KEYS)
        exact = np.ones(len(rows), dtype=bool)
    kind, t, agent, alive, completed, quorum, signal, belief, phase = columns

    def each(test, values, value) -> np.ndarray:
        return np.fromiter(map(test, values, repeat(value)), bool, len(rows))

    t_ok, t = _label_column(t, T)
    agent_ok, agent = _label_column(agent, n)
    named = _typed(phase, str, type(None))
    code = np.full(len(rows), -1, dtype=np.int8)
    code[named] = list(map(_PHASE_CODES.get, compress(phase, named), repeat(-1)))
    _, _, takes, completes = _PHASE_TABLE[code].T
    # every quorum list's members in one column; outside counts, per record,
    # the members that are not agent labels
    lists = _typed(quorum, list)
    sizes = np.zeros(len(rows), dtype=np.intp)
    sizes[lists] = list(map(len, compress(quorum, lists)))
    member_ok, members = _label_column(list(chain.from_iterable(compress(quorum, lists))), n)
    strays = np.zeros(len(members) + 1, dtype=np.intp)
    np.cumsum(~member_ok, out=strays[1:])
    ends = np.cumsum(sizes)
    outside = strays[ends] - strays[ends - sizes]
    # each record's signal looked up in its agent's space (a record whose
    # agent is not a label reads the last space, and is faulty anyway)
    spaces = [{s: k for k, s in enumerate(config.model.signals(a))}
              for a in range(1, n + 1)]
    texts = _typed(signal, str)
    k = np.full(len(rows), -1, dtype=np.int32)
    k[texts] = list(map(dict.get, compress(map(spaces.__getitem__, (agent - 1).tolist()),
                                           texts), compress(signal, texts), repeat(-1)))
    shaped = _typed(belief, list)
    shaped[shaped] = np.fromiter(map(len, compress(belief, shaped)), np.intp) == m
    numbers = np.zeros(len(rows), dtype=bool)
    numbers[shaped] = _typed(list(chain.from_iterable(compress(belief, shaped))),
                             int, float).reshape(-1, m).all(axis=1)
    ok = (exact & t_ok & agent_ok & (code >= 0) & numbers
          & _typed(completed, bool) & (each(operator.is_, completed, True) == completes)
          & each(operator.eq, kind, "step") & each(operator.is_, alive, True)
          & np.where(takes, lists & (sizes <= width) & (outside == 0),
                     each(operator.is_, quorum, None))
          & np.where(takes, k >= 0, each(operator.is_, signal, None)))
    first = len(rows) if ok.all() else int(np.argmin(ok))
    count = sizes[:first]
    total = int(count.sum())
    padded = np.full((first, width), -1, dtype=np.int32)
    padded[np.repeat(np.arange(first), count),
           np.arange(total) - np.repeat(ends[:first] - count, count)] = members[:total]
    return (first, t[:first] - 1, agent[:first] - 1, code[:first], padded, k[:first],
            belief[:first])


def read_trace(path) -> ExecutionTrace:
    """Parse a trace file into the trace arrays, checking each step record's
    own fields on the way; validate_trace checks the rest.

    Step lines are read in blocks of BELIEF_CHUNK * n: every line of a block
    is decoded, its records are checked column by column (_check_steps), and
    the first faulty one goes through the scalar _parse_step, so each fault
    is reported, with its line, as a record-by-record reader reports it. A
    duplicate record is caught in the same order; a belief beyond float
    range is reported after every line has been checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
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
    phase, quorum = _blank_schedule(config)
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
            pass        # the line at len(rows) is faulty; _parse_step says how
        first, ts, agents, codes, members, k, beliefs = _check_steps(
            rows, config, quorum.shape[2])
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
        if first < len(block):
            _parse_step(block[first], start + first + 1, config, quorum.shape[2])
            raise RuntimeError(f"line {start + first + 1}: the column checks "
                               f"reject a record _parse_step accepts")
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
