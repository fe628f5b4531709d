"""The trace reader's step-record rules: one engineered line per rule."""

import dataclasses
import json

import numpy as np
import pytest

from crashlearn.engine import (TraceInvariantError, read_trace, run_execution,
                               write_trace)
from crashlearn.observation import LikelihoodModel

from conftest import suite_configs
from oracles import read_trace_by_lines

# Line 6 of the stored trace is agent 1's record at t=2, one that takes a
# quorum and completes its update.
LINE = 6


def fields(**values):
    """The edit that sets fields of the record."""
    return lambda row, header: json.dumps({**row, **values}, sort_keys=True)


def renamed(row, header):
    row = {**row, "extra": row["alive"]}
    del row["alive"]
    return json.dumps(row, sort_keys=True)


# (edit of line 6, given its record and the header line; the message both
# readers give), one per rule of a step record, in the order they are tested.
RULES = {
    "undecodable": (lambda row, header: '{"agent": 1',
                    "line 6: not JSON (Expecting ',' delimiter: line 2 column 1 "
                    "(char 12))"),
    "not-an-object": (lambda row, header: "[1, 2]", "line 6: not a JSON object"),
    "second-header": (lambda row, header: header,
                      "unexpected record kind 'header'"),
    "field-set": (renamed, "line 6: step fields missing ['alive'], "
                           "unexpected ['extra']"),
    "bool-t": (fields(t=True), "line 6: malformed fields ['t']"),
    "every-type": (fields(t="2", agent=1.0, alive=False, completed=None,
                          quorum=[2, True], signal=5, log_belief=[-0.5, "x"],
                          crash_phase="late"),
                   "line 6: malformed fields ['t', 'agent', 'alive', 'completed', "
                   "'quorum', 'signal', 'log_belief', 'crash_phase']"),
    "t-range": (fields(t=31), "step iteration 31 out of range"),
    "agent-range": (fields(agent=5), "t=2 agent=5: unknown agent"),
    "belief-length": (fields(log_belief=[-0.5]), "t=2 agent=1: malformed log beliefs"),
    "completed": (fields(crash_phase="mid_update"),
                  "t=2 agent=1: completed record with phase mid_update"),
    "incomplete": (fields(completed=False),
                   "t=2 agent=1: incomplete record needs a crash phase, got None"),
    "carries": (fields(completed=False, crash_phase="before_transmit"),
                "t=2 agent=1: before_transmit record must not carry quorum or "
                "signal"),
    "missing": (fields(signal=None), "t=2 agent=1: missing quorum or signal"),
    "quorum-width": (fields(quorum=[2, 3, 4]), "t=2 agent=1: quorum size 3 != 2"),
    "quorum-members": (fields(quorum=[0, 9]),
                       "t=2 agent=1: quorum members [0, 9] are not in-neighbors"),
    "signal-name": (fields(signal="zzz"), "t=2 agent=1: unknown signal 'zzz'"),
}


@pytest.fixture(scope="module")
def stored_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("stored") / "mid.jsonl"
    write_trace(run_execution(dataclasses.replace(suite_configs()["crash_mid"],
                                                  iterations=30)), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("rule", RULES)
def test_read_trace_reports_each_step_rule(stored_lines, tmp_path, rule):
    edit, message = RULES[rule]
    lines = list(stored_lines)
    row = json.loads(lines[LINE - 1])
    assert (row["t"], row["agent"], row["crash_phase"]) == (2, 1, None)
    lines[LINE - 1] = edit(row, lines[0])
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    for reader in (read_trace, read_trace_by_lines):
        with pytest.raises(TraceInvariantError) as caught:
            reader(path)
        assert str(caught.value) == message


def test_read_trace_names_a_blank_line_by_its_file_line(stored_lines, tmp_path):
    # A blank line 2 comes before a record that is not an object on line 6;
    # blank lines at the end of a file are dropped.
    lines = list(stored_lines)
    lines[LINE - 2] = "[1, 2]"
    path = tmp_path / "blank.jsonl"
    path.write_text("\n".join(lines[:1] + [""] + lines[1:]) + "\n")
    trailing = tmp_path / "trailing.jsonl"
    trailing.write_text("\n".join(stored_lines) + "\n\n \n")
    for reader in (read_trace, read_trace_by_lines):
        with pytest.raises(TraceInvariantError, match=r"^line 2: not JSON"):
            reader(path)
        assert reader(trailing).log_belief.shape == (30, 4, 2)


def test_trace_round_trip_returns_an_equal_config(tmp_path):
    # rows normalized as x / x.sum(), some summing to 1.0 only within rounding
    tables = [x / x.sum(axis=1, keepdims=True)
              for x in np.random.default_rng(7).random((4, 2, 3)) + 0.1]
    assert any(row.sum() != 1.0 for table in tables for row in table)
    model = LikelihoodModel(("theta1", "theta2"), [("a", "b", "c")] * 4, tables)
    config = dataclasses.replace(suite_configs()["crash_mid"], model=model,
                                 iterations=20)
    write_trace(run_execution(config), tmp_path / "t.jsonl")
    assert read_trace(tmp_path / "t.jsonl").config == config
