"""Experiment harness and command-line interface."""

import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from crashlearn import cli, harness
from crashlearn.cli import main
from crashlearn.engine import (MAX_RUN_CELLS, AdversarySchedule, ConfigError,
                               CrashEvent, TraceInvariantError, read_trace,
                               run_execution, write_trace)
from crashlearn.graphs import DirectedGraph
from crashlearn.harness import (ExperimentBatch, IdentifiabilityGateError,
                                analyze_trace, identifiability_gate,
                                load_batch, load_simulation_config,
                                report_metrics, run_batch,
                                write_trajectory_csv)
from crashlearn.observation import bernoulli_agent

from conftest import make_config, two_hypothesis_model


def flat_model(n):
    """Only agent 1 can tell the hypotheses apart."""
    return two_hypothesis_model([bernoulli_agent(0.3, 0.7)]
                                + [bernoulli_agent(0.5, 0.5)
                                   for _ in range(n - 1)])


@pytest.fixture(scope="module")
def base_config():
    return make_config(
        DirectedGraph.complete(4), 1, iterations=60, seed=0,
        adversary=AdversarySchedule(
            mode="adversarial_latest",
            crash_plan=(CrashEvent(agent=4, iteration=10, phase="mid_update",
                                   partial_count=1),)))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory, base_config):
    d = tmp_path_factory.mktemp("configs")
    (d / "graph.json").write_text(json.dumps(
        base_config.graph.to_dict()))
    (d / "model.json").write_text(json.dumps(base_config.model.to_dict()))
    (d / "flat_model.json").write_text(json.dumps(flat_model(4).to_dict()))
    sim = {"graph": "graph.json", "model": "model.json", "f": 1,
           "theta_star": "theta1", "iterations": 60, "seed": 0,
           "adversary": base_config.adversary.to_dict()}
    (d / "sim.json").write_text(json.dumps(sim))
    (d / "batch.json").write_text(json.dumps(
        {"config": "sim.json", "seeds": [21, 22],
         "convergence_threshold": 0.9}))
    return d


# -- identifiability gate ---------------------------------------------------------

def test_gate_accepts_informative_model(base_config):
    report = identifiability_gate(base_config)
    assert report["assumption1_ok"] and report["C1"] > 0.0


def test_gate_refuses_cuttable_information(base_config):
    starved = dataclasses.replace(base_config, model=flat_model(4))
    with pytest.raises(IdentifiabilityGateError) as err:
        identifiability_gate(starved)
    assert "indistinguishable" in str(err.value)


def test_gate_refuses_undetectable_topology():
    config = make_config(DirectedGraph.cycle(3), 0, iterations=10, seed=0)
    config = dataclasses.replace(config, f=1)
    with pytest.raises(IdentifiabilityGateError):
        identifiability_gate(config)


# -- batches -----------------------------------------------------------------------

def test_batch_validation(base_config):
    with pytest.raises(ConfigError):
        ExperimentBatch(base_config=base_config, seeds=())
    with pytest.raises(ConfigError):
        ExperimentBatch(base_config=base_config, seeds=(1, 1))
    with pytest.raises(ConfigError):
        ExperimentBatch(base_config=base_config, seeds=(1,),
                        convergence_threshold=0.0)


def test_run_batch_and_reports_are_deterministic(base_config, tmp_path):
    batch = ExperimentBatch(base_config=base_config, seeds=(11, 12, 13),
                            convergence_threshold=0.9)
    s1 = run_batch(batch, write_traces=True, out_dir=tmp_path / "r1")
    s2 = run_batch(batch, write_traces=True, out_dir=tmp_path / "r2")
    assert [o.seed for o in s1.outcomes] == [11, 12, 13]
    assert s1.convergence_rate == 1.0
    assert s1.all_checks_passed
    p1 = report_metrics(s1, tmp_path / "r1")
    p2 = report_metrics(s2, tmp_path / "r2")
    for key in ("summary", "seeds"):
        with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
            assert f1.read() == f2.read()
    for seed in (11, 12, 13):
        a = (tmp_path / "r1" / f"trace_{seed}.jsonl").read_bytes()
        b = (tmp_path / "r2" / f"trace_{seed}.jsonl").read_bytes()
        assert a == b
    payload = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert payload["aggregate"]["num_seeds"] == 3
    assert payload["outcomes"][0]["trace_file"] == "trace_11.jsonl"


def test_run_batch_gate_refusal_and_override(base_config):
    starved = dataclasses.replace(
        base_config, model=flat_model(4),
        adversary=AdversarySchedule(
            mode="adversarial_latest",
            crash_plan=(CrashEvent(agent=1, iteration=1,
                                   phase="before_transmit"),)))
    batch = ExperimentBatch(base_config=starved, seeds=(5,), checks=())
    with pytest.raises(IdentifiabilityGateError):
        run_batch(batch)
    forced = run_batch(batch, override_gate=True)
    assert forced.identifiability["gate_overridden"] is True
    # the informative agent dies first: beliefs stay exactly uniform
    assert forced.outcomes[0].min_posterior == 0.5
    assert forced.convergence_rate == 0.0


def test_analyze_trace_round_trip(base_config, tmp_path):
    batch = ExperimentBatch(base_config=base_config, seeds=(11,),
                            convergence_threshold=0.9)
    summary = run_batch(batch, write_traces=True, out_dir=tmp_path)
    report = analyze_trace(summary.outcomes[0].trace_path)
    assert report["iterations"] == 60
    assert report["all_checks_passed"]
    assert report["min_posterior"] == summary.outcomes[0].min_posterior
    subset = analyze_trace(summary.outcomes[0].trace_path,
                           checks=("psi", "prop2"))
    assert set(subset["checks"]) == {"psi", "prop2"}


def test_trajectory_csv_row_count(base_config, tmp_path):
    trace = run_execution(base_config)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(trace, path)
    lines = path.read_text().splitlines()
    expected = sum(len(trace.records[t - 1]) for t in range(1, 61))
    assert len(lines) == 1 + expected
    header = lines[0].split(",")
    assert header[:6] == ["t", "agent", "completed", "crash_phase", "signal",
                          "quorum"]
    first = lines[1].split(",")
    total = float(first[6]) + float(first[7])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_trajectory_csv_bytes(tmp_path):
    # every field format at once: a signal that needs CSV quoting, empty
    # crash-phase, signal and quorum fields, |-joined quorums and posteriors
    # as repr(math.exp(v))
    model = two_hypothesis_model([bernoulli_agent(0.3, 0.7, ('a,"b"', "c"))] * 5)
    config = make_config(
        DirectedGraph.complete(5), 2, iterations=3, seed=7, model=model,
        adversary=AdversarySchedule(crash_plan=(
            CrashEvent(agent=4, iteration=2, phase="before_transmit"),
            CrashEvent(agent=5, iteration=2, phase="mid_update",
                       partial_count=1))))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(run_execution(config), path)
    assert path.read_bytes().decode() == "".join(line + "\r\n" for line in [
        "t,agent,completed,crash_phase,signal,quorum,posterior_theta1,"
        "posterior_theta2",
        "1,1,1,,c,3|5,0.7,0.30000000000000004",
        '1,2,1,,"a,""b""",3|5,0.30000000000000004,0.7',
        "1,3,1,,c,4|5,0.7,0.30000000000000004",
        "1,4,1,,c,1|3,0.7,0.30000000000000004",
        "1,5,1,,c,3|4,0.7,0.30000000000000004",
        "2,1,1,,c,2|5,0.7557891567991835,0.2442108432008165",
        '2,2,1,,"a,""b""",1|3,0.3624224860614226,0.6375775139385774',
        "2,3,1,,c,2|5,0.7557891567991835,0.2442108432008165",
        "2,4,0,before_transmit,,,0.7,0.30000000000000004",
        '2,5,0,mid_update,"a,""b""",1|3,0.41176470588235287,0.5882352941176472',
        "3,1,1,,c,2|3,0.804106897225131,0.19589310277486907",
        "3,2,1,,c,1|3,0.804106897225131,0.19589310277486907",
        "3,3,1,,c,1|2,0.804106897225131,0.19589310277486907",
    ])


# -- config loading -------------------------------------------------------------------

def test_load_simulation_config_with_path_refs(config_dir, base_config):
    loaded = load_simulation_config(config_dir / "sim.json")
    assert loaded.to_dict() == base_config.to_dict()
    inline = json.loads((config_dir / "sim.json").read_text())
    inline["graph"] = base_config.graph.to_dict()
    inline["model"] = base_config.model.to_dict()
    assert load_simulation_config(inline).to_dict() == base_config.to_dict()


def test_load_batch_resolves_nested_references(config_dir, base_config):
    batch = load_batch(config_dir / "batch.json")
    assert batch.base_config.to_dict() == base_config.to_dict()
    assert batch.seeds == (21, 22)
    assert batch.convergence_threshold == 0.9


def test_loader_rejections(config_dir):
    sim = json.loads((config_dir / "sim.json").read_text())
    for broken in ({"graph": "missing.json"},
                   dict(sim, f="one"),
                   dict(sim, theta_star="nope"),
                   dict(sim, iterations=-3)):
        (config_dir / "broken.json").write_text(json.dumps(broken))
        with pytest.raises(ConfigError):
            load_simulation_config(config_dir / "broken.json")
    with pytest.raises(ConfigError):
        load_simulation_config(42)


# -- command line -----------------------------------------------------------------------

def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_simulate_analyze(config_dir, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(["simulate", "--config",
                            str(config_dir / "sim.json"),
                            "--out", str(trace_path),
                            "--require-convergence"], capsys)
    assert code == 0
    assert json.loads(out)["converged"] is True
    code, out, _ = run_cli(["analyze", "--trace", str(trace_path),
                            "--checks", "prop2,psi"], capsys)
    assert code == 0
    assert set(json.loads(out)["checks"]) == {"prop2", "psi"}


def test_cli_exit_code_convergence_miss(config_dir, capsys):
    sim = json.loads((config_dir / "sim.json").read_text())
    sim["iterations"] = 2
    sim["adversary"] = {"mode": "adversarial_latest", "crash_plan": []}
    (config_dir / "short.json").write_text(json.dumps(sim))
    code, _, _ = run_cli(["simulate", "--config",
                          str(config_dir / "short.json"),
                          "--require-convergence"], capsys)
    assert code == 3


def test_cli_exit_code_config_error(config_dir, capsys):
    code, _, err = run_cli(["simulate", "--config",
                            str(config_dir / "does_not_exist.json")], capsys)
    assert code == 2 and "config" in err


# Every integer field of a simulation config, as a path into its dict, and
# values int() would silently turn into an integer.
INTEGER_FIELDS = {
    "f": ("f",), "iterations": ("iterations",), "seed": ("seed",),
    "graph-n": ("graph", "n"), "edge-endpoint": ("graph", "edges", 0, 1),
    "crash-agent": ("adversary", "crash_plan", 0, "agent"),
    "crash-iteration": ("adversary", "crash_plan", 0, "iteration"),
    "partial-count": ("adversary", "crash_plan", 0, "partial_count"),
}
NOT_INTEGERS = {"fraction": 1.5, "true": True, "false": False}


def with_field(config: dict, path: tuple, value) -> dict:
    """A deep copy of a JSON config with the entry at path replaced."""
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
@pytest.mark.parametrize("path", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_cli_simulate_rejects_non_integer_fields(base_config, tmp_path, capsys,
                                                 path, value):
    (tmp_path / "sim.json").write_text(json.dumps(
        with_field(base_config.to_dict(), path, value)))
    code, _, err = run_cli(["simulate", "--config", str(tmp_path / "sim.json")],
                           capsys)
    assert code == 2 and err.startswith("config:"), err
    assert "must be an integer" in err


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_cli_batch_rejects_non_integer_seeds(config_dir, tmp_path, capsys, value):
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": str(config_dir / "sim.json"), "seeds": [21, value]}))
    code, _, err = run_cli(["batch", "--config", str(tmp_path / "batch.json")],
                           capsys)
    assert code == 2 and err.startswith("config:"), err
    assert "must be an integer" in err


def test_cli_batch_refuses_a_negative_seed_before_any_output(config_dir,
                                                             tmp_path, capsys):
    # Every seed's config is built with the batch, so no seed runs and no
    # trace is written before a later seed is refused.
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": str(config_dir / "sim.json"), "seeds": [1000, -1]}))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["batch", "--config", str(tmp_path / "batch.json"),
                            "--write-traces", "--out-dir", str(out_dir)], capsys)
    assert code == 2 and err.startswith("config:"), err
    assert "seed must be a nonnegative integer, got -1" in err
    assert not out_dir.exists()


# Every list field of a batch description with its config inline, as a path
# into its dict, a value that iterates but is not a JSON array, and the name
# the refusal gives the field.
LIST_FIELDS = {
    "seeds": (("seeds",), "1000", "seeds"),
    "checks": (("checks",), {"psi": 1, "thm2": 0}, "checks"),
    "edges": (("config", "graph", "edges"), "12", "graph edges"),
    "edge": (("config", "graph", "edges", 0), "12", "edge"),
    "crash_plan": (("config", "adversary", "crash_plan"),
                   {"agent": 4, "iteration": 10, "phase": "before_transmit"},
                   "crash_plan"),
    "hypotheses": (("config", "model", "hypotheses"), "ab", "hypotheses"),
    "agents": (("config", "model", "agents"), {"signals": ["a", "b"]}, "agents"),
    "signals": (("config", "model", "agents", 0, "signals"), "xy",
                "agent 1 signals"),
}


@pytest.mark.parametrize("path, value, name", LIST_FIELDS.values(),
                         ids=LIST_FIELDS)
def test_cli_batch_rejects_non_list_fields(base_config, tmp_path, capsys,
                                           path, value, name):
    batch = {"config": base_config.to_dict(), "seeds": [21],
             "checks": ["psi"]}
    (tmp_path / "batch.json").write_text(json.dumps(
        with_field(batch, path, value)))
    code, _, err = run_cli(["batch", "--config", str(tmp_path / "batch.json")],
                           capsys)
    assert code == 2 and err.startswith("config:"), err
    assert f"{name} must be a list, got {value!r}" in err, err
    assert "Traceback" not in err


# Fields that iterate or index but have the wrong shape, as a path into a
# batch description with its config inline, the value, and the refusal.
MISSHAPEN_FIELDS = {
    "edge-three-endpoints": (("config", "graph", "edges", 0), [1, 2, 3],
                             "edge [1, 2, 3] must have two endpoints"),
    "edge-one-endpoint": (("config", "graph", "edges", 0), [1],
                          "edge [1] must have two endpoints"),
    "likelihood-string": (("config", "model", "agents", 0, "likelihood"),
                          "theta1theta2",
                          "agent 1 likelihood must be an object, got "
                          "'theta1theta2'"),
    "likelihood-list": (("config", "model", "agents", 0, "likelihood"),
                        [0.5, 0.5],
                        "agent 1 likelihood must be an object, got [0.5, 0.5]"),
}


@pytest.mark.parametrize("path, value, message", MISSHAPEN_FIELDS.values(),
                         ids=MISSHAPEN_FIELDS)
def test_cli_batch_rejects_misshapen_fields(base_config, tmp_path, capsys,
                                            path, value, message):
    batch = {"config": base_config.to_dict(), "seeds": [21],
             "checks": ["psi"]}
    (tmp_path / "batch.json").write_text(json.dumps(
        with_field(batch, path, value)))
    code, _, err = run_cli(["batch", "--config", str(tmp_path / "batch.json")],
                           capsys)
    assert code == 2 and err.startswith("config:"), err
    assert message in err, err
    assert "Traceback" not in err


# Every float field of a simulation config, as a path into its dict with a
# per-edge delay table in place, and values float() would turn into a float
# or fail on with an error other than ConfigError.
FLOAT_FIELDS = {"dmax": ("adversary", "dmax"),
                "fixed-delays": ("adversary", "fixed_delays"),
                "edge-delay": ("adversary", "fixed_delays", "1->2")}
NOT_FLOATS = {"true": True, "false": False, "string": "3", "list": [3.0],
              "huge": 10 ** 400}


def with_edge_delays(config: dict) -> dict:
    return dict(config, adversary={
        "mode": "fixed", "fixed_delays": {f"{j}->{i}": 0.5 for j, i
                                          in config["graph"]["edges"]}})


@pytest.mark.parametrize("value", NOT_FLOATS.values(), ids=NOT_FLOATS)
@pytest.mark.parametrize("path", FLOAT_FIELDS.values(), ids=FLOAT_FIELDS)
def test_cli_simulate_rejects_non_float_fields(base_config, tmp_path, capsys,
                                               path, value):
    (tmp_path / "sim.json").write_text(json.dumps(
        with_field(with_edge_delays(base_config.to_dict()), path, value)))
    code, _, err = run_cli(["simulate", "--config", str(tmp_path / "sim.json")],
                           capsys)
    assert code == 2 and err.startswith("config:"), err
    assert "must be a number" in err


@pytest.mark.parametrize("value", NOT_FLOATS.values(), ids=NOT_FLOATS)
def test_cli_batch_rejects_non_float_threshold(config_dir, tmp_path, capsys,
                                               value):
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": str(config_dir / "sim.json"), "seeds": [21],
         "convergence_threshold": value}))
    code, _, err = run_cli(["batch", "--config", str(tmp_path / "batch.json")],
                           capsys)
    assert code == 2 and err.startswith("config:"), err
    assert "must be a number" in err


# Convergence targets outside the range of a posterior or a rate; nan
# compares false either way.
IMPOSSIBLE_TARGETS = {**{f"threshold-{v}": ("simulate", "--threshold", v)
                         for v in ("nan", "-1", "0", "1.5", "inf")},
                      **{f"min-rate-{v}": ("batch", "--min-rate", v)
                         for v in ("nan", "-1", "1.5", "inf")}}


@pytest.mark.parametrize("command, flag, value", IMPOSSIBLE_TARGETS.values(),
                         ids=IMPOSSIBLE_TARGETS)
def test_cli_rejects_impossible_targets(config_dir, tmp_path, capsys,
                                        command, flag, value):
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": str(config_dir / "sim.json"), "seeds": [21]}))
    config = (config_dir / "sim.json" if command == "simulate"
              else tmp_path / "batch.json")
    code, out, err = run_cli([command, "--config", str(config), flag, value],
                             capsys)
    assert code == 2 and err.startswith(f"config: {flag} "), err
    assert out == "" and "Traceback" not in err


# Per-edge delay tables whose keys are not exactly the graph's edges.
NON_EDGE_DELAYS = {"absent-node": "1->9", "absent-link": "1->1",
                   "reversed-sender": "0->2"}


def with_extra_delay(config: dict, key: str) -> dict:
    config = with_edge_delays(config)
    config["adversary"]["fixed_delays"][key] = 1.0
    return config


@pytest.mark.parametrize("key", NON_EDGE_DELAYS.values(), ids=NON_EDGE_DELAYS)
def test_cli_simulate_and_batch_reject_non_edge_delays(base_config, tmp_path,
                                                       capsys, key):
    config = with_extra_delay(base_config.to_dict(), key)
    (tmp_path / "sim.json").write_text(json.dumps(config))
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": "sim.json", "seeds": [21]}))
    for command, name in (("simulate", "sim.json"), ("batch", "batch.json")):
        code, _, err = run_cli([command, "--config", str(tmp_path / name)],
                               capsys)
        assert code == 2 and "names non-edges" in err, (command, err)


# Per-edge delay keys that int() reads as the edge (1, 2) but that are not
# written "1->2"; each would alias that edge's own entry.
ALIASED_DELAYS = {"leading-zero": "01->2", "space": " 1->2", "plus": "+1->2",
                  "underscore": "1->0_2", "trailing-space": "1->2 "}


def with_aliased_delay(config: dict, key: str) -> dict:
    config = with_edge_delays(config)
    config["adversary"]["fixed_delays"][key] = 7.0
    return config


@pytest.mark.parametrize("key", ALIASED_DELAYS.values(), ids=ALIASED_DELAYS)
def test_cli_simulate_and_batch_reject_aliased_delay_keys(base_config, tmp_path,
                                                          capsys, key):
    (tmp_path / "sim.json").write_text(json.dumps(
        with_aliased_delay(base_config.to_dict(), key)))
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": "sim.json", "seeds": [21]}))
    for command, name in (("simulate", "sim.json"), ("batch", "batch.json")):
        code, _, err = run_cli([command, "--config", str(tmp_path / name)],
                               capsys)
        assert code == 2 and "is not written as '1->2'" in err, (command, err)


@pytest.mark.parametrize("key", ALIASED_DELAYS.values(), ids=ALIASED_DELAYS)
def test_cli_trace_header_rejects_aliased_delay_keys(stored_trace, key):
    directory, lines = stored_trace
    header = edit_config(lines[0], lambda config: with_aliased_delay(config, key))
    code, err = analyze_lines(directory, [header] + lines[1:])
    assert code == 4 and "is not written as '1->2'" in err, err


def test_validate_ceiling_on_run_cells(base_config):
    n, m = base_config.graph.n, base_config.model.m
    most = MAX_RUN_CELLS // (n * (n + m))
    dataclasses.replace(base_config, iterations=most)
    with pytest.raises(ConfigError, match="above the ceiling"):
        dataclasses.replace(base_config, iterations=most + 1)


def test_cli_refuses_iterations_above_ceiling(base_config, tmp_path, capsys,
                                              stored_trace, monkeypatch):
    # 10**12 iterations fit the address space but not memory; validate must
    # refuse them before a run allocates anything
    def refuse(config):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "run_execution", refuse)
    monkeypatch.setattr(harness, "run_execution", refuse)
    (tmp_path / "sim.json").write_text(json.dumps(
        dict(base_config.to_dict(), iterations=10 ** 12)))
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": "sim.json", "seeds": [21]}))
    for command, name in (("simulate", "sim.json"), ("batch", "batch.json")):
        code, _, err = run_cli([command, "--config", str(tmp_path / name)],
                               capsys)
        assert code == 2 and "above the ceiling" in err, (command, err)
    directory, lines = stored_trace
    header = edit_config(lines[0], lambda c: {**c, "iterations": 10 ** 12})
    code, err = analyze_lines(directory, [header] + lines[1:])
    assert code == 4 and "above the ceiling" in err, err


def test_float_fields_accept_integers():
    adversary = AdversarySchedule.from_dict(
        {"mode": "fixed", "dmax": 3, "fixed_delays": {"1->2": 0}})
    assert adversary.dmax == 3.0 and adversary.fixed_delays == {(1, 2): 0.0}
    assert AdversarySchedule.from_dict({"fixed_delays": 2}).fixed_delays == 2.0


def test_cli_simulate_accepts_integral_floats(base_config, tmp_path, capsys):
    outputs = []
    for config in (base_config.to_dict(),
                   dict(base_config.to_dict(), f=1.0, iterations=60.0, seed=0.0)):
        (tmp_path / "sim.json").write_text(json.dumps(config))
        code, out, err = run_cli(["simulate", "--config",
                                  str(tmp_path / "sim.json")], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cli_exit_code_invariant_violation(config_dir, tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    code, _, _ = run_cli(["simulate", "--config",
                          str(config_dir / "sim.json"),
                          "--out", str(trace_path)], capsys)
    assert code == 0
    lines = trace_path.read_text().splitlines()
    row = json.loads(lines[5])
    row["log_belief"] = [0.0 for _ in row["log_belief"]]
    lines[5] = json.dumps(row, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, _, _ = run_cli(["analyze", "--trace", str(bad)], capsys)
    assert code == 4


STEP_FIELDS = ("kind", "t", "agent", "alive", "completed", "quorum", "signal",
               "log_belief", "crash_phase")
WRONG_TYPES = {
    "kind": [3, None, ["step"]],
    "t": ["5", 5.0, True, None, [5]],
    "agent": ["1", 1.0, False, None],
    "alive": [False, "true", 1, None],
    "completed": ["true", 1, None, [True]],
    "quorum": ["1,2", 3, [1.5], ["1"], {"1": 2}, True],
    "signal": [5, ["a"], True, {"a": 1}],
    "log_belief": ["-0.7", None, 1.0, [["x"]], ["a", "b"], [True, False],
                   {"0": 1.0}],
    "crash_phase": [5, ["mid_update"], True],
}


@pytest.fixture(scope="module")
def stored_trace(base_config, tmp_path_factory):
    """(directory, lines) of a short stored crash trace."""
    directory = tmp_path_factory.mktemp("stored")
    trace = run_execution(dataclasses.replace(base_config, iterations=12))
    write_trace(trace, directory / "good.jsonl")
    return directory, (directory / "good.jsonl").read_text().splitlines()


def analyze_lines(directory, lines):
    """Exit code and stderr of `analyze` on a trace made of lines."""
    path = directory / "mutated.jsonl"
    path.write_text("\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--trace", str(path), "--checks", "prop2"])
    return code, err.getvalue()


def mutate_step(line, field, action, wrong=None):
    row = json.loads(line)
    if action == "delete":
        del row[field]
        return json.dumps(row, sort_keys=True)
    if action == "duplicate":
        text = json.dumps(row, sort_keys=True)
        return "{" + f"{json.dumps(field)}: {json.dumps(row[field])}, " + text[1:]
    row[field] = wrong
    return json.dumps(row, sort_keys=True)


def edit_config(line, edit):
    """The header line with its config replaced by edit(config)."""
    row = json.loads(line)
    row["config"] = edit(row["config"])
    return json.dumps(row, sort_keys=True)


def unknown_phase(config):
    event = dict(config["adversary"]["crash_plan"][0], phase="sideways")
    return {**config, "adversary": {**config["adversary"], "crash_plan": [event]}}


@pytest.mark.parametrize("index, mutate", [
    pytest.param(5, lambda line: mutate_step(line, "signal", "delete"),
                 id="signal-deleted"),
    pytest.param(5, lambda line: mutate_step(line, "log_belief", "retype",
                                             ["x", "y"]),
                 id="non-numeric-belief"),
    pytest.param(5, lambda line: mutate_step(line, "log_belief", "retype",
                                             [10 ** 400, 0.0]),
                 id="belief-beyond-float"),
    pytest.param(5, lambda line: line[:len(line) // 2], id="broken-json"),
    pytest.param(5, lambda line: mutate_step(line, "t", "retype", "two"),
                 id="string-t"),
    pytest.param(0, lambda line: edit_config(
        line, lambda c: {k: v for k, v in c.items() if k != "graph"}),
        id="header-graph-deleted"),
    pytest.param(0, lambda line: edit_config(
        line, lambda c: {**c, "iterations": "twelve"}),
        id="header-string-iterations"),
    pytest.param(0, lambda line: edit_config(
        line, lambda c: {**c, "graph": {**c["graph"], "n": "four"}}),
        id="header-string-n"),
    pytest.param(0, lambda line: edit_config(line, unknown_phase),
                 id="header-unknown-crash-phase"),
    pytest.param(0, lambda line: edit_config(line, lambda c: [1]),
                 id="header-config-not-object"),
    pytest.param(0, lambda line: edit_config(
        line, lambda c: {**c, "iterations": 1_000_000}),
        id="header-iterations-beyond-steps"),
])
def test_cli_malformed_trace_record_exits_4(stored_trace, index, mutate):
    directory, lines = stored_trace
    assert analyze_lines(directory, lines)[0] == 0
    code, err = analyze_lines(directory, lines[:index] + [mutate(lines[index])]
                              + lines[index + 1:])
    assert code == 4 and err.startswith("invariant:"), err


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
@pytest.mark.parametrize("path", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_cli_trace_header_rejects_non_integer_fields(stored_trace, path, value):
    directory, lines = stored_trace
    header = edit_config(lines[0], lambda config: with_field(config, path, value))
    code, err = analyze_lines(directory, [header] + lines[1:])
    assert code == 4 and err.startswith("invariant:"), err
    assert "must be an integer" in err


@pytest.mark.parametrize("value", NOT_FLOATS.values(), ids=NOT_FLOATS)
def test_cli_trace_header_rejects_non_float_dmax(stored_trace, value):
    directory, lines = stored_trace
    header = edit_config(lines[0], lambda config: with_field(
        config, FLOAT_FIELDS["dmax"], value))
    code, err = analyze_lines(directory, [header] + lines[1:])
    assert code == 4 and err.startswith("invariant:"), err
    assert "must be a number" in err


@pytest.mark.parametrize("key", NON_EDGE_DELAYS.values(), ids=NON_EDGE_DELAYS)
def test_cli_trace_header_rejects_non_edge_delays(stored_trace, key):
    directory, lines = stored_trace
    header = edit_config(lines[0], lambda config: with_extra_delay(config, key))
    code, err = analyze_lines(directory, [header] + lines[1:])
    assert code == 4 and "names non-edges" in err, err


def test_read_trace_rejects_iteration_claim_before_reading_steps(stored_trace):
    # a header may not claim more iterations than there are step records
    directory, lines = stored_trace
    path = directory / "claims.jsonl"
    header = edit_config(lines[0], lambda c: {**c, "iterations": 1_000_000})
    path.write_text("\n".join([header] + lines[1:]) + "\n")
    with pytest.raises(TraceInvariantError,
                       match=f"claims 1000000 iterations .* {len(lines) - 1} step"):
        read_trace(path)


def test_cli_trace_field_mutations_exit_4(stored_trace):
    directory, lines = stored_trace

    @settings(max_examples=150, deadline=None)
    @given(index=st.integers(1, len(lines) - 1),
           field=st.sampled_from(STEP_FIELDS),
           action=st.sampled_from(["delete", "duplicate", "retype"]),
           data=st.data())
    def check(index, field, action, data):
        wrong = data.draw(st.sampled_from(WRONG_TYPES[field]))
        mutated = list(lines)
        mutated[index] = mutate_step(lines[index], field, action, wrong)
        code, err = analyze_lines(directory, mutated)
        assert code == 4, err
        assert err.startswith("invariant:") and "Traceback" not in err

    check()


def test_cli_exit_code_gate_refusal(config_dir, capsys):
    sim = json.loads((config_dir / "sim.json").read_text())
    sim["model"] = "flat_model.json"
    (config_dir / "flat_sim.json").write_text(json.dumps(sim))
    (config_dir / "flat_batch.json").write_text(json.dumps(
        {"config": "flat_sim.json", "seeds": [1], "checks": []}))
    code, _, err = run_cli(["batch", "--config",
                            str(config_dir / "flat_batch.json")], capsys)
    assert code == 5 and "gate" in err
    code, _, _ = run_cli(["batch", "--config",
                          str(config_dir / "flat_batch.json"),
                          "--override-gate", "--quiet"], capsys)
    assert code == 0


def test_cli_batch_writes_reports(config_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(["batch", "--config",
                            str(config_dir / "batch.json"),
                            "--out-dir", str(out_dir), "--write-traces",
                            "--min-rate", "0.9", "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["num_converged"] == 2
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "seeds.csv").exists()
    assert (out_dir / "trace_21.jsonl").exists()


def test_cli_detect_and_identify(config_dir, capsys):
    code, out, _ = run_cli(["detect", "--graph",
                            str(config_dir / "graph.json"), "--f", "1"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 260 and payload["condition1_holds"]
    code, out, _ = run_cli(["identify", "--graph",
                            str(config_dir / "graph.json"),
                            "--model", str(config_dir / "model.json"),
                            "--f", "1"], capsys)
    assert code == 0 and json.loads(out)["assumption1_ok"]
    code, _, _ = run_cli(["detect", "--graph",
                          str(config_dir / "graph.json"), "--f", "9"], capsys)
    assert code == 2


def test_cli_simulate_csv_matches_write_trajectory_csv(config_dir, tmp_path,
                                                       capsys):
    code, _, _ = run_cli(["simulate", "--config", str(config_dir / "sim.json"),
                          "--csv", str(tmp_path / "cli.csv")], capsys)
    assert code == 0
    trace = run_execution(load_simulation_config(config_dir / "sim.json"))
    write_trajectory_csv(trace, tmp_path / "library.csv")
    assert ((tmp_path / "cli.csv").read_bytes()
            == (tmp_path / "library.csv").read_bytes())


def test_cli_analyze_out_file_equals_stdout(stored_trace, tmp_path, capsys):
    directory, _ = stored_trace
    report = tmp_path / "report.json"
    code, out, _ = run_cli(["analyze", "--trace", str(directory / "good.jsonl"),
                            "--checks", "prop2,psi", "--out", str(report)],
                           capsys)
    assert code == 0
    assert report.read_text(encoding="utf-8") == out


def test_cli_batch_exits_4_when_a_check_fails(config_dir, monkeypatch, capsys):
    # A stand-in run_checks fails psi on every seed, so the exit code does
    # not hang on which checks fail on the real traces.
    def failing_psi(trace, checks=None):
        return {name: {"passed": name != "psi", "worst_margin": 0.0,
                       "witness": None} for name in checks}

    monkeypatch.setattr(harness, "run_checks", failing_psi)
    code, out, _ = run_cli(["batch", "--config", str(config_dir / "batch.json"),
                            "--min-rate", "0.9", "--quiet"], capsys)
    assert code == 4
    assert json.loads(out)["all_checks_passed"] is False


def test_cli_batch_exits_3_below_min_rate(config_dir, tmp_path, capsys):
    sim = json.loads((config_dir / "sim.json").read_text())
    short = dict(sim, iterations=2, graph=str(config_dir / "graph.json"),
                 model=str(config_dir / "model.json"),
                 adversary={"mode": "adversarial_latest", "crash_plan": []})
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": short, "seeds": [21, 22], "convergence_threshold": 0.9}))
    argv = ["batch", "--config", str(tmp_path / "batch.json"), "--quiet"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["convergence_rate"] == 0.0
    code, _, _ = run_cli(argv + ["--min-rate", "0.5"], capsys)
    assert code == 3


@pytest.mark.parametrize("cap", ["0", "-5", "many"])
def test_cli_detect_refuses_a_cap_below_one_at_parse_time(config_dir, capsys, cap):
    with pytest.raises(SystemExit) as exit_:
        main(["detect", "--graph", str(config_dir / "graph.json"), "--f", "1",
              "--max-candidates", cap])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --max-candidates: must be an integer of at least 1, got '{cap}'" in err
    assert "exceed the cap" not in err


def test_cli_usage_errors_exit_2(config_dir, stored_trace, tmp_path, capsys):
    directory, _ = stored_trace
    code, _, err = run_cli(["analyze", "--trace", str(directory / "good.jsonl"),
                            "--checks", ","], capsys)
    assert code == 2 and "empty check list" in err, err
    code, _, err = run_cli(["batch", "--config", str(config_dir / "batch.json"),
                            "--write-traces"], capsys)
    assert code == 2 and "output directory" in err, err


def one_negative_edge_delay(config: dict) -> dict:
    delays = {f"{j}->{i}": -1.0 if (j, i) == (1, 2) else 0.0
              for j, i in config["graph"]["edges"]}
    return dict(config, adversary={"mode": "fixed", "fixed_delays": delays})


def with_crashes(config: dict, *events) -> dict:
    return dict(config, adversary=dict(config["adversary"],
                                       crash_plan=list(events)))


# Simulation configs that validate refuses, as (edit of the base config,
# part of the message).
SIMULATE_REFUSALS = {
    "negative-seed": (lambda c: dict(c, seed=-1), "seed"),
    "negative-edge-delay": (one_negative_edge_delay, "fixed_delays"),
    "negative-scalar-delay": (lambda c: dict(c, adversary={
        "mode": "fixed", "fixed_delays": -0.5}), "fixed delay"),
    "repeated-crash-agent": (lambda c: with_crashes(
        dict(c, f=2), {"agent": 4, "iteration": 10, "phase": "after_update"},
        {"agent": 4, "iteration": 12, "phase": "before_transmit"}), "distinct"),
    "partial-count-off-mid-update": (lambda c: with_crashes(
        c, {"agent": 4, "iteration": 10, "phase": "after_update",
            "partial_count": 1}), "partial_count"),
}


@pytest.mark.parametrize("edit, message", SIMULATE_REFUSALS.values(),
                         ids=SIMULATE_REFUSALS)
def test_cli_simulate_refuses_invalid_configs(base_config, tmp_path, capsys,
                                              edit, message):
    (tmp_path / "sim.json").write_text(json.dumps(edit(base_config.to_dict())))
    code, _, err = run_cli(["simulate", "--config", str(tmp_path / "sim.json")],
                           capsys)
    assert code == 2 and err.startswith("config:") and message in err, err


@pytest.mark.parametrize("field, message",
                         [("hypotheses", "need at least one hypothesis"),
                          ("agents", "need at least one agent")],
                         ids=["hypotheses", "agents"])
def test_cli_identify_refuses_an_empty_model(config_dir, base_config, tmp_path,
                                             capsys, field, message):
    (tmp_path / "model.json").write_text(json.dumps(
        dict(base_config.model.to_dict(), **{field: []})))
    code, _, err = run_cli(["identify", "--graph", str(config_dir / "graph.json"),
                            "--model", str(tmp_path / "model.json"), "--f", "1"],
                           capsys)
    assert code == 2 and err.startswith("config:") and message in err, err


def test_cli_analyze_exits_4_on_an_empty_or_misshapen_trace(stored_trace,
                                                            tmp_path, capsys):
    _, lines = stored_trace
    (tmp_path / "empty.jsonl").write_text("")
    header = json.loads(lines[0])
    header["initial_log_belief"] = header["initial_log_belief"][:-1]
    (tmp_path / "shape.jsonl").write_text(
        "\n".join([json.dumps(header)] + lines[1:]) + "\n")
    for name, message in (("empty.jsonl", "empty trace"),
                          ("shape.jsonl", "initial beliefs")):
        code, _, err = run_cli(["analyze", "--trace", str(tmp_path / name)],
                               capsys)
        assert code == 4 and message in err, err


# -- check names ------------------------------------------------------------------------

@pytest.mark.parametrize("checks", [["nope"], ["psi", "psi"], ["prop2", 5]],
                         ids=["unknown", "repeated", "not-a-string"])
def test_batch_refuses_bad_check_names_on_load(config_dir, checks):
    batch = {"config": str(config_dir / "sim.json"), "seeds": [21],
             "checks": checks}
    with pytest.raises(ConfigError, match="checks"):
        load_batch(batch)


def test_repeated_check_names_are_refused_everywhere(config_dir, stored_trace,
                                                     tmp_path, capsys):
    (tmp_path / "batch.json").write_text(json.dumps(
        {"config": str(config_dir / "sim.json"), "seeds": [21],
         "checks": ["psi", "psi"]}))
    code, _, err = run_cli(["batch", "--config", str(tmp_path / "batch.json"),
                            "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2 and "more than once" in err, err
    assert not (tmp_path / "out").exists()
    directory, _ = stored_trace
    code, _, err = run_cli(["analyze", "--trace", str(directory / "good.jsonl"),
                            "--checks", "psi,prop2,psi"], capsys)
    assert code == 2 and "more than once" in err, err
    with pytest.raises(ConfigError, match="more than once"):
        analyze_trace(directory / "good.jsonl", ["psi", "psi"])


# -- malformed inputs ------------------------------------------------------------------
#
# Each input file of each command, and a mutation that deletes one entry or
# replaces it with a value of another type or out of range.

MUTANT_VALUES = [5, -1, 1.5, "x", [], {}, None, True, [[1]], 10 ** 400]


def json_paths(value, prefix=()):
    """Every path into a JSON value, the root () included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from json_paths(item, prefix + (index,))


def without_field(config, path: tuple):
    """A deep copy of a JSON value with the entry at path removed."""
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return config


def mutated(payload, path: tuple, value, delete: bool):
    if not path:
        return value
    if delete:
        return without_field(payload, path)
    return with_field(payload, path, value)


@pytest.fixture(scope="module")
def fuzz_inputs(base_config, tmp_path_factory):
    """(directory, {file name: payload}) of one small valid input per file
    that a command reads; the simulation config covers every adversary
    field, a per-edge delay table and the crash plan."""
    directory = tmp_path_factory.mktemp("fuzz")
    config = dataclasses.replace(base_config, iterations=12).to_dict()
    config["adversary"] = dict(with_edge_delays(config)["adversary"],
                               dmax=2.0,
                               crash_plan=config["adversary"]["crash_plan"])
    payloads = {"sim.json": config,
                "batch.json": {"config": config, "seeds": [21],
                               "convergence_threshold": 0.9,
                               "checks": ["prop2"]},
                "graph.json": config["graph"], "model.json": config["model"]}
    for name, payload in payloads.items():
        (directory / name).write_text(json.dumps(payload))
    return directory, payloads


# The commands that read each input file, as argv builders from the file's
# path and the directory of the valid inputs.
COMMANDS = {
    "sim.json": [lambda path, d: ["simulate", "--config", path]],
    "batch.json": [lambda path, d: ["batch", "--config", path]],
    "graph.json": [lambda path, d: ["detect", "--graph", path, "--f", "1"],
                   lambda path, d: ["identify", "--graph", path, "--model",
                                    d / "model.json", "--f", "1"]],
    "model.json": [lambda path, d: ["identify", "--graph", d / "graph.json",
                                    "--model", path, "--f", "1"]],
    "trace.jsonl": [lambda path, d: ["analyze", "--trace", path,
                                     "--checks", "prop2"]],
}


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def with_header(lines, header_config) -> str:
    """A stored trace with its header config replaced."""
    header = edit_config(lines[0], lambda _: header_config)
    return "\n".join([header] + lines[1:]) + "\n"


DEEP = "[" * 100_000 + "]" * 100_000

# Inputs that each ended in a traceback, as (file, its content made from the
# valid input: a payload, or the lines of a stored trace, exit code).
FORMER_TRACEBACKS = {
    "batch-seeds-5": ("batch.json", lambda b: json.dumps(dict(b, seeds=5)), 2),
    "batch-checks-5": ("batch.json", lambda b: json.dumps(dict(b, checks=5)), 2),
    "batch-file-holds-list": ("batch.json", lambda b: json.dumps([b]), 2),
    "simulate-edge-nested-list": ("sim.json", lambda c: json.dumps(
        with_field(c, ("graph", "edges"), [[1]])), 2),
    "simulate-crash-plan-5": ("sim.json", lambda c: json.dumps(
        with_field(c, ("adversary", "crash_plan"), [5])), 2),
    "simulate-adversary-5": ("sim.json", lambda c: json.dumps(
        dict(c, adversary=5)), 2),
    "simulate-deep-json": ("sim.json", lambda c: DEEP, 2),
    "detect-edges-5": ("graph.json", lambda g: json.dumps({"n": 4, "edges": 5}), 2),
    "detect-graph-holds-list": ("graph.json", lambda g: json.dumps([1]), 2),
    "detect-n-beyond-memory": ("graph.json", lambda g: json.dumps(
        dict(g, n=10 ** 400)), 2),
    "identify-agents-5": ("model.json", lambda m: json.dumps(dict(m, agents=5)), 2),
    "header-edge-1": ("trace.jsonl", lambda lines: with_header(
        lines, with_field(json.loads(lines[0])["config"],
                          ("graph", "edges", 0), [1])), 4),
    "header-deep-json": ("trace.jsonl", lambda lines: "\n".join(
        [DEEP] + lines[1:]), 4),
    "trace-not-utf8": ("trace.jsonl", lambda lines: b"\xff" + "\n".join(
        lines).encode(), 4),
}


@pytest.mark.parametrize("name, content, expected", FORMER_TRACEBACKS.values(),
                         ids=FORMER_TRACEBACKS)
def test_cli_malformed_input_exits_cleanly(fuzz_inputs, stored_trace, tmp_path,
                                          name, content, expected):
    directory, payloads = fuzz_inputs
    data = content(stored_trace[1] if name == "trace.jsonl" else payloads[name])
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    code, err = run_quietly(COMMANDS[name][0](path, directory))
    assert code == expected, err
    assert err.startswith("config:" if expected == 2 else "invariant:"), err


def test_cli_simulate_rejects_iterations_beyond_address_space(base_config,
                                                              tmp_path, capsys):
    (tmp_path / "sim.json").write_text(json.dumps(
        dict(base_config.to_dict(), iterations=2 ** 62)))
    code, _, err = run_cli(["simulate", "--config", str(tmp_path / "sim.json")],
                           capsys)
    assert code == 2 and "address space" in err, err


def test_cli_mutated_inputs_exit_with_documented_codes(fuzz_inputs, stored_trace,
                                                       tmp_path_factory):
    """Every command on an input file with one entry deleted or replaced
    exits with a documented code and no traceback; analyze, whose input is
    a trace with a mutated header config, never reports a config error."""
    directory, payloads = fuzz_inputs
    lines = stored_trace[1]
    targets = dict(payloads, **{"trace.jsonl": json.loads(lines[0])["config"]})
    work = tmp_path_factory.mktemp("mutants")

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(targets)), data=st.data())
    def check(name, data):
        payload = targets[name]
        path = data.draw(st.sampled_from(list(json_paths(payload))))
        delete = bool(path) and data.draw(st.booleans())
        value = data.draw(st.sampled_from(MUTANT_VALUES))
        command = data.draw(st.sampled_from(COMMANDS[name]))
        content = mutated(payload, path, value, delete)
        (work / name).write_text(with_header(lines, content)
                                 if name == "trace.jsonl" else json.dumps(content))
        code, err = run_quietly(command(work / name, directory))
        assert code in (0, 2, 3, 4, 5), err
        assert name != "trace.jsonl" or code != 2, err

    check()
