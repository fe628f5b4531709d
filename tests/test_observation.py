"""Likelihood models, divergences, identifiability gates, signal sampling."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crashlearn.graphs import DirectedGraph, detectability_report
from crashlearn.harness import load_model
from crashlearn.observation import (IdentifiabilityPreconditionError,
                                    LikelihoodModel, bernoulli_agent,
                                    check_assumption1,
                                    check_failure_free_identifiability,
                                    compute_log_ratio_bound,
                                    expected_log_ratios, kl_divergence,
                                    signal_indices_from_uniforms)

from oracles import kl

LN3 = math.log(3.0)


def model_of(rows, hypotheses=("theta1", "theta2")):
    spaces, tables = zip(*rows)
    return LikelihoodModel(hypotheses, spaces, tables)


# -- construction and serialization --------------------------------------------------

def test_rejects_malformed_tables():
    with pytest.raises(ValueError):
        model_of([(("a", "b"), np.array([[0.3, 0.7]]))])   # one row, two hyps
    with pytest.raises(ValueError):
        model_of([(("a", "a"), np.array([[0.3, 0.7], [0.7, 0.3]]))])
    with pytest.raises(ValueError):
        model_of([(("a", "b"), np.array([[0.3, 0.6], [0.7, 0.3]]))])  # row sum
    with pytest.raises(ValueError):
        model_of([(("a", "b"), np.array([[0.0, 1.0], [0.7, 0.3]]))])  # zero
    with pytest.raises(ValueError):
        LikelihoodModel(("t", "t"), [("a", "b")],
                        [np.array([[0.3, 0.7], [0.7, 0.3]])])


def test_accessors():
    m = model_of([bernoulli_agent(0.25, 0.75), bernoulli_agent(0.5, 0.5)])
    assert m.n == 2 and m.m == 2
    assert list(m.agents()) == [1, 2]
    assert m.hypothesis_index("theta2") == 1
    assert m.signals(1) == ("a", "b")
    assert m.signal_index(2, "b") == 1
    np.testing.assert_allclose(m.table(1), [[0.25, 0.75], [0.75, 0.25]])
    np.testing.assert_allclose(m.log_table(1), np.log(m.table(1)))
    np.testing.assert_allclose(m.log_likelihoods(1, "a"),
                               [math.log(0.25), math.log(0.75)])
    with pytest.raises(ValueError):
        m.hypothesis_index("nope")
    with pytest.raises(ValueError):
        m.signal_index(1, "zzz")


def test_tables_are_read_only():
    m = model_of([bernoulli_agent(0.25, 0.75)])
    with pytest.raises(ValueError):
        m.table(1)[0, 0] = 0.9
    with pytest.raises(ValueError):
        m.log_table(1)[0, 0] = 0.0


def test_json_round_trip(tmp_path):
    m = model_of([bernoulli_agent(0.25, 0.75), bernoulli_agent(0.5, 0.5)])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(m.to_dict()))
    again = load_model(path)
    assert again.hypotheses == m.hypotheses
    for i in m.agents():
        assert again.signals(i) == m.signals(i)
        np.testing.assert_array_equal(again.table(i), m.table(i))
    # from_dict renormalizes tiny row-sum slack but rejects gross error
    payload = m.to_dict()
    payload["agents"][0]["likelihood"]["theta1"][0] += 1e-10
    fixed = LikelihoodModel.from_dict(payload)
    np.testing.assert_allclose(fixed.table(1).sum(axis=1), 1.0,
                               rtol=0, atol=1e-15)
    payload["agents"][0]["likelihood"]["theta1"][0] += 1e-3
    with pytest.raises(ValueError):
        LikelihoodModel.from_dict(payload)


# Agent 1 of a two-agent model file, edited; the message from_dict must give.
# The constructor's checks report before the file's row-sum tolerance.
FILE_AGENTS = {
    "no-signals": ({"signals": [],
                    "likelihood": {"theta1": [], "theta2": []}},
                   "agent 1: signal labels empty or duplicated"),
    "duplicate-signals-off-rows": ({"signals": ["a", "a"],
                                    "likelihood": {"theta1": [0.3, 0.8],
                                                   "theta2": [0.7, 0.3]}},
                                   "agent 1: signal labels empty or duplicated"),
    "zero-entry": ({"signals": ["a", "b"],
                    "likelihood": {"theta1": [0.0, 1.0], "theta2": [0.7, 0.3]}},
                   "agent 1: entries must be finite and > 0"),
    "zero-row-sum": ({"signals": ["a", "b"],
                      "likelihood": {"theta1": [-0.5, 0.5],
                                     "theta2": [0.7, 0.3]}},
                     "agent 1: entries must be finite and > 0"),
    "off-row-sum": ({"signals": ["a", "b"],
                     "likelihood": {"theta1": [0.3, 0.8], "theta2": [0.7, 0.3]}},
                    "agent 1: row sums off by 1.000e-01"),
}


def test_models_compare_by_value():
    # Equal hypotheses, signal spaces and tables make equal models with one
    # hash, so a config holding a model compares and hashes by value too.
    agents = [bernoulli_agent(0.25, 0.75), bernoulli_agent(0.5, 0.5)]
    m = model_of(agents)
    again = LikelihoodModel.from_dict(m.to_dict())
    assert again is not m and again == m and hash(again) == hash(m)
    assert model_of(agents, ("a", "b")) != m
    assert model_of([agents[0], bernoulli_agent(0.5, 0.5, ("x", "y"))]) != m
    assert model_of([agents[0], bernoulli_agent(0.4, 0.5)]) != m
    assert m != m.to_dict()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(2, 4), st.data())
def test_model_round_trip_is_exact(n, m, k, data):
    # rows normalized as x / x.sum() often sum to 1.0 only within rounding,
    # and dividing them again moves their last bits
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n * m * k,
                                      max_size=n * m * k))).reshape(n, m, k)
    model = LikelihoodModel([f"theta{h}" for h in range(m)],
                            [[f"s{j}" for j in range(k)]] * n,
                            list(raw / raw.sum(axis=2, keepdims=True)))
    assert LikelihoodModel.from_dict(model.to_dict()) == model


@pytest.mark.parametrize("agent, message", FILE_AGENTS.values(),
                         ids=FILE_AGENTS)
def test_from_dict_reports_the_constructors_checks_first(agent, message):
    payload = model_of([bernoulli_agent(0.3, 0.7)] * 2).to_dict()
    payload["agents"][0] = agent
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no divide-by-zero warning
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            LikelihoodModel.from_dict(payload)


# -- divergences ---------------------------------------------------------------------

def test_frozen_kl_values():
    m = model_of([bernoulli_agent(0.5, 0.5), bernoulli_agent(0.25, 0.75)],
                 hypotheses=("h1", "h2"))
    # agent 2: KL((.25,.75) || (.75,.25)) = .5 ln 3
    assert kl_divergence(m, 2, "h1", "h2") == pytest.approx(0.5 * LN3, abs=1e-15)
    # uniform row vs itself
    assert kl_divergence(m, 1, "h1", "h2") == 0.0
    # cross-check the (.5,.5) vs (.25,.75) value ln2 - ln3/2
    m2 = model_of([(("a", "b"), np.array([[0.5, 0.5], [0.25, 0.75]]))])
    expected = math.log(2.0) - 0.5 * LN3
    assert kl_divergence(m2, 1, "theta1", "theta2") == pytest.approx(
        expected, abs=1e-15)
    assert expected == pytest.approx(0.14384103622589045, abs=1e-15)


def test_kl_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        m = model_of([(("a", "b", "c"), np.array([p, q]))])
        assert kl_divergence(m, 1, "theta1", "theta2") == pytest.approx(
            kl(p, q), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.05, 10.0), min_size=2, max_size=4),
       st.lists(st.floats(0.05, 10.0), min_size=2, max_size=4))
def test_kl_nonnegative_property(wa, wb):
    k = min(len(wa), len(wb))
    p = np.array(wa[:k]) / sum(wa[:k])
    q = np.array(wb[:k]) / sum(wb[:k])
    labels = tuple(f"s{j}" for j in range(k))
    m = model_of([(labels, np.vstack([p, q]))])
    d = kl_divergence(m, 1, "theta1", "theta2")
    assert d >= -1e-12
    if np.allclose(p, q, rtol=0, atol=0):
        assert d == pytest.approx(0.0, abs=1e-12)


def test_expected_log_ratios_are_negated_divergences():
    m = model_of([bernoulli_agent(0.3, 0.7), bernoulli_agent(0.25, 0.75)])
    vec = expected_log_ratios(m, "theta2", "theta1")
    for i in m.agents():
        assert vec[i - 1] == pytest.approx(
            -kl_divergence(m, i, "theta1", "theta2"), abs=1e-15)
    assert np.all(vec <= 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(2, 11), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_kl_table_matches_the_row_formula_bitwise(m, sizes, seed):
    rng = np.random.default_rng(seed)
    tables = [rng.dirichlet(np.ones(k), size=m) + 1e-9 for k in sizes]
    tables = [t / t.sum(axis=1, keepdims=True) for t in tables]
    model = LikelihoodModel([f"h{a}" for a in range(m)],
                            [[f"s{j}" for j in range(k)] for k in sizes], tables)
    assert model.kl_table.shape == (len(sizes), m, m)
    for i in model.agents():
        tab = model.table(i)
        for a in range(m):
            for b in range(m):
                p, q = tab[a], tab[b]
                assert model.kl_table[i - 1, a, b] == float(
                    np.sum(p * (np.log(p) - np.log(q))))
    assert len(model.ordered_pairs) == m * (m - 1)
    with pytest.raises(ValueError):
        model.kl_table[0, 0, 0] = 1.0


def test_log_ratio_bound():
    m = model_of([bernoulli_agent(0.25, 0.75), bernoulli_agent(0.5, 0.5)])
    # extreme single-signal ratio log(.75/.25) = ln 3
    assert compute_log_ratio_bound(m) == pytest.approx(LN3, abs=1e-15)
    solo = LikelihoodModel(("only",), [("a", "b")], [np.array([[0.4, 0.6]])])
    assert compute_log_ratio_bound(solo) == 0.0


# -- identifiability -------------------------------------------------------------------

def test_failure_free_identifiability():
    good = model_of([bernoulli_agent(0.5, 0.5), bernoulli_agent(0.25, 0.75)])
    ok, witness = check_failure_free_identifiability(good)
    assert ok and witness is None
    flat = model_of([bernoulli_agent(0.5, 0.5), bernoulli_agent(0.5, 0.5)])
    ok, witness = check_failure_free_identifiability(flat)
    assert not ok
    assert set(witness) == {"theta1", "theta2"}


def test_assumption_holds_on_complete_graph():
    g = DirectedGraph.complete(3)
    m = model_of([bernoulli_agent(0.3, 0.7) for _ in range(3)])
    rep = check_assumption1(m, g, 1)
    assert rep.failure_free_ok and rep.assumption1_ok
    # the witness names the minimizing pair and source even on success
    _, _, tightest = rep.worst_pair_and_source
    assert len(tightest) == 2
    # two-agent worst source, each contributing KL((.3,.7)||(.7,.3))
    per_agent = kl_divergence(m, 1, "theta1", "theta2")
    assert rep.C1 == pytest.approx(2 * per_agent, rel=1e-12)
    assert rep.C0 == pytest.approx(math.log(0.7 / 0.3), abs=1e-15)


def test_assumption_fails_when_informative_agent_is_cuttable():
    g = DirectedGraph.complete(3)
    m = model_of([bernoulli_agent(0.3, 0.7), bernoulli_agent(0.5, 0.5),
                  bernoulli_agent(0.5, 0.5)])
    rep = check_assumption1(m, g, 1)
    assert rep.failure_free_ok           # agent 1 separates globally
    assert not rep.assumption1_ok        # but a crash of agent 1 blinds the rest
    a, b, source = rep.worst_pair_and_source
    assert {a, b} == {"theta1", "theta2"}
    assert source == frozenset({2, 3})
    assert rep.C1 == 0.0


def test_graph_built_from_an_edge_list_is_hashable():
    # The census behind check_assumption1 is cached on the graph, so a graph
    # given its edges as a list must hash like the one from_edge_list builds.
    edges = [(j, i) for i in range(1, 7) for j in range(1, 7) if i != j]
    listed, built = DirectedGraph(6, edges), DirectedGraph.complete(6)
    m = model_of([bernoulli_agent(0.3, 0.7) for _ in range(6)])
    assert check_assumption1(m, listed, 1) == check_assumption1(m, built, 1)
    assert detectability_report(listed, 1) == detectability_report(built, 1)
    assert listed == built and hash(listed) == hash(built)


def test_assumption_precondition_requires_detectability():
    g = DirectedGraph.cycle(3)      # fails the structural condition at f=1
    m = model_of([bernoulli_agent(0.3, 0.7) for _ in range(3)])
    with pytest.raises(IdentifiabilityPreconditionError):
        check_assumption1(m, g, 1)


def test_single_hypothesis_is_vacuous():
    g = DirectedGraph.complete(3)
    solo = LikelihoodModel(("only",), [("a", "b")] * 3,
                           [np.array([[0.4, 0.6]])] * 3)
    rep = check_assumption1(solo, g, 1)
    assert rep.assumption1_ok
    assert rep.C0 == 0.0
    assert rep.C1 == math.inf


def test_model_graph_size_mismatch_rejected():
    g = DirectedGraph.complete(3)
    m = model_of([bernoulli_agent(0.3, 0.7)])
    with pytest.raises(ValueError):
        check_assumption1(m, g, 1)


# -- sampling ---------------------------------------------------------------------------

def test_inverse_cdf_hand_values():
    m = model_of([bernoulli_agent(0.3, 0.7)])

    def signal(theta, u):
        return m.signals(1)[int(signal_indices_from_uniforms(m, 1, theta, u))]

    assert signal("theta1", 0.0) == "a"
    assert signal("theta1", 0.2999) == "a"
    assert signal("theta1", 0.3) == "b"
    assert signal("theta1", 0.9999) == "b"
    assert signal("theta2", 0.69) == "a"
    assert signal("theta2", 0.71) == "b"
    # u == 1.0 cannot fall off the table
    assert signal("theta1", 1.0) == "b"
    # one call over an array maps every variate the same way
    u = np.array([0.0, 0.2999, 0.3, 0.9999, 1.0])
    assert signal_indices_from_uniforms(m, 1, "theta1", u).tolist() == [0, 0, 1, 1, 1]


def test_sampling_determinism_and_frequencies():
    m = model_of([bernoulli_agent(0.3, 0.7)])
    draws1 = signal_indices_from_uniforms(
        m, 1, "theta1", np.random.default_rng(5).random(20))
    draws2 = signal_indices_from_uniforms(
        m, 1, "theta1", np.random.default_rng(5).random(20))
    assert draws1.tolist() == draws2.tolist()
    draws = signal_indices_from_uniforms(
        m, 1, "theta1", np.random.default_rng(123).random(20000))
    hits = int(np.count_nonzero(draws == 0))      # signal "a"
    assert abs(hits / 20000 - 0.3) < 0.02     # ~6 sigma at this sample size
