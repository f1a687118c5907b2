from __future__ import annotations

import numpy as np
import pytest

import helpers
from genboot.automata import Dfg, accepts, dfg_to_dfa
from genboot.core import INPUT_MARKER, OUTPUT_MARKER, EventLog, Trace
from genboot.discovery_sim import (
    DiscoveryConfig,
    WalkConfig,
    discover_dfg,
    simulate_log,
)
from genboot.errors import EmptyLog, RetryExhausted, Unreachable


def t(text: str) -> Trace:
    return Trace(tuple(text))


def reaches_output(arcs) -> bool:
    """Whether a breadth-first search over ``arcs`` from the input marker
    reaches the output marker."""
    seen, frontier = {INPUT_MARKER}, [INPUT_MARKER]
    while frontier:
        frontier = [dst for src, dst in arcs if src in frontier and dst not in seen]
        seen.update(frontier)
    return OUTPUT_MARKER in seen


class TestDiscoveryConfig:
    def test_bounds(self):
        DiscoveryConfig(0.0)
        DiscoveryConfig(0.999)
        with pytest.raises(ValueError):
            DiscoveryConfig(-0.1)
        with pytest.raises(ValueError):
            DiscoveryConfig(1.0)


class TestDiscoverDfg:
    def test_single_trace(self):
        log = EventLog.from_counts({t("ab"): 3})
        graph = discover_dfg(log)
        assert graph.actions == {"a", "b"}
        assert graph.arcs == {("i", "a"), ("a", "b"), ("b", "o")}
        assert graph.arc_freq[("a", "b")] == 3
        assert graph.action_freq["i"] == 3
        assert graph.action_freq["o"] == 3

    def test_unfiltered_observed_log(self, observed_log):
        graph = discover_dfg(observed_log)
        assert graph.action_freq["i"] == 66
        assert ("b", "b") in graph.arcs  # the rare traces are still present
        assert ("d", "d") in graph.arcs

    def test_filtered_observed_log_matches_bundled_model(
        self, observed_log, model_dfg
    ):
        graph = discover_dfg(observed_log, DiscoveryConfig(filter_fraction=1 / 3))
        assert graph.actions == model_dfg.actions
        assert graph.arcs == model_dfg.arcs
        assert graph.action_freq == model_dfg.action_freq
        assert graph.arc_freq == model_dfg.arc_freq

    def test_filter_count_uses_floor(self):
        log = EventLog.from_counts({t("a"): 1, t("b"): 2, t("c"): 3})
        graph = discover_dfg(log, DiscoveryConfig(filter_fraction=0.5))
        # floor(0.5 * 3) = 1 removed: the least frequent trace
        assert graph.actions == {"b", "c"}

    def test_third_of_three(self):
        log = EventLog.from_counts({t("a"): 1, t("b"): 2, t("c"): 3})
        graph = discover_dfg(log, DiscoveryConfig(filter_fraction=1 / 3))
        assert graph.actions == {"b", "c"}

    def test_ties_remove_lexicographically_larger_first(self):
        log = EventLog.from_counts({t("a"): 1, t("b"): 1, t("c"): 1})
        graph = discover_dfg(log, DiscoveryConfig(filter_fraction=1 / 3))
        assert graph.actions == {"a", "b"}

    def test_tie_breaking_is_by_frequency_first(self):
        log = EventLog.from_counts({t("b"): 1, t("c"): 1, t("a"): 2})
        graph = discover_dfg(log, DiscoveryConfig(filter_fraction=1 / 3))
        assert graph.actions == {"a", "b"}

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            discover_dfg(EventLog(()))

    def test_empty_trace_cannot_be_represented(self):
        with pytest.raises(ValueError):
            discover_dfg(EventLog.from_counts({t(""): 2}))

    def test_rediscovery_from_simulation(self):
        # discovering from a log simulated off a graph can only produce
        # arcs of that graph
        rng = np.random.default_rng(21)
        for _ in range(10):
            graph = helpers.random_dfg(rng, max_actions=8)
            log = simulate_log(graph, WalkConfig(trace_count=60, max_length=40), rng)
            rediscovered = discover_dfg(log)
            assert rediscovered.arcs <= graph.arcs


class TestWalkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(trace_count=0)
        with pytest.raises(ValueError):
            WalkConfig(trace_count=1, max_length=0)
        with pytest.raises(ValueError):
            WalkConfig(trace_count=1, weighting="biased")


class TestSimulateLog:
    def test_linear_graph_walks_are_fixed(self):
        graph = discover_dfg(EventLog.from_counts({t("ab"): 1}))
        log = simulate_log(graph, WalkConfig(trace_count=12), np.random.default_rng(1))
        assert log == EventLog.from_counts({t("ab"): 12})

    def test_walks_fit_their_graph(self, model_dfg):
        dfa = dfg_to_dfa(model_dfg)
        log = simulate_log(model_dfg, WalkConfig(trace_count=200), np.random.default_rng(2))
        assert log.size == 200
        for trace in log.support:
            assert accepts(dfa, trace)

    def test_deterministic_given_seed(self, system_dfg):
        a = simulate_log(system_dfg, WalkConfig(trace_count=50), np.random.default_rng(3))
        b = simulate_log(system_dfg, WalkConfig(trace_count=50), np.random.default_rng(3))
        assert a == b

    def test_uniform_branching(self):
        graph = discover_dfg(EventLog.from_counts({t("ab"): 1, t("ac"): 1}))
        log = simulate_log(graph, WalkConfig(trace_count=4000), np.random.default_rng(4))
        share = log.multiplicity(t("ab")) / 4000
        assert 0.46 <= share <= 0.54

    def test_frequency_weighted_branching(self):
        graph = discover_dfg(EventLog.from_counts({t("ab"): 9, t("ac"): 1}))
        cfg = WalkConfig(trace_count=4000, weighting="frequency")
        log = simulate_log(graph, cfg, np.random.default_rng(5))
        share = log.multiplicity(t("ab")) / 4000
        assert 0.87 <= share <= 0.93

    def test_zero_weights_cannot_be_walked(self):
        graph = Dfg.from_arcs([("i", "a"), ("a", "o")])  # all frequencies zero
        cfg = WalkConfig(trace_count=5, weighting="frequency")
        with pytest.raises(ValueError):
            simulate_log(graph, cfg, np.random.default_rng(6))

    def test_unreachable_output(self):
        graph = Dfg.from_arcs([("i", "a"), ("a", "a")])
        with pytest.raises(Unreachable):
            simulate_log(graph, WalkConfig(trace_count=1), np.random.default_rng(7))

    def test_unreachable_exactly_when_no_path_reaches_the_output(self):
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(40):
            graph = helpers.random_dfg(rng, max_actions=8)
            arcs = sorted(graph.arcs)
            variants = [
                arcs,
                [(src, dst) for src, dst in arcs if dst != OUTPUT_MARKER],
                [arc for arc in arcs if rng.random() < 0.7],
            ]
            for kept in variants:
                expected = not reaches_output(kept)
                try:
                    simulate_log(Dfg.from_arcs(kept), WalkConfig(trace_count=3, max_length=20), rng)
                    raised = False
                except Unreachable:
                    raised = True
                except RetryExhausted:
                    raised = False
                assert raised == expected, kept
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_max_length_discards_and_redraws(self):
        graph = Dfg.from_arcs([("i", "a"), ("a", "a"), ("a", "o")])
        cfg = WalkConfig(trace_count=100, max_length=1)
        log = simulate_log(graph, cfg, np.random.default_rng(8))
        assert log == EventLog.from_counts({t("a"): 100})

    def test_retry_exhaustion(self):
        graph = Dfg.from_arcs([("i", "a"), ("a", "b"), ("b", "o")])
        cfg = WalkConfig(trace_count=1, max_length=1)
        with pytest.raises(RetryExhausted):
            simulate_log(graph, cfg, np.random.default_rng(9))  # every walk has two actions
