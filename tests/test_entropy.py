from __future__ import annotations

import math

import pytest

from genboot.automata import (
    Dfa,
    intersect,
    log_to_dfa,
    prefix_tree_acceptor,
    trim,
)
from genboot.core import EventLog, Trace
from genboot.entropy import (
    _short_circuit,
    growth_oracle,
    model_system_measures,
    model_system_precision,
    model_system_recall,
    topological_entropy,
)
from genboot.errors import EmptyLanguage

# spectral radius of the example model's short-circuited automaton,
# computed independently by long-horizon walk counting
MODEL_RADIUS = 1.5731733671028092


def t(text: str) -> Trace:
    return Trace(tuple(text))


def complete_two_node_dfa() -> Dfa:
    """Short-circuiting this automaton yields the complete digraph on two
    nodes (all four edges), whose growth rate is exactly 2."""
    return Dfa(
        states=frozenset({0, 1}),
        alphabet=frozenset({"x", "y"}),
        transitions={(0, "x"): 0, (0, "y"): 1, (1, "x"): 1},
        start=0,
        accepting=frozenset({1}),
    )


class TestShortCircuit:
    def test_single_trace_cycle(self):
        a = _short_circuit(trim(prefix_tree_acceptor([t("x")])))
        assert a.shape == (2, 2)
        assert a.sum() == 2

    def test_empty_trace_self_loop(self):
        a = _short_circuit(trim(prefix_tree_acceptor([t("")])))
        assert a.toarray().tolist() == [[1.0]]

    def test_model_matrix(self, model_dfa):
        a = _short_circuit(trim(model_dfa))
        assert a.shape == (7, 7)
        assert a.sum() == 10  # nine transitions plus one return edge

    def test_parallel_transitions_accumulate(self):
        a = Dfa(
            states=frozenset({0, 1}),
            alphabet=frozenset({"x", "y"}),
            transitions={(0, "x"): 1, (0, "y"): 1},
            start=0,
            accepting=frozenset({1}),
        )
        assert _short_circuit(trim(a))[0, 1] == 2


class TestTopologicalEntropy:
    def test_single_trace_language_has_zero_entropy(self):
        dfa = log_to_dfa(EventLog.from_counts({t("x"): 3}))
        value = topological_entropy(dfa)
        assert abs(value.value) < 1e-9
        assert value.iterations >= 1

    def test_empty_trace_language_has_zero_entropy(self):
        dfa = log_to_dfa(EventLog.from_counts({t(""): 1}))
        assert abs(topological_entropy(dfa).value) < 1e-9

    def test_complete_two_node_graph(self):
        assert abs(topological_entropy(complete_two_node_dfa()).value - math.log(2)) < 1e-9

    def test_model_radius(self, model_dfa):
        assert abs(topological_entropy(model_dfa).value - math.log(MODEL_RADIUS)) < 1e-6

    def test_empty_language_raises(self):
        empty = Dfa(frozenset({0}), frozenset({"x"}), {}, 0, frozenset())
        with pytest.raises(EmptyLanguage):
            topological_entropy(empty)

    def test_invariant_under_automaton_choice(self, observed_log):
        # the growth rate belongs to the language, not to the automaton
        raw = topological_entropy(prefix_tree_acceptor(observed_log.support))
        minimal = topological_entropy(log_to_dfa(observed_log))
        assert abs(raw.value - minimal.value) < 1e-9


class TestGrowthOracle:
    def test_exact_on_complete_graph(self):
        dfa = complete_two_node_dfa()
        assert abs(growth_oracle(dfa, 8) - math.log(2)) < 1e-12
        assert abs(growth_oracle(dfa, 200) - math.log(2)) < 1e-12

    def test_agrees_with_entropy_on_example_automata(self, model_dfa, system_dfa):
        for dfa in (model_dfa, system_dfa):
            value = topological_entropy(dfa).value
            assert abs(value - growth_oracle(dfa, 200)) <= 0.05

    def test_short_horizons_are_rejected(self, model_dfa):
        with pytest.raises(ValueError):
            growth_oracle(model_dfa, 7)


class TestMeasures:
    def test_model_against_system(self, model_dfa, system_dfa):
        precision, recall = model_system_measures(model_dfa, system_dfa)
        assert abs(precision - 0.867) <= 0.002
        assert abs(recall - 0.867) <= 0.002
        # the two languages happen to grow at the same rate, so the
        # measures coincide
        assert abs(precision - recall) < 1e-6

    def test_model_against_observed_log(self, model_dfa, observed_log):
        log_dfa = log_to_dfa(observed_log)
        precision, recall = model_system_measures(model_dfa, log_dfa)
        assert abs(precision - 0.791) <= 0.002
        assert abs(recall - 0.935) <= 0.002

    def test_single_functions_match_combined(self, model_dfa, system_dfa):
        precision, recall = model_system_measures(model_dfa, system_dfa)
        assert model_system_precision(model_dfa, system_dfa) == pytest.approx(
            precision, abs=1e-12
        )
        assert model_system_recall(model_dfa, system_dfa) == pytest.approx(
            recall, abs=1e-12
        )

    def test_self_comparison_is_perfect(self, model_dfa, observed_log):
        for dfa in (model_dfa, log_to_dfa(observed_log)):
            precision, recall = model_system_measures(dfa, dfa)
            assert precision == pytest.approx(1.0, abs=1e-6)
            assert recall == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_languages_measure_zero(self):
        a = log_to_dfa(EventLog.from_counts({t("ab"): 1}))
        b = log_to_dfa(EventLog.from_counts({t("cd"): 1}))
        precision, recall = model_system_measures(a, b)
        assert precision == 0.0
        assert recall == 0.0

    def test_ratio_of_growth_rates(self, model_dfa, system_dfa):
        # the measures are ratios of growth rates: equivalently, exponentials
        # of entropy differences
        precision, recall = model_system_measures(model_dfa, system_dfa)
        common = topological_entropy(intersect(model_dfa, system_dfa)).value
        ent_m = topological_entropy(model_dfa).value
        ent_s = topological_entropy(system_dfa).value
        assert precision == pytest.approx(math.exp(common - ent_m), abs=1e-9)
        assert recall == pytest.approx(math.exp(common - ent_s), abs=1e-9)

    def test_empty_operand_raises(self, model_dfa):
        empty = trim(Dfa(frozenset({0}), frozenset({"x"}), {}, 0, frozenset()))
        with pytest.raises(EmptyLanguage):
            model_system_measures(empty, model_dfa)
        with pytest.raises(EmptyLanguage):
            model_system_measures(model_dfa, empty)
