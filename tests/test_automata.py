from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from genboot.automata import (
    Dfa,
    Dfg,
    accepts,
    dfg_to_dfa,
    intersect,
    is_stable,
    log_to_dfa,
    minimize,
    prefix_tree_acceptor,
    trim,
)
from genboot.core import EventLog, Trace
from genboot.discovery_sim import WalkConfig, simulate_log
from genboot.errors import RetryExhausted


def t(text: str) -> Trace:
    return Trace(tuple(text))


class TestDfg:
    def test_from_arcs_infers_actions(self):
        g = Dfg.from_arcs([("i", "a"), ("a", "b"), ("b", "o")])
        assert g.actions == {"a", "b"}
        assert g.action_freq["a"] == 0

    def test_rejects_alien_endpoints(self):
        with pytest.raises(ValueError):
            Dfg(frozenset({"a"}), frozenset({("a", "z")}))

    def test_rejects_input_to_output_arc(self):
        with pytest.raises(ValueError):
            Dfg.from_arcs([("i", "o")])

    def test_rejects_arcs_into_input(self):
        with pytest.raises(ValueError):
            Dfg.from_arcs([("i", "a"), ("a", "i")])

    def test_rejects_unknown_frequency_keys(self):
        with pytest.raises(ValueError):
            Dfg.from_arcs([("i", "a"), ("a", "o")], action_freq={"z": 1})

    def test_rejects_negative_frequencies(self):
        with pytest.raises(ValueError):
            Dfg.from_arcs([("i", "a"), ("a", "o")], arc_freq={("i", "a"): -1})


class TestDfgToDfa:
    def test_model_language_members(self, model_dfa):
        assert accepts(model_dfa, t("abcf"))
        assert accepts(model_dfa, t("adeef"))
        assert accepts(model_dfa, t("adef"))
        assert accepts(model_dfa, Trace(tuple("adefabcfadef")))

    def test_model_language_non_members(self, model_dfa):
        assert not accepts(model_dfa, t("abbbcf"))  # no b->b arc
        assert not accepts(model_dfa, t("addef"))  # no d->d arc
        assert not accepts(model_dfa, t("abc"))  # stops before f
        assert not accepts(model_dfa, t(""))
        assert not accepts(model_dfa, t("xyz"))

    def test_system_differs_from_model(self, system_dfa):
        assert accepts(system_dfa, t("abbbcf"))
        assert not accepts(system_dfa, t("adeef"))  # the system has no e->e arc

    def test_dfa_shape(self, model_dfg, model_dfa):
        assert model_dfa.start == "i"
        assert model_dfa.accepting == {"f"}
        assert model_dfa.states == model_dfg.actions | {"i"}
        assert len(model_dfa.transitions) == 9  # every arc but f -> o

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_language_is_the_input_to_output_walks(self, seed):
        graph = helpers.random_dfg(np.random.default_rng(seed))
        walks = set()
        stack = [("i", ())]
        while stack:
            node, word = stack.pop()
            for source, target in graph.arcs:
                if source != node:
                    continue
                if target == "o":
                    walks.add(word)
                elif len(word) < 6:
                    stack.append((target, word + (target,)))
        assert helpers.enum_words(dfg_to_dfa(graph), 6) == walks

    def test_empty_graph_accepts_nothing(self):
        dfa = dfg_to_dfa(Dfg(frozenset(), frozenset()))
        assert dfa.is_empty


class TestStability:
    def test_graph_automata_are_stable(self, model_dfa, system_dfa):
        assert is_stable(model_dfa)
        assert is_stable(system_dfa)

    def test_random_graph_automata_are_stable(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            assert is_stable(helpers.model_like_dfa(rng))

    def test_unstable_counterexample(self):
        a = Dfa(
            states=frozenset({0, 1, 2}),
            alphabet=frozenset({"x"}),
            transitions={(0, "x"): 1, (1, "x"): 2},
            start=0,
            accepting=frozenset({2}),
        )
        assert not is_stable(a)


class TestLogToDfa:
    def test_single_trace(self):
        log = EventLog.from_counts({t("ab"): 5})
        dfa = log_to_dfa(log)
        assert helpers.enum_words(dfa, 4) == {("a", "b")}

    def test_observed_log_language_is_its_support(self, observed_log):
        dfa = log_to_dfa(observed_log)
        expected = {trace.actions for trace in observed_log.support}
        assert helpers.enum_words(dfa, 12) == expected

    def test_empty_log(self):
        assert log_to_dfa(EventLog(())).is_empty


class TestTrimAndMinimize:
    def test_trim_drops_dead_states(self):
        a = Dfa(
            states=frozenset({0, 1, 2}),
            alphabet=frozenset({"x"}),
            transitions={(0, "x"): 1, (1, "x"): 2, (2, "x"): 2},
            start=0,
            accepting=frozenset({1}),
        )
        trimmed = trim(a)
        assert len(trimmed.states) == 2  # state 2 cannot reach acceptance
        assert helpers.enum_words(trimmed, 5) == {("x",)}

    def test_trim_preserves_language_on_random_dfas(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = helpers.random_dfa(rng, max_states=8)
            assert helpers.enum_words(trim(a), 7) == helpers.enum_words(a, 7)

    def test_minimize_merges_equivalent_branches(self):
        pta = prefix_tree_acceptor([t("ab"), t("cb")])
        assert len(pta.states) == 5
        small = minimize(pta)
        assert len(small.states) == 3
        assert helpers.enum_words(small, 4) == {("a", "b"), ("c", "b")}

    def test_minimize_preserves_language_on_random_dfas(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = helpers.random_dfa(rng, max_states=8)
            assert helpers.enum_words(minimize(a), 7) == helpers.enum_words(a, 7)

    def test_minimize_is_idempotent(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            small = minimize(helpers.random_dfa(rng, max_states=8))
            assert minimize(small) == small

    def test_canonical_construction(self, observed_log):
        assert log_to_dfa(observed_log) == minimize(
            prefix_tree_acceptor(observed_log.support)
        )


@st.composite
def raw_dfas(draw):
    """Untrimmed, possibly partial and cyclic DFAs, with unreachable and
    dead states and sometimes an empty language or alphabet."""
    count = draw(st.integers(min_value=1, max_value=9))
    state = st.integers(min_value=0, max_value=count - 1)
    letters = sorted(draw(st.sets(st.sampled_from("xyz"))))
    transitions = {}
    if letters:
        transitions = draw(
            st.dictionaries(st.tuples(state, st.sampled_from(letters)), state)
        )
    return Dfa(
        frozenset(range(count)),
        frozenset(letters),
        transitions,
        draw(state),
        frozenset(draw(st.sets(state))),
    )


def relabel(a: Dfa, label) -> Dfa:
    return Dfa(
        frozenset(map(label, a.states)),
        a.alphabet,
        {(label(q), x): label(r) for (q, x), r in a.transitions.items()},
        label(a.start),
        frozenset(map(label, a.accepting)),
    )


LABELS = (lambda q: q, lambda q: f"s{q}", lambda q: (q, "s"))


class TestMinimizeOracle:
    """``minimize`` equals the signature-tuple Moore loop of
    ``helpers.reference_minimize`` on every input."""

    @given(raw_dfas(), st.sampled_from(LABELS))
    @settings(max_examples=300)
    def test_random_dfas(self, a, label):
        assert minimize(relabel(a, label)) == helpers.reference_minimize(a)

    def test_graph_automata(self, model_dfa, system_dfa):
        rng = np.random.default_rng(15)
        automata = [model_dfa, system_dfa]
        automata += [helpers.model_like_dfa(rng) for _ in range(20)]
        for a in automata:
            assert minimize(a) == helpers.reference_minimize(a)

    def test_prefix_trees_of_simulated_logs(self, system_dfg):
        rng = np.random.default_rng(16)
        graphs = [system_dfg] + [helpers.random_dfg(rng) for _ in range(6)]
        for graph in graphs:
            try:
                log = simulate_log(graph, WalkConfig(trace_count=300, max_length=30), rng)
            except RetryExhausted:
                continue
            pta = prefix_tree_acceptor(log.support)
            assert minimize(pta) == helpers.reference_minimize(pta)

    def test_empty_language(self):
        a = Dfa(frozenset({0, 1}), frozenset({"x"}), {(0, "x"): 1}, 0, frozenset())
        assert minimize(a) == helpers.reference_minimize(a)
        assert minimize(a).is_empty

    def test_only_the_empty_trace(self):
        a = prefix_tree_acceptor([t("")])
        assert a.alphabet == frozenset()
        assert minimize(a) == helpers.reference_minimize(a)
        assert helpers.enum_words(minimize(a), 3) == {()}


class TestIntersect:
    def test_model_with_observed_log(self, model_dfa, observed_log):
        product = intersect(model_dfa, log_to_dfa(observed_log))
        expected = {
            tuple("abcf"),
            tuple("adeef"),
            tuple("adef"),
            tuple("adefabcfadef"),
        }
        assert helpers.enum_words(product, 12) == expected

    def test_self_intersection(self, model_dfa):
        product = intersect(model_dfa, model_dfa)
        assert helpers.enum_words(product, 8) == helpers.enum_words(model_dfa, 8)

    def test_disjoint_singletons(self):
        a = log_to_dfa(EventLog.from_counts({t("ab"): 1}))
        b = log_to_dfa(EventLog.from_counts({t("cd"): 1}))
        assert intersect(a, b).is_empty

    def test_known_finite_case(self):
        a = log_to_dfa(EventLog.from_traces([t("ab"), t("cd")]))
        b = log_to_dfa(EventLog.from_traces([t("ab"), t("ef")]))
        product = intersect(a, b)
        assert helpers.enum_words(product, 4) == {("a", "b")}
