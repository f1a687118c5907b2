from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from genboot.automata import (
    Dfa,
    dfg_to_dfa,
    intersect,
    log_to_dfa,
    prefix_tree_acceptor,
    trim,
)
from genboot.core import EventLog, Trace
from genboot.discovery_sim import DiscoveryConfig, WalkConfig, discover_dfg, simulate_log
from genboot.entropy import (
    _finite_growth,
    _growth_rate,
    _short_circuit,
    growth_oracle,
    log_entropy,
    log_measures,
    model_system_measures,
    topological_entropy,
)
from genboot.errors import EmptyLanguage, RetryExhausted

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


def dense_radius(a: Dfa) -> float:
    """Largest eigenvalue modulus of the short-circuit matrix, built densely
    from the trimmed automaton's transitions and return edges and solved by
    a dense eigensolver; 0 for an empty language."""
    core = trim(a)
    if not core.accepting:
        return 0.0
    index = {q: i for i, q in enumerate(core.states)}
    matrix = np.zeros((len(index), len(index)))
    for (q, _), r in core.transitions.items():
        matrix[index[q], index[r]] += 1.0
    for q in core.accepting:
        matrix[index[q], index[core.start]] += 1.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def renewal(lengths):
    """The renewal function F(x) = sum of x**(len + 1) over the words."""
    counts = np.bincount(np.asarray(lengths, dtype=np.intp))
    return lambda x: counts @ x ** np.arange(1, len(counts) + 1)


# finite trace sets: the empty trace, single traces, and short and long
# traces together
words = st.one_of(
    st.just(""),
    st.text("abc", min_size=1, max_size=3),
    st.text("ab", min_size=10, max_size=40),
)
trace_sets = st.lists(words, min_size=1, max_size=8, unique=True).map(
    lambda texts: [t(text) for text in texts]
)


class TestFiniteGrowth:
    @given(trace_sets)
    @example([t("a"), t("c"), t("ba")])  # the golden ratio
    @settings(max_examples=200, deadline=None)
    def test_matches_power_iteration_on_the_prefix_tree(self, traces):
        rho, _ = _finite_growth([len(w) for w in traces])
        # power iteration stops inside a Collatz–Wielandt bracket 1e-9 wide
        # relative to rho + 1, so it is at most about 2e-9 off; agreement of
        # successive estimates alone stopped {a, c, ba} at 1.625 after two
        # steps, and missed the root of the lengths {19, 36} by 4.8e-6
        assert rho == pytest.approx(
            _growth_rate(prefix_tree_acceptor(traces))[0], rel=1e-8
        )

    @given(trace_sets)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_eigenvalues(self, traces):
        core = trim(prefix_tree_acceptor(traces))
        assume(len(core.states) <= 200)
        rho, _ = _finite_growth([len(w) for w in traces])
        assert rho == pytest.approx(dense_radius(core), rel=1e-11)

    @given(trace_sets)
    @settings(max_examples=200, deadline=None)
    def test_brackets_the_root_between_adjacent_floats(self, traces):
        lengths = [len(w) for w in traces]
        rho, steps = _finite_growth(lengths)
        f = renewal(lengths)
        # rho = 1/hi, where F(lo) < 1 <= F(hi) and lo is the float below hi
        x = 1.0 / rho
        assert any(
            1.0 / hi == rho and f(np.nextafter(hi, 0.0)) < 1.0 <= f(hi)
            for hi in (np.nextafter(x, 0.0), x, np.nextafter(x, 2.0))
        )
        # three letters allow at most 3**l words of length l, so the root
        # is at least 1/4 and about 55 halvings reach adjacent floats
        assert 1 <= steps <= 64

    def test_two_chains_match_a_forty_digit_root(self):
        # the root of x**20 + x**37 = 1, to 40 digits
        rho, _ = _finite_growth([19, 36])
        assert rho == pytest.approx(1.0254324629019403603, rel=2e-16)

    @pytest.mark.parametrize("length", [0, 1, 7, 60])
    def test_a_single_trace_grows_at_exactly_one(self, length):
        assert _finite_growth([length])[0] == 1.0

    def test_empty_language_raises(self):
        with pytest.raises(EmptyLanguage):
            _finite_growth([])
        with pytest.raises(EmptyLanguage):
            log_entropy(EventLog(()))


class TestLogMeasures:
    def test_bundled_log_matches_its_automaton(self, model_dfa, system_dfa, observed_log):
        log_dfa = log_to_dfa(observed_log)
        assert log_entropy(observed_log).value == pytest.approx(
            topological_entropy(log_dfa).value, rel=1e-9
        )
        for m in (model_dfa, system_dfa):
            assert log_measures(m, observed_log) == pytest.approx(
                model_system_measures(m, log_dfa), rel=1e-9
            )

    def test_a_log_the_model_rejects_measures_zero(self, model_dfa):
        log = EventLog.from_counts({t("zz"): 2, t(""): 1})
        assert log_measures(model_dfa, log) == (0.0, 0.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eigenvalues_of_the_product(self, seed):
        # the model is discovered from the log's more frequent half, so it
        # accepts some of the log's traces and may accept others
        rng = np.random.default_rng(seed)
        graph = helpers.random_dfg(rng, max_actions=6)
        try:
            log = simulate_log(graph, WalkConfig(trace_count=12, max_length=12), rng)
        except RetryExhausted:
            return
        model = dfg_to_dfa(discover_dfg(log, DiscoveryConfig(filter_fraction=0.5)))
        pta = prefix_tree_acceptor(log.support)
        if len(pta.states) > 200:
            return
        rho_m, _ = _growth_rate(model)
        rho_i = dense_radius(intersect(model, pta))
        precision, recall = log_measures(model, log)
        assert precision == pytest.approx(rho_i / rho_m, rel=1e-11)
        assert recall == pytest.approx(rho_i / dense_radius(pta), rel=1e-11)


class TestShortCircuit:
    def test_single_trace_cycle(self):
        n, rows, cols, weights = _short_circuit(trim(prefix_tree_acceptor([t("x")])))
        assert n == 2
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 0)]
        assert weights.tolist() == [1.0, 1.0]

    def test_empty_trace_self_loop(self):
        n, rows, cols, weights = _short_circuit(trim(prefix_tree_acceptor([t("")])))
        assert (n, rows.tolist(), cols.tolist(), weights.tolist()) == (1, [0], [0], [1.0])

    def test_model_matrix(self, model_dfa):
        n, rows, cols, weights = _short_circuit(trim(model_dfa))
        assert n == 7
        assert weights.dtype == np.float64
        assert weights.sum() == 10  # nine transitions plus one return edge
        # one entry per (row, column), sorted row-major as CSR stores them
        assert np.all(np.diff(rows * n + cols) > 0)

    def test_parallel_transitions_accumulate(self):
        a = Dfa(
            states=frozenset({0, 1}),
            alphabet=frozenset({"x", "y"}),
            transitions={(0, "x"): 1, (0, "y"): 1},
            start=0,
            accepting=frozenset({1}),
        )
        n, rows, cols, weights = _short_circuit(trim(a))
        assert n == 2
        assert rows.tolist() == [0, 1]
        assert cols.tolist() == [1, 0]
        assert weights.tolist() == [2.0, 1.0]


class TestPowerIteration:
    # Successive estimates alone can agree after two steps: on about 1 in
    # 150 of these automata they did, up to 2.5% off.  Seed 98 gives the
    # language {cb, db, d}, where that rule returned 1.53846 against
    # 1.56155; the Collatz–Wielandt bracket keeps the iteration going.
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=98)
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_eigenvalues_on_graph_automata(self, seed):
        # model-like automata are mostly cyclic; their products add states
        # that no single graph has
        rng = np.random.default_rng(seed)
        a = helpers.model_like_dfa(rng, max_actions=8)
        b = helpers.model_like_dfa(rng, max_actions=8)
        for automaton in (a, b, intersect(a, b)):
            core = trim(automaton)
            if not core.accepting or len(core.states) > 30:
                continue
            rho, _ = _growth_rate(core)
            assert rho == pytest.approx(dense_radius(core), rel=1e-6)


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
