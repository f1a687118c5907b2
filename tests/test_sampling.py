from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from genboot.core import EventLog, Trace, subtrace
from genboot.errors import EmptyLog, InvalidSite
from genboot.sampling import (
    BreedingSite,
    SamplerConfig,
    _BreedingEngine,
    breeding_sites,
    crossover,
    log_breeding,
    sample_block_with_breeding,
    sample_with_breeding,
    sample_with_replacement,
)

actions = st.sampled_from("abc")
traces = st.lists(actions, min_size=1, max_size=8).map(lambda xs: Trace(tuple(xs)))


def t(text: str) -> Trace:
    return Trace(tuple(text))


@st.composite
def small_logs(draw):
    """Logs over 3 or 4 actions of up to 6 distinct traces, each of length 0-8."""
    alphabet = draw(st.sampled_from(("abc", "abcd")))
    words = st.lists(st.sampled_from(alphabet), max_size=8).map(lambda xs: Trace(tuple(xs)))
    counts = draw(st.dictionaries(words, st.integers(1, 4), min_size=1, max_size=6))
    return EventLog.from_counts(counts)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig(n=10)
        assert (cfg.g, cfg.k, cfg.p) == (0, 1, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 5, "g": -1},
            {"n": 5, "k": 0},
            {"n": 5, "p": -0.1},
            {"n": 5, "p": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestSampleWithReplacement:
    def test_draws_follow_multiplicities(self):
        log = EventLog.from_counts({t("a"): 99, t("b"): 1})
        replicate = sample_with_replacement(log, 10000, np.random.default_rng(0))
        assert 9800 <= replicate.multiplicity(t("a")) <= 9980

    def test_exact_size_and_support(self, observed_log):
        replicate = sample_with_replacement(observed_log, 500, np.random.default_rng(1))
        assert replicate.size == 500
        assert set(replicate.support) <= set(observed_log.support)

    def test_singleton_log(self):
        log = EventLog.from_counts({t("ab"): 3})
        replicate = sample_with_replacement(log, 7, np.random.default_rng(2))
        assert replicate == EventLog.from_counts({t("ab"): 7})

    def test_deterministic(self, observed_log):
        a = sample_with_replacement(observed_log, 100, np.random.default_rng(3))
        b = sample_with_replacement(observed_log, 100, np.random.default_rng(3))
        assert a == b

    def test_bad_arguments(self, observed_log):
        with pytest.raises(ValueError):
            sample_with_replacement(observed_log, 0, np.random.default_rng(0))
        with pytest.raises(EmptyLog):
            sample_with_replacement(EventLog(()), 5, np.random.default_rng(0))


class TestBreedingSites:
    def test_worked_example(self):
        sites = breeding_sites(t("adeef"), Trace(tuple("adefabcfadef")), 2)
        assert [(s.p1, s.p2) for s in sites] == [
            (1, 1),
            (1, 9),
            (2, 2),
            (2, 10),
            (4, 3),
            (4, 11),
        ]

    def test_self_sites(self):
        sites = breeding_sites(t("abbbcf"), t("abbbcf"), 2)
        assert [(s.p1, s.p2) for s in sites] == [
            (1, 1),
            (2, 2),
            (2, 3),
            (3, 2),
            (3, 3),
            (4, 4),
            (5, 5),
        ]

    def test_no_sites_when_k_exceeds_length(self):
        assert breeding_sites(t("ab"), t("abcd"), 3) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            breeding_sites(t("ab"), t("ab"), 0)

    @given(traces, traces, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_matches_brute_force(self, t1, t2, k):
        expected = [
            BreedingSite(p1, p2)
            for p1 in range(1, len(t1) - k + 2)
            for p2 in range(1, len(t2) - k + 2)
            if subtrace(t1, p1, k) == subtrace(t2, p2, k)
        ]
        assert breeding_sites(t1, t2, k) == expected

    @given(traces, traces, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_symmetry(self, t1, t2, k):
        forward = {(s.p1, s.p2) for s in breeding_sites(t1, t2, k)}
        backward = {(s.p2, s.p1) for s in breeding_sites(t2, t1, k)}
        assert forward == backward


class TestCrossover:
    def test_worked_examples(self):
        parent = t("abbbcf")
        assert crossover(parent, 2, parent, 3, 2) == t("abbcf")
        assert crossover(parent, 3, parent, 2, 2) == t("abbbbcf")

    def test_rejects_invalid_site(self):
        with pytest.raises(InvalidSite):
            crossover(t("ab"), 1, t("cd"), 1, 1)

    @given(traces, st.data())
    @settings(max_examples=60)
    def test_self_site_is_identity(self, trace, data):
        k = data.draw(st.integers(min_value=1, max_value=len(trace)))
        p = data.draw(st.integers(min_value=1, max_value=len(trace) - k + 1))
        assert crossover(trace, p, trace, p, k) == trace

    @given(traces, traces, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_offspring_conserve_total_length(self, t1, t2, k):
        sites = breeding_sites(t1, t2, k)
        for site in sites[:5]:
            c1 = crossover(t1, site.p1, t2, site.p2, k)
            c2 = crossover(t2, site.p2, t1, site.p1, k)
            assert len(c1) + len(c2) == len(t1) + len(t2)


class TestLogBreeding:
    def test_output_size_rounds_up(self):
        odd = EventLog.from_counts({t("ab"): 3, t("ac"): 2})  # size 5
        bred = log_breeding(odd, odd, 1, 1.0, np.random.default_rng(4))
        assert bred.size == 6

    def test_probability_zero_returns_parents(self, observed_log):
        bred = log_breeding(observed_log, observed_log, 2, 0.0, np.random.default_rng(5))
        assert set(bred.support) <= set(observed_log.support)
        assert bred.size == 66

    def test_oversized_k_passes_parents_through(self, observed_log):
        bred = log_breeding(observed_log, observed_log, 100, 1.0, np.random.default_rng(6))
        assert set(bred.support) <= set(observed_log.support)

    def test_empty_logs_are_rejected(self, observed_log):
        with pytest.raises(EmptyLog):
            log_breeding(EventLog(()), observed_log, 1, 1.0, np.random.default_rng(0))
        with pytest.raises(EmptyLog):
            log_breeding(observed_log, EventLog(()), 1, 1.0, np.random.default_rng(0))

    def test_stream_is_pinned(self, observed_log):
        # the determinism contract: a seed fixes the pass's output, so any
        # change to the draw order or the canonical order fails here
        bred = log_breeding(observed_log, observed_log, 2, 0.7, np.random.default_rng(2024))
        assert [("".join(trace), c) for trace, c in bred.entries] == [
            ("abbbcf", 2),
            ("abcf", 21),
            ("abcfadef", 8),
            ("addeef", 1),
            ("adeef", 6),
            ("adef", 18),
            ("adefabbbcf", 2),
            ("adefabcf", 6),
            ("adefabcfadef", 2),
        ]

    def test_creates_new_traces(self, observed_log):
        # crossover of the observed traces at k=2 can leave the support
        rng = np.random.default_rng(7)
        pool = set(observed_log.support)
        novel = False
        for _ in range(20):
            bred = log_breeding(observed_log, observed_log, 2, 1.0, rng)
            novel = novel or any(trace not in pool for trace in bred.support)
        assert novel


class TestSampleWithBreeding:
    def test_replicate_size(self, observed_log):
        cfg = SamplerConfig(n=40, g=3, k=2, p=1.0)
        replicate = sample_with_breeding(observed_log, 40, cfg, np.random.default_rng(8))
        assert replicate.size == 40

    @given(
        small_logs(),
        st.integers(1, 300),
        st.sampled_from((1, 2, 3)),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @example(EventLog.from_counts({Trace(()): 3}), 300, 2, 0.5, 9)
    @settings(max_examples=100, deadline=None)
    def test_zero_generations_equals_plain_resampling(self, log, n, k, p, seed):
        # the estimator resamples through the breeding engine at g=0; the
        # logs include the empty trace and logs of one trace
        cfg = SamplerConfig(n=n, g=0, k=k, p=p)
        bred = sample_with_breeding(log, n, cfg, np.random.default_rng(seed))
        assert bred == sample_with_replacement(log, n, np.random.default_rng(seed))

    def test_matches_manual_generation_chain(self, observed_log):
        # generation 0 is the log; each pass breeds the log against the
        # previous generation; the replicate is drawn from the pooled
        # generations.  Driving the public pieces by hand with the same
        # seed must reproduce the packaged sampler exactly.
        cfg = SamplerConfig(n=120, g=2, k=2, p=1.0)
        engine_rng = np.random.default_rng(10)
        replicate = sample_with_breeding(observed_log, 120, cfg, engine_rng)

        manual_rng = np.random.default_rng(10)
        g1 = log_breeding(observed_log, observed_log, 2, 1.0, manual_rng)
        g2 = log_breeding(observed_log, g1, 2, 1.0, manual_rng)
        pool = helpers.log_concat(helpers.log_concat(observed_log, g1), g2)
        expected = sample_with_replacement(pool, 120, manual_rng)
        assert replicate == expected

    def test_probability_zero_is_a_chain_of_plain_resamples(self, observed_log):
        # at p=0 every pass hands its drawn parents on unbred, so the
        # replicate equals plain resampling driven through the same draws
        cfg = SamplerConfig(n=90, g=3, k=2, p=0.0)
        replicate = sample_with_breeding(observed_log, 90, cfg, np.random.default_rng(13))

        rng = np.random.default_rng(13)
        iters = (observed_log.size + 1) // 2
        cur = pool = observed_log
        for _ in range(cfg.g):
            first = sample_with_replacement(observed_log, iters, rng)
            second = sample_with_replacement(cur, iters, rng)
            rng.random(iters)  # breeding gates
            rng.random(iters)  # site selectors
            cur = helpers.log_concat(first, second)
            pool = helpers.log_concat(pool, cur)
        assert replicate == sample_with_replacement(pool, 90, rng)

    def test_gated_out_pairs_are_not_bred(self, observed_log):
        engine = _BreedingEngine(observed_log, 2, 0.0)
        rng = np.random.default_rng(14)
        cur = engine.base_counter
        for _ in range(5):
            cur = engine.breed_pass(cur, rng)
        assert engine.kid_cache == {}
        assert len(engine.table) == len(observed_log.support)

    def test_stream_is_pinned(self, observed_log):
        # the determinism contract: a seed fixes the replicate, so any
        # change to the draw order or the canonical order fails here
        cfg = SamplerConfig(n=40, g=25, k=2, p=0.7)
        replicate = sample_with_breeding(observed_log, 40, cfg, np.random.default_rng(2024))
        assert [("".join(trace), c) for trace, c in replicate.entries] == [
            ("abbbcf", 2),
            ("abcf", 12),
            ("abcfadef", 1),
            ("abcfadefabcfadef", 1),
            ("adeef", 8),
            ("adef", 8),
            ("adefabcf", 3),
            ("adefabcfabcfadef", 1),
            ("adefabcfadef", 4),
        ]

    def test_deterministic(self, observed_log):
        cfg = SamplerConfig(n=30, g=5, k=2, p=0.7)
        a = sample_with_breeding(observed_log, 30, cfg, np.random.default_rng(11))
        b = sample_with_breeding(observed_log, 30, cfg, np.random.default_rng(11))
        assert a == b

    def test_bred_traces_keep_log_endpoints(self, observed_log):
        # every observed trace runs from a to f, and crossover splices
        # a prefix with a suffix, so the pool inherits both endpoints
        cfg = SamplerConfig(n=200, g=10, k=2, p=1.0)
        replicate = sample_with_breeding(observed_log, 200, cfg, np.random.default_rng(12))
        for trace in replicate.support:
            assert trace[0] == "a"
            assert trace[len(trace) - 1] == "f"

    def test_empty_log_is_rejected(self):
        cfg = SamplerConfig(n=5, g=1)
        with pytest.raises(EmptyLog):
            sample_with_breeding(EventLog(()), 5, cfg, np.random.default_rng(0))


class TestEngineSites:
    """The engine counts a pair's sites from its k-gram index and breeds one
    site at a time; ``breeding_sites`` and ``crossover`` are the oracle."""

    words = st.lists(st.sampled_from("abc"), max_size=7).map(lambda xs: Trace(tuple(xs)))

    @given(words, words, st.sampled_from((1, 2, 3)))
    @settings(max_examples=150, deadline=None)
    def test_sites_match_the_oracle(self, t1, t2, k):
        engine = _BreedingEngine(EventLog.from_counts({t1: 1, t2: 1}), k, 1.0)
        a, b = engine.index[t1.actions], engine.index[t2.actions]
        sites = breeding_sites(t1, t2, k)
        assert engine._site_count(a, b) == len(sites)
        for s, site in enumerate(sites):
            assert engine._nth_site(a, b, s) == (site.p1 - 1, site.p2 - 1)
            c1, c2 = engine._children(a, b, s)
            assert engine.table[c1] == crossover(t1, site.p1, t2, site.p2, k).actions
            assert engine.table[c2] == crossover(t2, site.p2, t1, site.p1, k).actions

    @given(
        small_logs(),
        st.sampled_from((1, 2, 3)),
        st.sampled_from((0.3, 1.0)),
        st.integers(0, 8),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_only_drawn_offspring_are_interned(self, log, k, p, g, size, seed):
        # each replicate's generations are a chain of log_breeding passes on
        # its own stream; the table must hold exactly their traces and the log's
        seeds = np.random.SeedSequence(seed).spawn(size)
        engine = _BreedingEngine(log, k, p)
        engine.sample(5, g, [np.random.default_rng(s) for s in seeds])
        expected = set(log.support)
        for child in seeds:
            rng, cur = np.random.default_rng(child), log
            for _ in range(g):
                cur = log_breeding(log, cur, k, p, rng)
                expected |= set(cur.support)
        assert sorted(engine.table) == sorted(trace.actions for trace in expected)
        for (a, b), count in engine.kid_cache.items():
            assert count == len(breeding_sites(Trace(engine.table[a]), Trace(engine.table[b]), k))


class TestLockstepBlocks:
    @given(
        small_logs(),
        st.sampled_from((1, 2, 3)),
        st.sampled_from((0.0, 0.3, 1.0)),
        st.integers(0, 15),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_replicates_match_the_oracle_and_lone_runs(self, log, k, p, g, size, seed):
        cfg = SamplerConfig(n=20, g=g, k=k, p=p)
        seeds = np.random.SeedSequence(seed).spawn(size)
        block = sample_block_with_breeding(log, 20, cfg, [np.random.default_rng(s) for s in seeds])
        assert len(block) == size
        for child, replicate in zip(seeds, block):
            oracle = helpers.reference_sample_with_breeding(
                log, 20, cfg, np.random.default_rng(child)
            )
            assert replicate == oracle
            assert replicate == sample_with_breeding(log, 20, cfg, np.random.default_rng(child))

    def test_block_matches_the_oracle_on_the_bundled_log(self, observed_log):
        cfg = SamplerConfig(n=300, g=200, k=2, p=0.5)
        seeds = np.random.SeedSequence(3).spawn(3)
        block = sample_block_with_breeding(
            observed_log, 300, cfg, [np.random.default_rng(s) for s in seeds]
        )
        assert block == [
            helpers.reference_sample_with_breeding(observed_log, 300, cfg, np.random.default_rng(s))
            for s in seeds
        ]

    def test_sample_size_must_be_positive(self, observed_log):
        with pytest.raises(ValueError):
            sample_block_with_breeding(
                observed_log, 0, SamplerConfig(n=5), [np.random.default_rng(0)]
            )
