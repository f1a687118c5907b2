from __future__ import annotations

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import helpers
from genboot import bootstrap
from genboot.automata import Dfg, dfg_to_dfa, minimize, prefix_tree_acceptor
from genboot.bootstrap import (
    EstimatorSpec,
    GeneralizationEstimate,
    aggregate,
    bootstrap_generalization,
)
from genboot.core import EventLog, Trace
from genboot.errors import EmptyData, EmptyLanguage, EmptyLog, NoConvergence, WorkerDied
from genboot.entropy import model_system_measures
from genboot.sampling import SamplerConfig, sample_with_breeding, sample_with_replacement


def t(text: str) -> Trace:
    return Trace(tuple(text))


class TestAggregate:
    def test_two_point_sample(self):
        mean, ci95, var = aggregate([0.0, 1.0])
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(0.5)
        assert ci95 == pytest.approx(0.98)

    def test_singleton_has_no_spread(self):
        assert aggregate([2.5]) == (2.5, 0.0, 0.0)

    def test_constant_sample(self):
        mean, ci95, var = aggregate([3.0] * 8)
        assert (mean, ci95, var) == (3.0, 0.0, 0.0)

    def test_percentile_method(self):
        values = list(range(11))
        mean, ci95, var = aggregate(values, method="percentile")
        assert mean == pytest.approx(5.0)
        assert ci95 == pytest.approx((9.75 - 0.25) / 2)
        assert var == pytest.approx(11.0)

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            aggregate([])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            aggregate([1.0, 2.0], method="median")


class TestEstimatorSpec:
    def test_validation(self):
        cfg = SamplerConfig(n=5)
        with pytest.raises(ValueError):
            EstimatorSpec(lsm="bootstrap", cfg=cfg, m=3)
        with pytest.raises(ValueError):
            EstimatorSpec(lsm="breeding", cfg=cfg, m=0)


class TestBootstrapGeneralization:
    def test_perfectly_fitting_single_trace(self):
        graph = Dfg.from_arcs([("i", "a"), ("a", "b"), ("b", "o")])
        log = EventLog.from_counts({t("ab"): 4})
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=4), m=1)
        estimate = bootstrap_generalization(dfg_to_dfa(graph), log, spec, seed=0)
        assert estimate.precision_mean == pytest.approx(1.0, abs=1e-9)
        assert estimate.recall_mean == pytest.approx(1.0, abs=1e-9)
        assert estimate.precision_ci95 == 0.0
        assert estimate.distinct_traces_mean == 1.0
        assert estimate.replicates == 1
        assert len(estimate.per_replicate) == 1

    def test_deterministic_given_seed(self, model_dfa, observed_log):
        spec = EstimatorSpec(
            lsm="breeding", cfg=SamplerConfig(n=50, g=5, k=2, p=1.0), m=6
        )
        a = bootstrap_generalization(model_dfa, observed_log, spec, seed=123)
        b = bootstrap_generalization(model_dfa, observed_log, spec, seed=123)
        assert a == b

    def test_worker_count_does_not_change_the_result(self, model_dfa, observed_log):
        spec = EstimatorSpec(
            lsm="breeding", cfg=SamplerConfig(n=50, g=5, k=2, p=1.0), m=6
        )
        serial = bootstrap_generalization(model_dfa, observed_log, spec, seed=123)
        parallel = bootstrap_generalization(
            model_dfa, observed_log, spec, seed=123, workers=2
        )
        assert serial == parallel

    @pytest.mark.parametrize("lsm", ["replacement", "breeding"])
    def test_block_split_does_not_change_the_result(self, model_dfa, observed_log, lsm):
        # uneven blocks, and more workers than replicates
        spec = EstimatorSpec(lsm=lsm, cfg=SamplerConfig(n=50, g=5, k=2, p=0.7), m=5)
        serial = bootstrap_generalization(model_dfa, observed_log, spec, seed=31)
        for workers in (2, 3, 7):
            split = bootstrap_generalization(
                model_dfa, observed_log, spec, seed=31, workers=workers
            )
            assert split == serial

    def test_a_failing_replicate_is_named(self, model_dfa, observed_log, monkeypatch):
        # the sixth replicate fails, in the second lockstep batch of its block
        real = bootstrap._finite_measures
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 6:
                raise NoConvergence("no convergence")
            return real(*args)

        monkeypatch.setattr(bootstrap, "_finite_measures", failing)
        spec = EstimatorSpec(lsm="breeding", cfg=SamplerConfig(n=50, g=5, k=2, p=0.7), m=7)
        with pytest.raises(NoConvergence, match="^replicate 5: no convergence$"):
            bootstrap_generalization(model_dfa, observed_log, spec, seed=31)

    @pytest.mark.parametrize("lsm", ["replacement", "breeding"])
    def test_replicates_match_the_automaton_measures(self, model_dfa, observed_log, lsm):
        # each replicate, drawn again alone from its own seed, measured
        # through its prefix-tree acceptor and the product with the model
        cfg = SamplerConfig(n=60, g=8, k=2, p=0.7)
        spec = EstimatorSpec(lsm=lsm, cfg=cfg, m=6)
        estimate = bootstrap_generalization(model_dfa, observed_log, spec, seed=17)
        model_core = minimize(model_dfa)
        seeds = np.random.SeedSequence(17).spawn(spec.m)
        for seed, (precision, recall, distinct) in zip(seeds, estimate.per_replicate):
            rng = np.random.default_rng(seed)
            if lsm == "replacement":
                replicate = sample_with_replacement(observed_log, cfg.n, rng)
            else:
                replicate = sample_with_breeding(observed_log, cfg.n, cfg, rng)
            support = replicate.support
            want = model_system_measures(model_core, prefix_tree_acceptor(support))
            assert (precision, recall) == pytest.approx(want, rel=1e-9)
            assert distinct == len(support)

    def test_aggregates_recompute_from_per_replicate(self, model_dfa, observed_log):
        spec = EstimatorSpec(
            lsm="replacement", cfg=SamplerConfig(n=66), m=12
        )
        estimate = bootstrap_generalization(model_dfa, observed_log, spec, seed=9)
        precisions = [p for p, _, _ in estimate.per_replicate]
        shuffled = sorted(precisions, reverse=True)  # order must not matter
        mean, ci95, var = aggregate(shuffled)
        assert mean == pytest.approx(estimate.precision_mean, abs=1e-9)
        assert ci95 == pytest.approx(estimate.precision_ci95, abs=1e-9)
        assert var == pytest.approx(estimate.precision_var, abs=1e-9)

    def test_percentile_interval(self, model_dfa, observed_log):
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=66), m=8)
        estimate = bootstrap_generalization(
            model_dfa, observed_log, spec, seed=3, ci_method="percentile"
        )
        assert isinstance(estimate, GeneralizationEstimate)
        assert estimate.precision_ci95 >= 0.0

    def test_replacement_replicates_stay_inside_the_log(self, model_dfa, observed_log):
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=66), m=10)
        estimate = bootstrap_generalization(model_dfa, observed_log, spec, seed=5)
        for _, recall, distinct in estimate.per_replicate:
            assert 1 <= distinct <= 6
            assert 0.0 < recall <= 1.0 + 1e-9

    def test_empty_log_is_rejected(self, model_dfa):
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=5), m=2)
        with pytest.raises(EmptyLog):
            bootstrap_generalization(model_dfa, EventLog(()), spec)

    def test_model_without_traces_is_rejected(self, observed_log):
        empty_model = dfg_to_dfa(Dfg(frozenset(), frozenset()))
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=5), m=2)
        with pytest.raises(EmptyLanguage):
            bootstrap_generalization(empty_model, observed_log, spec)

    def test_invalid_worker_count(self, model_dfa, observed_log):
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=5), m=2)
        with pytest.raises(ValueError):
            bootstrap_generalization(model_dfa, observed_log, spec, workers=0)

    def test_dead_worker_is_a_domain_error(self, model_dfa, observed_log):
        log = helpers.WorkerKillingLog(observed_log.entries)
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=5), m=4)
        with pytest.raises(WorkerDied, match="cell lsm=replacement n=5 g=0 .* m=4"):
            bootstrap_generalization(model_dfa, log, spec, seed=1, workers=2)

    def test_processes_are_capped_at_the_cpu_count(self, model_dfa, observed_log, monkeypatch):
        # a fake pool records the process count and maps in this process
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(bootstrap, "ProcessPoolExecutor", SerialPool)
        spec = EstimatorSpec(lsm="breeding", cfg=SamplerConfig(n=50, g=3, k=2), m=64)
        wide = bootstrap_generalization(model_dfa, observed_log, spec, seed=4, workers=64)
        narrow = bootstrap_generalization(model_dfa, observed_log, spec, seed=4, workers=1)
        assert started == [min(64, os.cpu_count())]
        assert wide.per_replicate == narrow.per_replicate

    def test_replacement_keeps_no_copy_of_the_log(self, model_dfa, observed_log):
        # the bundled log with every count x30000 holds 1.98M occurrences of
        # six distinct traces; plain resampling needs only the six counts
        log = EventLog.from_counts({t: c * 30000 for t, c in observed_log.entries})
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=1000), m=8)
        tracemalloc.start()
        try:
            bootstrap_generalization(model_dfa, log, spec, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestPinnedReplicates:
    # the determinism contract: seed 123 fixes every replicate's
    # (precision, recall, distinct traces) bit for bit, at any worker count.
    # Every replacement replicate here hits all six observed traces, so
    # that cell pins the measures, not the draws.
    @pytest.mark.parametrize(
        "lsm, cfg, m, digest",
        [
            (
                "breeding",
                SamplerConfig(n=500, g=300, k=2, p=0.5),
                7,
                "0a56dd921fc5691ff369910a9e1373646c88cf442b9c0ee7e6d19eb4ac3e9ced",
            ),
            (
                "breeding",
                SamplerConfig(n=2000, g=1000, k=1, p=1.0),
                5,
                "ac43b0899b1216bf8194f34eb552fe17d68c0eaad695d7c78f38fa89ff40fabe",
            ),
            (
                "replacement",
                SamplerConfig(n=300),
                9,
                "b901492e68344deb7bb65cd6ec013fb1c6c012f5fa003ba537e52a103435b4ec",
            ),
        ],
        ids=["breeding-k2", "breeding-k1", "replacement"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_per_replicate_is_pinned(
        self, model_dfa, observed_log, lsm, cfg, m, digest, workers
    ):
        spec = EstimatorSpec(lsm=lsm, cfg=cfg, m=m)
        estimate = bootstrap_generalization(
            model_dfa, observed_log, spec, seed=123, workers=workers
        )
        rows = estimate.per_replicate
        assert [tuple(map(type, row)) for row in rows] == [(float, float, int)] * m
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestLargeReplicateBehavior:
    def test_large_replicates_approach_reference_values(self, model_dfa, observed_log):
        # at n=100000 the estimator's means are known to sit near
        # precision 0.892, recall 0.912, with about 107 distinct traces
        spec = EstimatorSpec(
            lsm="breeding", cfg=SamplerConfig(n=100000, g=10000, k=2, p=1.0), m=25
        )
        estimate = bootstrap_generalization(model_dfa, observed_log, spec, seed=2026)
        assert abs(estimate.precision_mean - 0.892) <= 0.01
        assert abs(estimate.recall_mean - 0.912) <= 0.01
        assert abs(estimate.distinct_traces_mean - 107.3) <= 0.15 * 107.3
