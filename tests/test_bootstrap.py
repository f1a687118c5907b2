from __future__ import annotations

import numpy as np
import pytest

import helpers
from genboot.automata import Dfg, dfg_to_dfa
from genboot.bootstrap import (
    EstimatorSpec,
    GeneralizationEstimate,
    aggregate,
    bootstrap_generalization,
)
from genboot.core import EventLog, Trace
from genboot.errors import EmptyData, EmptyLanguage, EmptyLog, WorkerDied
from genboot.sampling import SamplerConfig


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
        with pytest.raises(ValueError):
            EstimatorSpec(lsm="breeding", cfg=cfg, m=3, measure="f1")


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

    def test_seed_can_come_from_the_sampler_config(self, model_dfa, observed_log):
        spec_seeded = EstimatorSpec(
            lsm="breeding", cfg=SamplerConfig(n=40, g=3, k=2, p=1.0, seed=17), m=4
        )
        spec_plain = EstimatorSpec(
            lsm="breeding", cfg=SamplerConfig(n=40, g=3, k=2, p=1.0), m=4
        )
        via_cfg = bootstrap_generalization(model_dfa, observed_log, spec_seeded)
        via_arg = bootstrap_generalization(model_dfa, observed_log, spec_plain, seed=17)
        assert via_cfg == via_arg

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
        spec = EstimatorSpec(lsm="replacement", cfg=SamplerConfig(n=5, seed=1), m=4)
        with pytest.raises(WorkerDied, match="cell lsm=replacement n=5 g=0 .* m=4"):
            bootstrap_generalization(model_dfa, log, spec, workers=2)


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
