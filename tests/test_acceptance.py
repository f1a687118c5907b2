"""End-to-end acceptance checks.

Every test prints a single PASS/FAIL line (bypassing output capture), so a
full run reads as a checklist.  The two stochastic panels run seed-free on
purpose; their tolerances cover the sampling noise of 100 replicates with
a wide margin.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import helpers
from genboot.automata import accepts, dfg_to_dfa, intersect, log_to_dfa
from genboot.bootstrap import EstimatorSpec, bootstrap_generalization
from genboot.cli import main
from genboot.core import Trace
from genboot.discovery_sim import (
    DiscoveryConfig,
    WalkConfig,
    discover_dfg,
    simulate_log,
)
from genboot.entropy import growth_oracle, model_system_measures, topological_entropy
from genboot.errors import RetryExhausted
from genboot.sampling import (
    SamplerConfig,
    breeding_sites,
    crossover,
    sample_with_breeding,
)


@pytest.fixture
def announce(capsys):
    def _announce(number: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"{status} criterion {number:02d} {name}{suffix}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _announce


@pytest.fixture(scope="module")
def cells(model_dfa, observed_log):
    """Bootstrap cells at the benchmark settings, computed once per key,
    on one process per CPU (the worker count never changes a result)."""
    cache = {}

    def get(n: int, g: int, seed=None):
        key = (n, g, seed)
        if key not in cache:
            spec = EstimatorSpec(
                lsm="breeding", cfg=SamplerConfig(n=n, g=g, k=2, p=1.0), m=100
            )
            cache[key] = bootstrap_generalization(
                model_dfa, observed_log, spec, seed=seed, workers=os.cpu_count() or 1
            )
        return cache[key]

    return get


def test_criterion_01_model_system_measures(model_dfg, system_dfg, announce):
    started = time.perf_counter()
    precision, recall = model_system_measures(
        dfg_to_dfa(model_dfg), dfg_to_dfa(system_dfg)
    )
    elapsed = time.perf_counter() - started
    ok = (
        abs(precision - 0.867) <= 0.002
        and abs(recall - 0.867) <= 0.002
        and elapsed < 1.0
    )
    announce(
        1,
        "model-vs-system measures",
        ok,
        f"precision={precision:.6f} recall={recall:.6f} {elapsed:.2f}s",
    )


def test_criterion_02_model_log_measures(model_dfg, observed_log, announce):
    started = time.perf_counter()
    precision, recall = model_system_measures(
        dfg_to_dfa(model_dfg), log_to_dfa(observed_log)
    )
    elapsed = time.perf_counter() - started
    ok = (
        abs(precision - 0.791) <= 0.002
        and abs(recall - 0.935) <= 0.002
        and elapsed < 1.0
    )
    announce(
        2,
        "model-vs-log measures",
        ok,
        f"precision={precision:.6f} recall={recall:.6f} {elapsed:.2f}s",
    )


def test_criterion_03_discovery_reproduces_the_model(
    observed_log, model_dfg, announce
):
    started = time.perf_counter()
    discovered = discover_dfg(observed_log, DiscoveryConfig(filter_fraction=1 / 3))
    dfa = dfg_to_dfa(discovered)
    fitting = sum(c for t, c in observed_log.entries if accepts(dfa, t))
    elapsed = time.perf_counter() - started
    ok = (
        discovered.actions == model_dfg.actions
        and discovered.arcs == model_dfg.arcs
        and observed_log.size == 66
        and fitting == 60
        and elapsed < 1.0
    )
    announce(
        3,
        "discovery reproduces the example model",
        ok,
        f"fitting={fitting}/66 {elapsed:.2f}s",
    )


def test_criterion_04_replicate_size_panel(cells, announce):
    targets = {
        100: (0.835, 0.952, 11.9),
        1000: (0.863, 0.930, 27.7),
        10000: (0.881, 0.919, 56.5),
    }
    ok = True
    details = []
    for n, (t_prec, t_rec, t_distinct) in targets.items():
        estimate = cells(n, 10000)
        ok = ok and abs(estimate.precision_mean - t_prec) <= 0.01
        ok = ok and abs(estimate.recall_mean - t_rec) <= 0.01
        ok = ok and abs(estimate.distinct_traces_mean - t_distinct) <= 0.15 * t_distinct
        details.append(
            f"n={n}: {estimate.precision_mean:.4f}/{estimate.recall_mean:.4f}"
            f"/{estimate.distinct_traces_mean:.1f}"
        )
    announce(4, "replicate-size panel", ok, "; ".join(details))


def test_criterion_05_generation_panel(cells, announce):
    low = cells(10000, 1000, seed=7)
    high = cells(10000, 10000, seed=7)
    spread = abs(high.precision_mean - low.precision_mean)
    ok = (
        abs(low.precision_mean - 0.880) <= 0.01
        and abs(high.precision_mean - 0.881) <= 0.01
        and spread < 0.005
    )
    announce(
        5,
        "generation-count panel",
        ok,
        f"g=1000: {low.precision_mean:.4f}; g=10000: {high.precision_mean:.4f}; "
        f"spread={spread:.4f}",
    )


def test_criterion_06_crossover_worked_examples(announce):
    started = time.perf_counter()
    parent = Trace(tuple("abbbcf"))
    first = crossover(parent, 2, parent, 3, 2)
    second = crossover(parent, 3, parent, 2, 2)
    sites = breeding_sites(Trace(tuple("adeef")), Trace(tuple("adefabcfadef")), 2)
    elapsed = time.perf_counter() - started
    ok = (
        first == Trace(tuple("abbcf"))
        and second == Trace(tuple("abbbbcf"))
        and [(s.p1, s.p2) for s in sites]
        == [(1, 1), (1, 9), (2, 2), (2, 10), (4, 3), (4, 11)]
        and elapsed < 1.0
    )
    announce(
        6,
        "crossover worked examples",
        ok,
        f"offspring={first}, {second}; sites={len(sites)}",
    )


def test_criterion_07_bred_replicates_fit_stable_models(announce):
    rng = np.random.default_rng(20260817)
    started = time.perf_counter()
    graphs = 0
    traces_checked = 0
    ok = True
    attempts = 0
    while graphs < 200 and attempts < 240:
        attempts += 1
        graph = helpers.random_dfg(rng, max_actions=12)
        dfa = dfg_to_dfa(graph)
        try:
            log = simulate_log(graph, WalkConfig(trace_count=25, max_length=40), rng)
        except RetryExhausted:
            continue
        graphs += 1
        cfg = SamplerConfig(n=25, g=3, k=1, p=1.0)
        replicate = sample_with_breeding(log, 25, cfg, rng)
        for trace in replicate.support:
            traces_checked += 1
            ok = ok and accepts(dfa, trace)
    elapsed = time.perf_counter() - started
    ok = ok and graphs >= 200 and elapsed < 60.0
    announce(
        7,
        "bred replicates stay inside stable languages",
        ok,
        f"graphs={graphs} traces={traces_checked} {elapsed:.1f}s",
    )


def test_criterion_08_entropy_oracle_and_monotonicity(announce):
    rng = np.random.default_rng(8)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dfa = helpers.random_dfa(rng, max_states=20)
        deviation = abs(topological_entropy(dfa).value - growth_oracle(dfa, 200))
        worst = max(worst, deviation)
    mono_ok = True
    for _ in range(100):
        parent, child = helpers.nested_pair(rng, max_states=20)
        mono_ok = mono_ok and (
            topological_entropy(child).value
            <= topological_entropy(parent).value + 1e-9
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 0.05 and mono_ok and elapsed < 60.0
    announce(
        8,
        "entropy oracle agreement and inclusion monotonicity",
        ok,
        f"worst deviation={worst:.4f} {elapsed:.1f}s",
    )


def test_criterion_09_intersection_brute_force(announce):
    rng = np.random.default_rng(9)
    alphabet = ("x", "y", "z")
    words = [Trace(w) for w in helpers.all_words(alphabet, 8)]
    started = time.perf_counter()
    ok = True
    pairs = 0
    for _ in range(50):
        a = helpers.random_dfa(rng, max_states=8, alphabet=alphabet)
        b = helpers.random_dfa(rng, max_states=8, alphabet=alphabet)
        product = intersect(a, b)
        pairs += 1
        for word in words:
            expected = accepts(a, word) and accepts(b, word)
            if accepts(product, word) != expected:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and pairs >= 50 and elapsed < 60.0
    announce(
        9,
        "intersection agrees with brute force on all short words",
        ok,
        f"pairs={pairs} words={len(words)} {elapsed:.1f}s",
    )


def test_criterion_10_reports_are_identical_across_worker_counts(
    tmp_path, announce
):
    first = tmp_path / "workers1.txt"
    second = tmp_path / "workers8.txt"
    base = ["reproduce_table1", "--seed", "42", "-m", "10"]
    code1 = main([*base, "--workers", "1", "--out", str(first)])
    code2 = main([*base, "--workers", "8", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical and first.stat().st_size > 0
    announce(
        10,
        "benchmark reports are byte-identical across worker counts",
        ok,
        f"bytes={first.stat().st_size} identical={identical}",
    )
