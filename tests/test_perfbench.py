"""The benchmark's scripts run against the library.

``perfbench/round.py`` wraps module attributes of ``genboot`` by name and
replays each replicate through library calls, and ``perfbench/figures.py``
reads the internal breeding engine, so renaming or deleting one of them
breaks the benchmark without failing any other test.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

from genboot.discovery_sim import WalkConfig, simulate_log
from genboot.sampling import SamplerConfig, log_breeding

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_script(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("lsm", ["breeding", "replacement"])
def test_traced_replay(lsm, model_dfa, system_dfg):
    bench = load_script("round")
    tracer = bench.Tracer()
    walk = WalkConfig(trace_count=20, max_length=30)
    log = simulate_log(system_dfg, walk, np.random.default_rng(1))
    cfg = SamplerConfig(n=20, g=2, k=2, p=1.0)
    with bench.instrument(tracer, bench._cli_targets()):
        bench._replay(tracer, log, model_dfa, lsm, cfg, np.random.SeedSequence(1), 2)
    names = {span[0] for span in tracer.spans}
    sampled = "sampling.breed" if lsm == "breeding" else "sampling.draw"
    assert {
        "bootstrap.replay", sampled, "automata.minimize", "automata.pta",
        "automata.intersect", "entropy.radius",
    } <= names
    assert len(tracer.counts["sampling.replicate_distinct"]) == 2
    assert tracer.counts["automata.minimal_states"] == [7]


def test_cache_growth_reads_the_breeding_engine(observed_log):
    figures = load_script("figures")
    assert figures.cache_growth(observed_log, 2, 1.0, [1, 5], 1) == [
        {"g": 1, "interned": 11, "pairs_drawn": 33, "cache_misses": 19, "hit_rate": 0.4242},
        {"g": 5, "interned": 16, "pairs_drawn": 165, "cache_misses": 36, "hit_rate": 0.7818},
    ]
    # only offspring bred at a drawn site are interned, so "interned" counts
    # the distinct traces of the log and of the generations bred so far
    rng = np.random.default_rng(1)
    seen, cur, distinct = set(observed_log.support), observed_log, []
    for _ in range(5):
        cur = log_breeding(observed_log, cur, 2, 1.0, rng)
        seen |= set(cur.support)
        distinct.append(len(seen))
    assert (distinct[0], distinct[4]) == (11, 16)
