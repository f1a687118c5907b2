"""Bootstrap estimation of generalization for a discovered model.

The estimator repeatedly resamples the observed log into replicates and
measures precision and recall of the model against each replicate's trace
language.  Both log sampling methods run through the breeding engine of
``sampling``: plain resampling is breeding for zero generations.  A
replicate comes back id-coded, as the ids of the distinct traces it hit,
and a finite language is measured from the lengths of its distinct traces
and the model's verdict on each (see ``entropy``), against the model's
growth rate, computed once per estimate.  So no ``Trace`` or ``EventLog``
is built per replicate: a task judges each distinct action tuple once, and
a replicate's measures index the task's length and verdict arrays by its
ids.  Replicate measures are then aggregated into means with 95%
confidence intervals.

Replicate seeds are spawned from a single master seed.  The replicates are
split into ``min(workers, m)`` contiguous blocks, one task each, run on at
most ``os.cpu_count()`` processes.  A task
samples its block in lockstep batches of at most ``_LOCKSTEP`` replicates,
one engine per batch (see ``sampling``), and measures each batch one
replicate at a time.  A replicate's result depends only on its own seed,
never on the block or batch it shares, so a run with ``workers=8`` is
bit-for-bit identical to the same run with ``workers=1``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .automata import Dfa, accepts, minimize
from .core import EventLog
from .entropy import _finite_measures, _growth_rate
from .errors import EmptyData, EmptyLanguage, EmptyLog, GenbootError, WorkerDied
from .sampling import SamplerConfig, _BreedingEngine

_SAMPLERS = ("replacement", "breeding")


@dataclass(frozen=True)
class EstimatorSpec:
    """What to estimate and how to resample.

    ``lsm`` picks the log sampling method: ``"replacement"`` draws each
    replicate trace independently from the observed log, ``"breeding"``
    first grows a pool of crossover offspring (see ``sample_with_breeding``)
    and draws from that.
    """

    lsm: str
    cfg: SamplerConfig
    m: int

    def __post_init__(self):
        if self.lsm not in _SAMPLERS:
            raise ValueError(f"unknown log sampling method {self.lsm!r}")
        if self.m < 1:
            raise ValueError("m must be at least 1")


@dataclass(frozen=True)
class GeneralizationEstimate:
    """Aggregated bootstrap estimate.

    ``per_replicate`` keeps the raw ``(precision, recall, distinct_traces)``
    triple of every replicate, in replicate order, so callers can compute
    further statistics without re-running the estimator.
    """

    precision_mean: float
    recall_mean: float
    precision_ci95: float
    recall_ci95: float
    precision_var: float
    recall_var: float
    distinct_traces_mean: float
    distinct_traces_ci95: float
    replicates: int
    per_replicate: tuple = field(repr=False)


def aggregate(data, method: str = "normal"):
    """Reduce a sequence of replicate values to (mean, ci95, variance).

    ``method="normal"`` returns the half-width ``1.96 * sqrt(var / len)``
    of a normal-approximation 95% interval, using the unbiased sample
    variance (zero for a single value).  ``method="percentile"`` instead
    returns half the spread between the 2.5th and 97.5th percentiles.
    """
    values = [float(x) for x in data]
    if not values:
        raise EmptyData("cannot aggregate an empty sequence of replicate values")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    if method == "normal":
        ci95 = 1.96 * math.sqrt(var / n)
    elif method == "percentile":
        lo, hi = np.quantile(values, [0.025, 0.975])
        ci95 = float(hi - lo) / 2.0
    else:
        raise ValueError(f"unknown aggregation method {method!r}")
    return mean, ci95, var


# Most replicates that one engine breeds in lockstep.  Lockstep pays where
# replicates breed the same traces and pairs (on the bundled log, blocks of
# two already take most of the gain), but an engine keeps every trace its
# replicates intern, so where they share few its memory grows with the
# batch.  A task breeds and measures its block in batches of this many.
_LOCKSTEP = 4


def _block_task(args):
    """Measure a block of replicates; runs in the calling or a worker process."""
    start, seeds, log, cfg, g, model_core, rho_model = args
    verdicts: dict = {}  # action tuple -> whether the model accepts it
    rows = []
    for lo in range(0, len(seeds), _LOCKSTEP):
        engine = _BreedingEngine(log, cfg.k, cfg.p)
        rngs = [default_rng(seed) for seed in seeds[lo : lo + _LOCKSTEP]]
        replicates = engine.sample(cfg.n, g, rngs)
        # per interned id, filled for the ids the batch's replicates hit
        lengths = np.zeros(len(engine.table), dtype=np.intp)
        verdict = np.zeros(len(engine.table), dtype=bool)
        for i in set().union(*(ids.tolist() for ids, _ in replicates)):
            word = engine.table[i]
            if word not in verdicts:
                verdicts[word] = accepts(model_core, word)
            lengths[i], verdict[i] = len(word), verdicts[word]
        for offset, (ids, _) in enumerate(replicates, start + lo):
            try:
                precision, recall = _finite_measures(rho_model, lengths[ids], verdict[ids])
            except GenbootError as exc:
                raise type(exc)(f"replicate {offset}: {exc}") from exc
            rows.append((precision, recall, ids.size))
    return rows


def bootstrap_generalization(
    model: Dfa,
    log: EventLog,
    spec: EstimatorSpec,
    seed=None,
    *,
    workers: int = 1,
    ci_method: str = "normal",
) -> GeneralizationEstimate:
    """Estimate generalization of ``model`` against replicates of ``log``.

    ``model`` is the automaton of the discovered model (as produced by
    ``dfg_to_dfa``).  For each of ``spec.m`` replicates, drawn by the
    configured sampling method, the model's precision and recall against
    the replicate's trace language and its number of distinct traces are
    recorded; the triple lists are aggregated with :func:`aggregate`.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; when omitted,
    the run is seeded from OS entropy.  Replicates are independent; split into
    ``min(workers, spec.m)`` blocks, they may be spread over as many
    processes as there are blocks and CPUs without changing the result.
    """
    if log.size == 0:
        raise EmptyLog("cannot bootstrap from an empty log")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    model_core = minimize(model)
    if model_core.is_empty:
        raise EmptyLanguage("the model accepts no trace")
    rho_model, _ = _growth_rate(model_core)

    if isinstance(seed, SeedSequence):
        sequence = seed
    else:
        sequence = SeedSequence(seed)
    children = sequence.spawn(spec.m)
    blocks = min(workers, spec.m)
    bounds = [spec.m * b // blocks for b in range(blocks + 1)]
    # plain resampling is breeding for zero generations
    g = spec.cfg.g if spec.lsm == "breeding" else 0
    tasks = [
        (lo, children[lo:hi], log, spec.cfg, g, model_core, rho_model)
        for lo, hi in zip(bounds, bounds[1:])
    ]

    if len(tasks) == 1:
        raw = _block_task(tasks[0])
    else:
        try:
            with ProcessPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1)) as pool:
                raw = [row for rows in pool.map(_block_task, tasks) for row in rows]
        except BrokenProcessPool as exc:
            cfg = spec.cfg
            raise WorkerDied(
                f"cell lsm={spec.lsm} n={cfg.n} g={cfg.g} k={cfg.k} p={cfg.p} "
                f"m={spec.m}: a worker process died ({exc})"
            ) from exc

    per_replicate = tuple(raw)
    precisions, recalls, distinct = zip(*per_replicate)
    p_mean, p_ci, p_var = aggregate(precisions, ci_method)
    r_mean, r_ci, r_var = aggregate(recalls, ci_method)
    d_mean, d_ci, _ = aggregate(distinct, ci_method)
    return GeneralizationEstimate(
        precision_mean=p_mean,
        recall_mean=r_mean,
        precision_ci95=p_ci,
        recall_ci95=r_ci,
        precision_var=p_var,
        recall_var=r_var,
        distinct_traces_mean=d_mean,
        distinct_traces_ci95=d_ci,
        replicates=spec.m,
        per_replicate=per_replicate,
    )
