"""Bootstrap estimation of generalization for a discovered model.

The estimator repeatedly resamples the observed log into replicate logs
(plain resampling or resampling with crossover breeding), converts each
replicate into its trace-language acceptor, and measures precision and
recall of the model against that acceptor.  Replicate measures are then
aggregated into means with 95% confidence intervals.

Replicate seeds are spawned from a single master seed, so results do not
depend on the number of worker processes: a run with ``workers=8`` is
bit-for-bit identical to the same run with ``workers=1``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .automata import Dfa, intersect, minimize, prefix_tree_acceptor, strip_terminal
from .core import EventLog
from .entropy import _growth_rate
from .errors import EmptyData, EmptyLanguage, EmptyLog, GenbootError, WorkerDied
from .sampling import SamplerConfig, sample_with_breeding, sample_with_replacement

_MEASURES = ("precision", "recall", "both")
_SAMPLERS = ("replacement", "breeding")


@dataclass(frozen=True)
class EstimatorSpec:
    """What to estimate and how to resample.

    ``lsm`` picks the log sampling method: ``"replacement"`` draws each
    replicate trace independently from the observed log, ``"breeding"``
    first grows a pool of crossover offspring (see ``sample_with_breeding``)
    and draws from that.  ``measure`` only restricts which rows a report
    shows; both measures are always computed, since they share all of the
    expensive work.
    """

    lsm: str
    cfg: SamplerConfig
    m: int
    measure: str = "both"

    def __post_init__(self):
        if self.lsm not in _SAMPLERS:
            raise ValueError(f"unknown log sampling method {self.lsm!r}")
        if self.measure not in _MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
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


def _replicate_task(args):
    """Measure one replicate; runs in the calling or a worker process."""
    index, child_seed, log, lsm, cfg, model_core = args
    try:
        rng = np.random.default_rng(child_seed)
        if lsm == "replacement":
            replicate = sample_with_replacement(log, cfg.n, rng)
        else:
            replicate = sample_with_breeding(log, cfg.n, cfg, rng)
        support = replicate.support
        acceptor = prefix_tree_acceptor(support)
        product = intersect(model_core, acceptor)
        rho_replicate, _ = _growth_rate(acceptor)
        if product.is_empty:
            rho_common = 0.0
        else:
            rho_common, _ = _growth_rate(product)
        return rho_common, rho_replicate, len(support)
    except GenbootError as exc:
        raise type(exc)(f"replicate {index}: {exc}") from exc


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
    ``dfg_to_dfa``).  For each of ``spec.m`` replicates, a fresh log is
    drawn by the configured sampling method and the model's precision and
    recall against the replicate's trace language are recorded; the triple
    lists are aggregated with :func:`aggregate`.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; when omitted,
    ``spec.cfg.seed`` is used, and when that is also None the run is seeded
    from OS entropy.  Replicates are independent and may be spread over
    ``workers`` processes without changing the result.
    """
    if log.size == 0:
        raise EmptyLog("cannot bootstrap from an empty log")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    model_core = minimize(strip_terminal(model))
    if model_core.is_empty:
        raise EmptyLanguage("the model accepts no trace")
    rho_model, _ = _growth_rate(model_core)

    master = seed if seed is not None else spec.cfg.seed
    if isinstance(master, np.random.SeedSequence):
        sequence = master
    else:
        sequence = np.random.SeedSequence(master)
    children = sequence.spawn(spec.m)
    tasks = [
        (i, child, log, spec.lsm, spec.cfg, model_core)
        for i, child in enumerate(children)
    ]

    if workers == 1:
        raw = [_replicate_task(task) for task in tasks]
    else:
        chunk = max(1, spec.m // (workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                raw = list(pool.map(_replicate_task, tasks, chunksize=chunk))
        except BrokenProcessPool as exc:
            cfg = spec.cfg
            raise WorkerDied(
                f"cell lsm={spec.lsm} n={cfg.n} g={cfg.g} k={cfg.k} p={cfg.p} "
                f"m={spec.m}: a worker process died ({exc})"
            ) from exc

    per_replicate = tuple(
        (rho_common / rho_model, rho_common / rho_replicate, distinct)
        for rho_common, rho_replicate, distinct in raw
    )
    precisions = [p for p, _, _ in per_replicate]
    recalls = [r for _, r, _ in per_replicate]
    distinct = [d for _, _, d in per_replicate]
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
