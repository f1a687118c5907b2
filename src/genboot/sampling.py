"""Log sampling methods: with-replacement resampling and crossover breeding.

Breeding recombines pairs of traces at *breeding sites* — positions where
both traces share a length-k subtrace — splicing the prefix of one onto the
suffix of the other.  Iterating breeding passes over a log grows a pool of
plausible unseen behavior from which replicates are drawn.

All randomness flows through an explicit numpy Generator.  Each breeding
pass consumes, in order: the first-parent indices, the second-parent
indices, the breeding gates, and the site selectors, each as one vectorized
draw; replicate outputs are therefore a pure function of the inputs and the
generator state.  Multisets enumerate their traces in canonical sorted
order wherever an index is mapped to a trace, which keeps every path
(single pass, generational sampler, resampler) bit-for-bit consistent with
the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventLog, Trace, prefix, subtrace, suffix
from .errors import EmptyLog, InvalidSite


@dataclass(frozen=True)
class BreedingSite:
    """A pair of 1-indexed positions at which two traces share a length-k
    subtrace."""

    p1: int
    p2: int


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the breeding sampler.

    n: replicate size; g: number of breeding generations; k: shared-subtrace
    length; p: probability of breeding a drawn pair; seed: master RNG seed
    (None draws fresh OS entropy).
    """

    n: int
    g: int = 0
    k: int = 1
    p: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if self.g < 0:
            raise ValueError(f"generation count must be >= 0, got {self.g}")
        if self.k < 1:
            raise ValueError(f"subtrace length must be >= 1, got {self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"breeding probability must be in [0, 1], got {self.p}")


def rand_trace(l: EventLog, rng: np.random.Generator) -> Trace:
    """One trace drawn uniformly over occurrences (multiplicity-weighted)."""
    if l.size == 0:
        raise EmptyLog("cannot draw from an empty log")
    return l.trace_at(int(rng.integers(l.size)))


def sample_with_replacement(l: EventLog, n: int, rng: np.random.Generator) -> EventLog:
    """A log of exactly ``n`` traces drawn with replacement from ``l``."""
    if l.size == 0:
        raise EmptyLog("cannot sample from an empty log")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    draws = rng.integers(0, l.size, n)
    entry_idx = np.searchsorted(l._cumulative, draws, side="right")
    counts = np.bincount(entry_idx, minlength=len(l.entries))
    return EventLog.from_counts(
        {l.entries[j][0]: int(c) for j, c in enumerate(counts) if c}
    )


def breeding_sites(t1: Trace, t2: Trace, k: int) -> list[BreedingSite]:
    """All position pairs where ``t1`` and ``t2`` share a length-``k``
    subtrace, in nested-loop order (first position major).

    Empty when ``k`` exceeds either trace's length.
    """
    if k < 1:
        raise ValueError(f"subtrace length must be >= 1, got {k}")
    a1 = t1.actions
    a2 = t2.actions
    sites = []
    for p1 in range(1, len(a1) - k + 2):
        window = a1[p1 - 1 : p1 - 1 + k]
        for p2 in range(1, len(a2) - k + 2):
            if a2[p2 - 1 : p2 - 1 + k] == window:
                sites.append(BreedingSite(p1, p2))
    return sites


def crossover(t1: Trace, p1: int, t2: Trace, p2: int, k: int) -> Trace:
    """Splice the two traces at a breeding site: the first ``p1 + k - 1``
    actions of ``t1`` followed by the actions of ``t2`` from position
    ``p2 + k`` on."""
    if subtrace(t1, p1, k) != subtrace(t2, p2, k):
        raise InvalidSite(
            f"positions ({p1}, {p2}) do not align a shared length-{k} subtrace"
        )
    return prefix(t1, p1 + k - 1) + suffix(t2, p2 + k)


class _BreedingEngine:
    """Shared internals of the breeding operations.

    Distinct traces are interned to integer ids; breeding sites and both
    offspring of every parent pair that passes the p gate are computed once
    and cached.
    Multisets of ids stand in for logs, expanded to index arrays in
    canonical trace order when a pass needs to address occurrences.
    """

    def __init__(self, base: EventLog, k: int, p: float):
        if base.size == 0:
            raise EmptyLog("cannot breed from an empty log")
        self.k = k
        self.p = p
        self.table: list[Trace] = []
        self.index: dict[Trace, int] = {}
        self.base_counter = self.intern_log(base)
        self.base_expand = self._expand(self.base_counter)
        self.iters = (base.size + 1) // 2
        # (id1, id2) -> tuple of (child1, child2) id pairs, one per site
        self.kid_cache: dict[tuple[int, int], tuple] = {}

    def intern(self, t: Trace) -> int:
        got = self.index.get(t)
        if got is None:
            got = len(self.table)
            self.index[t] = got
            self.table.append(t)
        return got

    def intern_log(self, l: EventLog) -> dict[int, int]:
        return {self.intern(t): c for t, c in l.entries}

    def to_log(self, counter: dict[int, int]) -> EventLog:
        return EventLog.from_counts({self.table[i]: c for i, c in counter.items()})

    def _sorted_items(self, counter: dict[int, int]) -> list[tuple[int, int]]:
        return sorted(counter.items(), key=lambda kv: self.table[kv[0]].actions)

    def _expand(self, counter: dict[int, int]) -> np.ndarray:
        items = self._sorted_items(counter)
        ids = np.array([i for i, _ in items], dtype=np.int64)
        counts = np.array([c for _, c in items], dtype=np.int64)
        return np.repeat(ids, counts)

    def _kids(self, a: int, b: int) -> tuple:
        key = (a, b)
        cached = self.kid_cache.get(key)
        if cached is None:
            t1 = self.table[a]
            t2 = self.table[b]
            pairs = []
            for site in breeding_sites(t1, t2, self.k):
                c1 = self.intern(crossover(t1, site.p1, t2, site.p2, self.k))
                c2 = self.intern(crossover(t2, site.p2, t1, site.p1, self.k))
                pairs.append((c1, c2))
            cached = tuple(pairs)
            self.kid_cache[key] = cached
        return cached

    def breed_pass(self, cur: dict[int, int], rng: np.random.Generator) -> dict[int, int]:
        """One breeding pass: first parents from the base log, second parents
        from ``cur``; returns the offspring multiset of size 2 * iters."""
        cur_expand = self._expand(cur)
        if cur_expand.size == 0:
            raise EmptyLog("cannot breed against an empty log")
        first = self.base_expand[rng.integers(0, self.base_expand.size, self.iters)]
        second = cur_expand[rng.integers(0, cur_expand.size, self.iters)]
        gates = rng.random(self.iters)
        selects = rng.random(self.iters)
        always = self.p >= 1.0
        nxt: dict[int, int] = {}
        for i in range(self.iters):
            a = int(first[i])
            b = int(second[i])
            kids = self._kids(a, b) if always or gates[i] < self.p else ()
            if kids:
                c1, c2 = kids[int(selects[i] * len(kids))]
            else:
                c1, c2 = a, b
            nxt[c1] = nxt.get(c1, 0) + 1
            nxt[c2] = nxt.get(c2, 0) + 1
        return nxt

    def draw(self, counter: dict[int, int], n: int, rng: np.random.Generator) -> EventLog:
        """Sample ``n`` occurrences with replacement from an id multiset."""
        items = self._sorted_items(counter)
        cum = np.cumsum([c for _, c in items])
        draws = rng.integers(0, int(cum[-1]), n)
        entry_idx = np.searchsorted(cum, draws, side="right")
        counts = np.bincount(entry_idx, minlength=len(items))
        return EventLog.from_counts(
            {self.table[items[j][0]]: int(c) for j, c in enumerate(counts) if c}
        )


def log_breeding(
    l1: EventLog, l2: EventLog, k: int, p: float, rng: np.random.Generator
) -> EventLog:
    """One breeding pass between two logs.

    Repeats ceil(size(l1)/2) times: draw a trace from each log; with
    probability ``p``, if the pair has breeding sites, add both offspring
    bred at one uniformly chosen site; otherwise add the two parents.  The
    output therefore holds exactly 2 * ceil(size(l1)/2) traces.
    """
    if l2.size == 0:
        raise EmptyLog("cannot breed against an empty log")
    engine = _BreedingEngine(l1, k, p)
    nxt = engine.breed_pass(engine.intern_log(l2), rng)
    return engine.to_log(nxt)


def sample_with_breeding(
    l: EventLog, n: int, cfg: SamplerConfig, rng: np.random.Generator
) -> EventLog:
    """A replicate of ``n`` traces drawn from the breeding pool of ``l``.

    Generation 0 is the log itself; each further generation breeds the
    original log against the previous generation (cfg.g passes total, with
    cfg.k and cfg.p).  The replicate is a with-replacement sample from the
    multiset union of all generations.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    engine = _BreedingEngine(l, cfg.k, cfg.p)
    cur = dict(engine.base_counter)
    union = dict(engine.base_counter)
    for _ in range(cfg.g):
        cur = engine.breed_pass(cur, rng)
        for i, c in cur.items():
            union[i] = union.get(i, 0) + c
    return engine.draw(union, n, rng)
