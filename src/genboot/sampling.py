"""Log sampling methods: with-replacement resampling and crossover breeding.

Breeding recombines pairs of traces at *breeding sites* — positions where
both traces share a length-k subtrace — splicing the prefix of one onto the
suffix of the other.  Iterating breeding passes over a log grows a pool of
plausible unseen behavior from which replicates are drawn.

All randomness flows through an explicit numpy Generator.  Each breeding
pass consumes, in order: the first-parent indices, the second-parent
indices, the breeding gates, and the site selectors, each as one vectorized
draw (gates and selectors are read from one draw of twice the length, which
yields the same numbers); replicate outputs are therefore a pure function
of the inputs and the generator state.  Multisets enumerate their traces in
canonical sorted order wherever an index is mapped to a trace, which keeps
every path (single pass, generational sampler, resampler) bit-for-bit
consistent with the others.

The breeding engine is int-coded: each distinct trace is interned once, as
its action tuple, under an integer id, and crossover splices the tuples.  A
bred pair's sites are counted from a k-gram index of its two traces, and a
site's offspring are bred, and interned, only when a draw first selects
that site.  A rank array over the ids holds the canonical order; newly
interned traces are inserted into it by bisection, and nothing is sorted by
trace per pass.  The engine breeds a block of replicates in lockstep: each
replicate keeps its own generator and draws exactly what it would draw
alone, then a gather and a row sort move the whole block a generation
forward, and the block's generations are pooled as dense counts, one row
per replicate and one column per interned trace.  Ids reach a draw only
through the canonical order, so a replicate's output depends neither on the
order in which traces are interned nor on which replicates share its block.

The engine draws a replicate as the ids it hit, in canonical order, with
their counts.  No ``Trace`` is built (nor its actions validated) until a
public sampler turns those ids into an ``EventLog``; the bootstrap
estimator measures the ids and never builds one.  Run for zero
generations, the engine draws exactly what ``sample_with_replacement``
draws, so plain resampling is its g=0 case.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

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
    length; p: probability of breeding a drawn pair.
    """

    n: int
    g: int = 0
    k: int = 1
    p: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if self.g < 0:
            raise ValueError(f"generation count must be >= 0, got {self.g}")
        if self.k < 1:
            raise ValueError(f"subtrace length must be >= 1, got {self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"breeding probability must be in [0, 1], got {self.p}")


def sample_with_replacement(l: EventLog, n: int, rng: np.random.Generator) -> EventLog:
    """A log of exactly ``n`` traces drawn with replacement from ``l``."""
    if l.size == 0:
        raise EmptyLog("cannot sample from an empty log")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    draws = rng.integers(0, l.size, n)
    cumulative = np.cumsum([c for _, c in l.entries])
    entry_idx = np.searchsorted(cumulative, draws, side="right")
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
    a1, starts = t1.actions, _kgram_starts(t2.actions, k)
    return [
        BreedingSite(i + 1, j + 1)
        for i in range(len(a1) - k + 1)
        for j in starts.get(a1[i : i + k], ())
    ]


def _kgram_starts(actions: tuple, k: int) -> dict[tuple, list[int]]:
    """The 0-indexed starts of each length-``k`` window of an action tuple,
    ascending, keyed by the window."""
    starts: dict[tuple, list[int]] = {}
    for j in range(len(actions) - k + 1):
        starts.setdefault(actions[j : j + k], []).append(j)
    return starts


def crossover(t1: Trace, p1: int, t2: Trace, p2: int, k: int) -> Trace:
    """Splice the two traces at a breeding site: the first ``p1 + k - 1``
    actions of ``t1`` followed by the actions of ``t2`` from position
    ``p2 + k`` on."""
    if subtrace(t1, p1, k) != subtrace(t2, p2, k):
        raise InvalidSite(
            f"positions ({p1}, {p2}) do not align a shared length-{k} subtrace"
        )
    return prefix(t1, p1 + k - 1) + suffix(t2, p2 + k)


# Sorts after every pair key (first id << 32 | second id, with ids far below
# 2**31); it ends the key array, so every lookup lands on a valid position.
_END = np.iinfo(np.int64).max
# Marks a site slot whose offspring have not been bred yet; ids are >= 0.
_UNBRED = -1


class _BreedingEngine:
    """Breeds replicates of one base log, int-coded and in lockstep.

    ``table`` holds the interned traces as action tuples, and ``kid_cache``
    maps every (first id, second id) pair that passed the p gate to its
    number of breeding sites.  A pair's sites are counted, not listed, from
    the k-gram index of its two traces (each window's start positions,
    built once per trace on its first pairing): the sum, over the windows
    they share, of the occurrences in one times those in the other.  The
    offspring sit in flat arrays: per sorted pair key a count and an offset
    into the columns of ``_kids``, one slot (a column of first and second
    child) per site, where a pair without sites is stored as its own
    parents.  A slot is bred, and its two children interned, only when a
    draw first selects it, so the table holds the base log and the
    offspring actually drawn.  Memory grows with the traces interned and
    the sites of the pairs bred (the slot buffer doubles when full), and a
    block's pool holds one count per replicate and interned trace.  Only a
    breeding pass expands the base log into its occurrences, so plain
    resampling (g=0) holds nothing that grows with the log's multiplicity.
    """

    def __init__(self, base: EventLog, k: int, p: float):
        if base.size == 0:
            raise EmptyLog("cannot breed from an empty log")
        self.k = k
        self.p = p
        self.table: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.base_counter = self.intern_log(base)
        self.iters = (base.size + 1) // 2
        # (id1, id2) -> number of breeding sites
        self.kid_cache: dict[tuple[int, int], int] = {}
        # id -> the starts of each of its k-grams, built on its first pairing
        self._kgrams: dict[int, dict[tuple, list[int]]] = {}
        self._keys = np.array([_END], dtype=np.int64)
        self._count = np.zeros(1, dtype=np.int64)
        self._offset = np.zeros(1, dtype=np.int64)
        # the slots, in a buffer that doubles when full, and how many are used
        self._kids = np.empty((2, 0), dtype=np.int64)
        self._slots = 0
        self._by_rank = np.empty(0, dtype=np.int64)

    def intern(self, actions: tuple) -> int:
        got = self.index.get(actions)
        if got is None:
            got = len(self.table)
            self.index[actions] = got
            self.table.append(actions)
        return got

    def intern_log(self, l: EventLog) -> dict[int, int]:
        return {self.intern(t.actions): c for t, c in l.entries}

    def log_of(self, ids, counts) -> EventLog:
        """The log holding each interned trace ``ids[j]`` ``counts[j]`` times."""
        return EventLog.from_counts({Trace(self.table[i]): c for i, c in zip(ids, counts)})

    def _ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical rank of every interned id, and the ids by rank."""
        if self._by_rank.size < len(self.table):
            table = self.table
            fresh = sorted(range(self._by_rank.size, len(table)), key=table.__getitem__)
            at = [bisect_left(self._by_rank, table[i], key=table.__getitem__) for i in fresh]
            self._by_rank = np.insert(self._by_rank, at, fresh)
            self._rank = np.empty_like(self._by_rank)
            self._rank[self._by_rank] = np.arange(self._by_rank.size)
        return self._rank, self._by_rank

    @cached_property
    def base_expand(self) -> np.ndarray:  # built on the first breeding pass
        return self._expand(self.base_counter)

    def _expand(self, counter: dict[int, int]) -> np.ndarray:
        """The occurrences of an id multiset, in canonical trace order."""
        rank, _ = self._ranks()
        ids = np.fromiter(counter, dtype=np.int64, count=len(counter))
        ids = ids[np.argsort(rank[ids])]
        return np.repeat(ids, [counter[i] for i in ids.tolist()])

    def _kgram_index(self, i: int) -> dict[tuple, list[int]]:
        """The k-gram starts of trace i, built on its first use."""
        got = self._kgrams.get(i)
        if got is None:
            got = self._kgrams[i] = _kgram_starts(self.table[i], self.k)
        return got

    def _site_count(self, a: int, b: int) -> int:
        """``len(breeding_sites)`` of the pair (a, b), from the k-gram index."""
        grams_a, grams_b = self._kgram_index(a), self._kgram_index(b)
        if len(grams_a) > len(grams_b):
            grams_a, grams_b = grams_b, grams_a
        return sum(len(at) * len(grams_b.get(w, ())) for w, at in grams_a.items())

    def _nth_site(self, a: int, b: int, s: int) -> tuple[int, int]:
        """The 0-indexed starts (i, j) of the s-th site of the pair (a, b) in
        ``breeding_sites`` order: walk a's windows, skipping each one's
        occurrences in b, then take one occurrence in b."""
        t1, starts, k = self.table[a], self._kgram_index(b), self.k
        for i in range(len(t1) - k + 1):
            at = starts.get(t1[i : i + k], ())
            if s < len(at):
                return i, at[s]
            s -= len(at)
        raise IndexError("site number out of range")

    def _children(self, a: int, b: int, s: int) -> tuple[int, int]:
        """The ids of the two offspring of the pair (a, b) at its s-th site."""
        i, j = self._nth_site(a, b, s)
        t1, t2, k = self.table[a], self.table[b], self.k
        return self.intern(t1[: i + k] + t2[j + k :]), self.intern(t2[: j + k] + t1[i + k :])

    def _add_pairs(self, keys: np.ndarray) -> None:
        """Count the sites of each (sorted, new) pair key and merge it into
        the table with unbred slots; a pair without sites gets one slot
        holding its parents."""
        firsts, seconds = keys >> 32, keys & 0xFFFFFFFF
        pairs = list(zip(firsts.tolist(), seconds.tolist()))
        sites = np.array([self._site_count(a, b) for a, b in pairs], dtype=np.int64)
        self.kid_cache.update(zip(pairs, sites.tolist()))
        counts = np.maximum(sites, 1)
        offsets = self._slots + np.cumsum(counts) - counts
        used, self._slots = self._slots, self._slots + int(counts.sum())
        if self._slots > self._kids.shape[1]:
            grown = np.empty((2, max(self._slots, 2 * self._kids.shape[1])), dtype=np.int64)
            grown[:, :used] = self._kids[:, :used]
            self._kids = grown
        self._kids[:, used : self._slots] = _UNBRED
        barren = sites == 0
        self._kids[:, offsets[barren]] = firsts[barren], seconds[barren]
        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._count = np.insert(self._count, at, counts)
        self._offset = np.insert(self._offset, at, offsets)

    def _breed_slots(self, site: np.ndarray, pos: np.ndarray) -> None:
        """Breed the unbred slots ``site`` of the pairs at positions ``pos``."""
        kids, keys, offsets = self._kids, self._keys, self._offset
        for slot, at in zip(site.tolist(), pos.tolist()):
            if kids[0, slot] == _UNBRED:  # a slot drawn twice is bred once
                key, nth = int(keys[at]), slot - int(offsets[at])
                kids[:, slot] = self._children(key >> 32, key & 0xFFFFFFFF, nth)

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Positions of pair keys in the table, breeding the missing pairs."""
        pos = self._keys.searchsorted(keys)
        missing = self._keys[pos] != keys
        if missing.any():
            # sorted distinct keys; a plain np.unique (numpy 2.4) hashes
            # before it sorts and imports numpy.ma on its first call
            fresh = np.sort(keys[missing])
            self._add_pairs(fresh[np.append(True, fresh[1:] != fresh[:-1])])
            pos = self._keys.searchsorted(keys)
        return pos

    def _generation(self, cur: np.ndarray, rngs) -> np.ndarray:
        """One breeding pass of every replicate in the block.

        Row r of ``cur`` is the canonical expansion of replicate r's current
        generation, bred against the base log with ``rngs[r]``.  Returns the
        offspring as ``kids[0, r]`` and ``kids[1, r]``: the first and the
        second child of each of replicate r's pairs.
        """
        iters = self.iters
        kids = np.empty((2, len(rngs), iters), dtype=np.int64)
        uniform = np.empty((len(rngs), 2, iters))
        for r, rng in enumerate(rngs):
            kids[0, r] = rng.integers(0, self.base_expand.size, iters)
            kids[1, r] = cur[r][rng.integers(0, cur.shape[1], iters)]
            rng.random(out=uniform[r])  # the gates, then the site selectors
        kids[0] = self.base_expand[kids[0]]
        pairs = kids.reshape(2, -1)
        first, second = pairs
        selects = uniform[:, 1].ravel()
        if self.p >= 1.0:
            bred = slice(None)
        else:
            bred = np.flatnonzero(uniform[:, 0].ravel() < self.p)
        pos = self._lookup((first[bred] << 32) | second[bred])
        site = self._offset[pos] + (selects[bred] * self._count[pos]).astype(np.int64)
        got = self._kids.take(site, axis=1)
        # the one check per generation: ids are >= 0, so the least drawn
        # child is _UNBRED exactly when some drawn slot is unbred
        if np.minimum.reduce(got, axis=None, initial=0) == _UNBRED:
            unbred = np.flatnonzero(got[0] == _UNBRED)
            self._breed_slots(site[unbred], pos[unbred])
            got = self._kids.take(site, axis=1)
        pairs[:, bred] = got
        return kids

    def breed_pass(self, cur: dict[int, int], rng: np.random.Generator) -> dict[int, int]:
        """One breeding pass: first parents from the base log, second parents
        from ``cur``; returns the offspring multiset of size 2 * iters."""
        cur_expand = self._expand(cur)
        if cur_expand.size == 0:
            raise EmptyLog("cannot breed against an empty log")
        ids, counts = np.unique(self._generation(cur_expand[None, :], [rng]), return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def sample(self, n: int, g: int, rngs) -> list[tuple[np.ndarray, np.ndarray]]:
        """One replicate per generator: ``g`` generations bred in lockstep,
        pooled with the base log, then ``n`` traces drawn with replacement;
        at ``g=0`` that is plain resampling of the base log.  A replicate is
        the ids it hit, in canonical order, and how often it hit each.

        The pool is dense, one row of counts per replicate over the interned
        ids, and doubles in width whenever the table outgrows it."""
        pool = np.zeros((len(rngs), len(self.table)), dtype=np.int64)
        pool[:, list(self.base_counter)] = list(self.base_counter.values())
        replicates = np.arange(len(rngs))[:, None]
        if g:  # plain resampling never expands the base log
            cur = np.tile(self.base_expand, (len(rngs), 1))
        for _ in range(g):
            kids = self._generation(cur, rngs)
            if pool.shape[1] < len(self.table):
                grow = max(len(self.table) - pool.shape[1], pool.shape[1])
                pool = np.pad(pool, ((0, 0), (0, grow)))
            np.add.at(pool, (replicates, kids), 1)
            rank, by_rank = self._ranks()
            ranks = rank[kids.transpose(1, 0, 2)].reshape(len(rngs), -1)
            ranks.sort(axis=1)
            cur = by_rank[ranks]
        return [self._draw(row, n, rng) for row, rng in zip(pool, rngs)]

    def _draw(
        self, row: np.ndarray, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``n`` occurrences with replacement from counts over ids;
        returns the ids hit, in canonical order, and their hit counts."""
        _, by_rank = self._ranks()
        ids = by_rank[row[by_rank] != 0]
        cum = np.cumsum(row[ids])
        draws = rng.integers(0, int(cum[-1]), n)
        hits = np.bincount(np.searchsorted(cum, draws, side="right"), minlength=ids.size)
        drawn = hits != 0
        return ids[drawn], hits[drawn]


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
    return engine.log_of(nxt, nxt.values())


def sample_with_breeding(
    l: EventLog, n: int, cfg: SamplerConfig, rng: np.random.Generator
) -> EventLog:
    """A replicate of ``n`` traces drawn from the breeding pool of ``l``.

    Generation 0 is the log itself; each further generation breeds the
    original log against the previous generation (cfg.g passes total, with
    cfg.k and cfg.p).  The replicate is a with-replacement sample from the
    multiset union of all generations.
    """
    return sample_block_with_breeding(l, n, cfg, [rng])[0]


def sample_block_with_breeding(
    l: EventLog, n: int, cfg: SamplerConfig, rngs: list[np.random.Generator]
) -> list[EventLog]:
    """One ``sample_with_breeding`` replicate per generator, bred in
    lockstep; replicate r equals ``sample_with_breeding(l, n, cfg, rngs[r])``."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    engine = _BreedingEngine(l, cfg.k, cfg.p)
    replicates = engine.sample(n, cfg.g, rngs)
    return [engine.log_of(ids.tolist(), hits.tolist()) for ids, hits in replicates]
