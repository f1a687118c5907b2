"""Model discovery from logs, and log simulation from models.

``discover_dfg`` is a small frequency-filtering discovery algorithm: it
drops the rarest distinct traces of the log and assembles a directly-follows
graph from the survivors.  ``simulate_log`` is its inverse-direction tool,
drawing random input-to-output walks from a graph, with a caller's numpy
Generator, to produce a log.  The pair is what the bootstrap estimator is
typically pointed at: discover a model from one log, then judge how well
it generalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automata import Dfg, INPUT_MARKER, OUTPUT_MARKER, dfg_to_dfa
from .core import EventLog, Trace
from .errors import AllFiltered, EmptyLog, RetryExhausted, Unreachable

#: Give up after this many consecutive discarded walks.
_MAX_CONSECUTIVE_FAILURES = 1000

# floor() on a product of floats can land just below an exact integer
# (e.g. 6 * (1/3) < 2); the nudge keeps such fractions exact.
_FLOOR_NUDGE = 1e-9


@dataclass(frozen=True)
class DiscoveryConfig:
    """``filter_fraction`` of the distinct traces are dropped before building."""

    filter_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.filter_fraction < 1.0:
            raise ValueError("filter_fraction must lie in [0, 1)")


def discover_dfg(log: EventLog, cfg: DiscoveryConfig = DiscoveryConfig()) -> Dfg:
    """Discover a directly-follows graph from ``log``.

    The ``floor(filter_fraction * d)`` least frequent of the ``d`` distinct
    traces are removed first; among equally frequent traces, the
    lexicographically larger one is removed first.  Every surviving trace
    then contributes its directly-follows pairs, weighted by multiplicity:
    node frequencies count action occurrences, arc frequencies count
    directly-follows occurrences, and the input/output markers are credited
    once per surviving trace.
    """
    if log.size == 0:
        raise EmptyLog("cannot discover a model from an empty log")
    entries = sorted(log.entries, key=lambda e: e[0].actions, reverse=True)
    entries.sort(key=lambda e: e[1])  # stable: ties stay lexicographically descending
    removed = int(math.floor(cfg.filter_fraction * len(entries) + _FLOOR_NUDGE))
    survivors = entries[removed:]
    if not survivors:
        raise AllFiltered("filtering removed every distinct trace")

    action_freq: dict = {}
    arc_freq: dict = {}
    kept = 0
    for trace, count in survivors:
        if len(trace) == 0:
            raise ValueError("the empty trace has no directly-follows representation")
        kept += count
        walk = [INPUT_MARKER, *trace, OUTPUT_MARKER]
        for action in trace:
            action_freq[action] = action_freq.get(action, 0) + count
        for src, dst in zip(walk, walk[1:]):
            arc_freq[(src, dst)] = arc_freq.get((src, dst), 0) + count
    action_freq[INPUT_MARKER] = kept
    action_freq[OUTPUT_MARKER] = kept
    return Dfg.from_arcs(arc_freq.keys(), action_freq=action_freq, arc_freq=arc_freq)


@dataclass(frozen=True)
class WalkConfig:
    """How many walks to draw, how long they may get, and how to branch.

    ``weighting="uniform"`` picks the next node uniformly among the current
    node's outgoing arcs; ``"frequency"`` picks proportionally to arc
    frequency.  Walks longer than ``max_length`` actions are discarded and
    redrawn.
    """

    trace_count: int
    max_length: int = 1000
    weighting: str = "uniform"

    def __post_init__(self):
        if self.trace_count < 1:
            raise ValueError("trace_count must be at least 1")
        if self.max_length < 1:
            raise ValueError("max_length must be at least 1")
        if self.weighting not in ("uniform", "frequency"):
            raise ValueError(f"unknown weighting {self.weighting!r}")


def simulate_log(graph: Dfg, cfg: WalkConfig, rng: np.random.Generator) -> EventLog:
    """Draw ``cfg.trace_count`` random input-to-output walks with ``rng``.

    Raises ``Unreachable`` when the graph's acceptor is empty, so no walk
    reaches the output marker, and ``RetryExhausted`` after 1000
    consecutive discarded walks (stuck in a node without outgoing arcs, or
    repeatedly exceeding ``max_length``).
    """
    if dfg_to_dfa(graph).is_empty:
        raise Unreachable("the output marker is unreachable from the input marker")

    adjacency: dict = {}
    for src, dst in graph.arcs:
        adjacency.setdefault(src, []).append(dst)
    for targets in adjacency.values():
        targets.sort()

    weighted = cfg.weighting == "frequency"
    cumulative: dict = {}
    if weighted:
        for node, targets in adjacency.items():
            weights = np.array(
                [graph.arc_freq[(node, t)] for t in targets], dtype=float
            )
            cumulative[node] = np.cumsum(weights)

    traces = []
    failures = 0
    while len(traces) < cfg.trace_count:
        walk: list = []
        node = INPUT_MARKER
        ok = True
        while node != OUTPUT_MARKER:
            targets = adjacency.get(node)
            if not targets:
                ok = False  # dead end; discard the walk
                break
            if weighted:
                cum = cumulative[node]
                total = cum[-1]
                if total <= 0.0:
                    raise ValueError(
                        f"node {node!r} has zero total arc frequency under "
                        "frequency weighting"
                    )
                index = int(np.searchsorted(cum, rng.random() * total, side="right"))
                index = min(index, len(targets) - 1)
            else:
                index = int(rng.integers(len(targets)))
            node = targets[index]
            if node != OUTPUT_MARKER:
                walk.append(node)
                if len(walk) > cfg.max_length:
                    ok = False
                    break
        if ok:
            traces.append(Trace(tuple(walk)))
            failures = 0
        else:
            failures += 1
            if failures >= _MAX_CONSECUTIVE_FAILURES:
                raise RetryExhausted(
                    f"{failures} consecutive walks were discarded; "
                    "check max_length against the graph"
                )
    return EventLog.from_traces(traces)
