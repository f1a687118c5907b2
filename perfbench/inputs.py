"""Seeded benchmark inputs: random walks over the arcs of a directly-follows
graph, written in genboot's log format.

The walk is the benchmark's own code, not ``genboot.simulate_log``, so a
change to the program's simulator cannot change the inputs of any workload.
"""

from __future__ import annotations

import numpy as np

INPUT_MARKER = "i"
OUTPUT_MARKER = "o"

# uniforms drawn from the generator at once; the walk consumes them in order
_BLOCK = 1 << 16
# Longest walk kept; a longer one is dropped and walked again.  Walk lengths
# have a geometric tail (about 1 walk in 5,000 exceeds 60 actions), so
# without the cap the longest trace of a 40k-trace log ranges from 64 to
# over 100 with the seed.  Minimization costs refinement rounds times
# prefix-tree states, and the rare long traces add to both; with the cap the
# longest trace of a 40k-trace log is 56 to 60 actions.
MAX_WALK = 60


def read_arcs(path) -> dict[str, list[str]]:
    """Sorted successor lists of the ``edge`` records of a graph file."""
    succ: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if fields and fields[0] == "edge":
                succ.setdefault(fields[1], []).append(fields[2])
    return {node: sorted(targets) for node, targets in succ.items()}


def walk_log(succ: dict[str, list[str]], traces: int, seed) -> dict[tuple, int]:
    """``traces`` walks from the input to the output marker, each step taken
    uniformly among the current node's arcs and each of at most ``MAX_WALK``
    actions; returns trace -> count.  ``seed`` is anything
    ``numpy.random.default_rng`` accepts."""
    rng = np.random.default_rng(seed)
    uniforms = rng.random(_BLOCK)
    used = 0
    counts: dict[tuple, int] = {}
    kept = 0
    while kept < traces:
        node = INPUT_MARKER
        walk = []
        while len(walk) <= MAX_WALK:
            if used == _BLOCK:
                uniforms = rng.random(_BLOCK)
                used = 0
            options = succ[node]
            node = options[int(uniforms[used] * len(options))]
            used += 1
            if node == OUTPUT_MARKER:
                break
            walk.append(node)
        if len(walk) > MAX_WALK:
            continue
        key = tuple(walk)
        counts[key] = counts.get(key, 0) + 1
        kept += 1
    return counts


def write_log(counts: dict[tuple, int], path) -> None:
    """One ``<count> <actions>`` line per distinct trace."""
    lines = [
        f"{c} {' '.join(t)}" for t, c in sorted(counts.items(), key=lambda kv: kv[0])
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_log(path) -> dict[tuple, int]:
    """Parse a log file back into trace -> count."""
    counts: dict[tuple, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                key = tuple(fields[1:])
                counts[key] = counts.get(key, 0) + int(fields[0])
    return counts


def make_up(counts: dict[tuple, int]) -> dict:
    """Trace count, distinct traces and longest trace of a log."""
    return {
        "traces": sum(counts.values()),
        "distinct": len(counts),
        "max_length": max(len(t) for t in counts),
    }
