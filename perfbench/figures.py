"""Reference figures quoted in README.md that can only be copied from output.

    python3 perfbench/figures.py [--seed N]

Run from the root of a checkout.  Prints, for the inputs that the given
seed makes: each workload's input make-up and acceptor sizes; how the
breeding offspring cache fills on the bundled log and on a breeding_rich
log; and the times of the first and later spectral-radius calls on the
large log's acceptor, each in a fresh interpreter.  The cache figures read
genboot's internal breeding engine, which no public function reports.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
from run import WORKLOADS  # noqa: E402

# the slow first call does not come every time, so several interpreters
RADIUS_PROCESSES = 4

_RADIUS_CALLS = """
import sys, time
sys.path.insert(0, sys.argv[1])
from genboot import automata, entropy, read_log
acceptor = automata.prefix_tree_acceptor(read_log(sys.argv[2]).support)
for _ in range(6):
    started = time.perf_counter()
    entropy.topological_entropy(acceptor)
    print(f"{time.perf_counter() - started:.4f}", end=" ")
print()
"""


def cache_growth(log, k: int, p: float, generations: list[int], seed: int) -> list[dict]:
    """Interned traces and cached parent pairs after each listed generation."""
    import numpy as np
    from genboot.sampling import _BreedingEngine

    engine = _BreedingEngine(log, k, p)
    rng = np.random.default_rng(seed)
    cur = dict(engine.base_counter)
    rows = []
    for g in range(1, max(generations) + 1):
        cur = engine.breed_pass(cur, rng)
        if g in generations:
            pairs = g * engine.iters
            rows.append({
                "g": g,
                "interned": len(engine.table),
                "pairs_drawn": pairs,
                "cache_misses": len(engine.kid_cache),
                "hit_rate": round(1.0 - len(engine.kid_cache) / pairs, 4),
            })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from genboot import EventLog, Trace, read_log

    data = os.path.join(src, "genboot", "data")
    arcs = inputs.read_arcs(os.path.join(data, "system.dfg"))
    model = reference.graph_acceptor(inputs.read_arcs(os.path.join(data, "model.dfg")))
    large_path = None
    for name, spec in WORKLOADS.items():
        if not spec["walk"]:
            continue
        for j in range(spec.get("logs", 1)):
            counts = inputs.walk_log(arcs, spec["walk"], [args.seed, j])
            acceptor = reference.trace_acceptor(counts)
            row = inputs.make_up(counts)
            row["acceptor_states"] = acceptor.size
            row["product_states"] = reference.product(model, acceptor).size
            print(f"input {name} log {j}: {json.dumps(row)}")
        if spec["walk"] > 1000 and large_path is None:
            large_path = os.path.join(HERE, ".work", f"figures-{os.getpid()}.log")
            os.makedirs(os.path.dirname(large_path), exist_ok=True)
            inputs.write_log(counts, large_path)

    bundled = read_log(os.path.join(data, "observed.log"))
    for row in cache_growth(bundled, 2, 1.0, [100, 1000, 10000], args.seed):
        print(f"cache table1 (observed.log, k=2, p=1): {json.dumps(row)}")
    rich = inputs.walk_log(arcs, WORKLOADS["breeding_rich"]["walk"], [args.seed, 0])
    rich_log = EventLog.from_counts({Trace(t): c for t, c in rich.items()})
    for row in cache_growth(rich_log, 2, 0.5, [10, 100, 300], args.seed):
        print(f"cache breeding_rich (log 0, k=2, p=0.5): {json.dumps(row)}")

    try:
        for _ in range(RADIUS_PROCESSES):
            proc = subprocess.run(
                [sys.executable, "-c", _RADIUS_CALLS, src, large_path],
                capture_output=True, text=True, timeout=170, check=True,
            )
            print(f"radius calls on the large log's acceptor in a fresh interpreter, "
                  f"first to sixth (s): {proc.stdout.strip()}")
    finally:
        os.remove(large_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
