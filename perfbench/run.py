"""genboot's benchmark: one workload per invocation, checked and measured.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The seed makes the workload's inputs
(random walks over ``system.dfg``) and the estimators' seeds.  The run
repeats whole rounds of the workload until ``--seconds`` have passed; each
round is a fresh interpreter running ``round.py``, so set-up (interpreter,
``import genboot``, reading the inputs, building the model automaton) is
paid and timed every round, as a user pays it every command.  Every
round's outputs are checked against ``reference.py`` or against properties
the method must have.

With ``--trace 0`` the last line reports the end-to-end metrics: medians
over rounds of set-up time, wall time, operations per second and peak
memory.  With ``--trace 1`` rounds alternate untraced and traced, and the
last line reports the per-layer metrics of the traced rounds plus the
tracing overhead on wall time.  See README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

ROUND_TIMEOUT_S = 150
# set-ups timed on their own at the start of every run, so that set-up time
# is a median of several samples even when a run holds one or two rounds
SETUP_SAMPLES = 5

TABLE1_CELLS = [[100, 10000], [1000, 10000], [10000, 10000], [10000, 100], [10000, 1000]]

# Each workload: why it is in the benchmark, the traces walked from
# system.dfg for each input log (none for table1, which uses the bundled
# observed.log), the number of such logs, and the parameters of one round.
# The cost of breeding_rich follows the make-up of each 200-trace log (mostly
# the spread of its trace lengths), which varies from log to log by about
# 20%; the cost of direct_measures follows its large logs too, since
# minimization makes one pass over the prefix tree per refinement round (16%
# between the quartiles of ten seeds).  So these workloads walk new logs for
# every round ("per_round"): a round breeds four logs, or minimizes two (one
# for measure, one for entropy), and the run's median spans several rounds'
# logs while a few seconds of a busy machine spoil only one round.
# breeding_rich breeds 50 generations rather than 100 so that a run holds
# two or three rounds.  In a traced run each traced round reuses the logs of
# the untraced round before it, so that the tracing overhead compares like
# with like.
WORKLOADS = {
    "table1": {
        "why": "the paper's Table 1 through the CLI on a 2-worker pool; breeding is 99% "
               "of the time and its offspring cache stays warm",
        "walk": 0,
        "params": {"workers": 2, "m": 4, "cells": TABLE1_CELLS},
    },
    "replacement_large": {
        "why": "resampling a 40k-trace walked log; sampling is nearly free and the "
               "acceptor, product and spectral radius do the work",
        "walk": 40000,
        "params": {"workers": 1, "m": 8, "n": 0, "g": 0, "k": 1, "p": 1.0},
    },
    "breeding_rich": {
        "why": "breeding 200-trace walked logs at k=2, p=0.5, g=50; the offspring "
               "cache keeps missing and interned traces keep growing",
        "walk": 200,
        "logs": 4,
        "per_round": True,
        "params": {"workers": 1, "m": 1, "n": 2000, "g": 50, "k": 2, "p": 0.5},
    },
    "direct_measures": {
        "why": "simulate, discover, measure and entropy through the CLI; the only "
               "workload that minimizes a large log and runs discovery",
        "walk": 40000,
        "logs": 2,
        "per_round": True,
        "params": {"workers": 1, "simulate_traces": 5000},
    },
}

# Paper, Table 1: (precision, recall, distinct traces) per cell.
TABLE1_TARGETS = {
    ("n", 100): (0.835, 0.952, 11.9),
    ("n", 1000): (0.863, 0.930, 27.7),
    ("n", 10000): (0.881, 0.919, 56.5),
    ("g", 1000): (0.880, None, None),
}
# A pooled mean may sit this many pooled ci95 half-widths (about 7.8
# standard errors) from the paper's figure, plus half a unit of the figure's
# last printed digit.
TABLE1_CI_MULTIPLE = 4.0
COLUMNS = ("precision", "recall", "distinct")
# The same allowance for the mean distinct count against its expectation.
DISTINCT_CI_MULTIPLE = 4.0
# Printed measures carry six decimals; radii agree far closer than this.
PRINTED_TOLERANCE = 1e-6
# Paper values of the bundled example (model vs system, model vs log).
BUNDLED_MEASURES = {"measure_system": (0.867, 0.867), "measure_observed": (0.791, 0.935)}
BUNDLED_TOLERANCE = 0.002

RUN_SECONDS = 20

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]
PER_LAYER = [
    ("sampling.breed_s", "s", "lower"),
    ("sampling.pairs_per_s", "1/s", "higher"),
    ("sampling.replicate_distinct", "count", "lower"),
    ("sampling.draw_s", "s", "lower"),
    ("automata.pta_s", "s", "lower"),
    ("automata.pta_states", "count", "lower"),
    ("automata.intersect_s", "s", "lower"),
    ("automata.product_states", "count", "lower"),
    ("automata.minimize_s", "s", "lower"),
    ("automata.minimal_states", "count", "lower"),
    ("entropy.radius_s", "s", "lower"),
    ("entropy.power_iterations", "count", "lower"),
    ("entropy.measures_s", "s", "lower"),
    ("bootstrap.estimate_s", "s", "lower"),
    ("bootstrap.self_s", "s", "lower"),
    ("discovery_sim.simulate_s", "s", "lower"),
    ("discovery_sim.discover_s", "s", "lower"),
    ("cli.read_log_s", "s", "lower"),
    ("cli.write_log_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return "unknown"
    for path in sorted(paths, key=lambda p: "numpy" not in p):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# inputs and reference values


def prepare(name: str, seed: int, data: str, work: str, index: int = 0) -> tuple[dict, dict]:
    """Write the input files of the workload's round ``index`` (every round
    shares round 0's files unless the workload walks new logs per round);
    return (file paths, reference values)."""
    files = {
        "model": os.path.join(data, "model.dfg"),
        "system": os.path.join(data, "system.dfg"),
        "observed": os.path.join(data, "observed.log"),
    }
    system_arcs = inputs.read_arcs(files["system"])
    model = reference.graph_acceptor(inputs.read_arcs(files["model"]))
    ref = {"system_arcs": system_arcs}
    spec = WORKLOADS[name]
    if spec["walk"]:
        files["logs"] = []
        ref["make_up"] = []
        walked = []
        logs = spec.get("logs", 1)
        for j in range(index * logs, (index + 1) * logs):
            counts = inputs.walk_log(system_arcs, spec["walk"], [seed, j])
            walked.append(counts)
            files["logs"].append(os.path.join(work, f"walked-{j % logs}.log"))
            inputs.write_log(counts, files["logs"][-1])
            ref["make_up"].append(inputs.make_up(counts))
    else:
        files["logs"] = [files["observed"]]
    if name == "replacement_large":
        acceptor = reference.trace_acceptor(counts)
        ref["log_precision"], _ = reference.measures(model, acceptor)
        ref["expected_distinct"] = reference.expected_distinct(counts, sum(counts.values()))
        ref["make_up"][0]["acceptor_states"] = acceptor.size
    elif name == "breeding_rich":
        ref["system_precision"], _ = reference.measures(
            model, reference.graph_acceptor(system_arcs)
        )
    elif name == "direct_measures":
        ref["log_measures"] = reference.measures(model, reference.trace_acceptor(walked[0]))
        ref["log_entropy"] = reference.entropy(reference.trace_acceptor(walked[1]))
    return files, ref


# ---------------------------------------------------------------------------
# checks


def _parse_table1(report: str) -> dict:
    cells = {}
    panel = None
    for line in report.splitlines():
        if line.startswith("panel a"):
            panel = "n"
        elif line.startswith("panel b"):
            panel = "g"
        fields = line.split("\t")
        if panel and len(fields) == 7 and fields[0].isdigit():
            cells[(panel, int(fields[0]))] = [float(x) for x in fields[1:]]
    return cells


def check_round(name: str, out: dict, ref: dict, pooled: dict, work: str) -> None:
    """Check one round's outputs; collect what the run-level checks pool."""
    outputs = out["outputs"]
    if name == "table1":
        cells = _parse_table1(outputs["report"])
        require(len(cells) == 6, f"table1 report has {len(cells)} rows, not 6")
        for key, (precision, _, recall, _, distinct, _) in cells.items():
            require(0.0 < precision <= 1.0 and 0.0 < recall <= 1.0,
                    f"table1 {key}: precision {precision} or recall {recall} outside (0, 1]")
            require(distinct >= 1.0, f"table1 {key}: {distinct} distinct traces")
            pooled.setdefault(key, []).append(cells[key])
    elif name in ("replacement_large", "breeding_rich"):
        bound_key = "log_precision" if name == "replacement_large" else "system_precision"
        bound = ref[bound_key]
        for precision, recall, distinct in outputs["per_replicate"]:
            require(precision <= bound + PRINTED_TOLERANCE,
                    f"replicate precision {precision} above {bound_key} {bound}")
            require(0.0 < precision and 0.0 < recall <= 1.0,
                    f"replicate precision {precision} or recall {recall} outside (0, 1]")
            pooled.setdefault("distinct", []).append(distinct)
    elif name == "direct_measures":
        for command, (want_p, want_r) in BUNDLED_MEASURES.items():
            p, r = _measure_lines(outputs[command])
            require(abs(p - want_p) <= BUNDLED_TOLERANCE and abs(r - want_r) <= BUNDLED_TOLERANCE,
                    f"{command}: {p}/{r}, paper {want_p}/{want_r}")
        p, r = _measure_lines(outputs["measure_log"])
        want_p, want_r = ref["log_measures"]
        require(abs(p - want_p) <= PRINTED_TOLERANCE and abs(r - want_r) <= PRINTED_TOLERANCE,
                f"measure --log: {p}/{r}, reference {want_p:.9f}/{want_r:.9f}")
        value = float(outputs["entropy_log"].split()[1])
        require(abs(value - ref["log_entropy"]) <= PRINTED_TOLERANCE,
                f"entropy --log: {value}, reference {ref['log_entropy']:.9f}")
        arcs = {(s, t) for s, targets in ref["system_arcs"].items() for t in targets}
        with open(os.path.join(work, "discovered.dfg"), encoding="utf-8") as handle:
            found = {tuple(line.split()[1:3]) for line in handle if line.startswith("edge")}
        require(found and found <= arcs, f"discover found arcs outside system.dfg: {found - arcs}")
        simulated = inputs.read_log(os.path.join(work, "simulated.log"))
        want = WORKLOADS[name]["params"]["simulate_traces"]
        require(sum(simulated.values()) == want,
                f"simulate wrote {sum(simulated.values())} traces")
        for trace in simulated:
            walk = (inputs.INPUT_MARKER, *trace, inputs.OUTPUT_MARKER)
            require(all(b in ref["system_arcs"].get(a, ()) for a, b in zip(walk, walk[1:])),
                    f"simulated trace {trace} is not a walk of system.dfg")


def _measure_lines(text: str) -> tuple[float, float]:
    values = dict(line.split() for line in text.splitlines())
    return float(values["precision"]), float(values["recall"])


def check_run(name: str, ref: dict, pooled: dict) -> None:
    """Checks on the pooled replicates of all rounds of the run."""
    if name == "table1":
        for key, targets in TABLE1_TARGETS.items():
            rows = pooled[key]
            for column, target in enumerate(targets):
                if target is None:
                    continue
                means = [row[2 * column] for row in rows]
                cis = [row[2 * column + 1] for row in rows]
                mean = statistics.fmean(means)
                ci = math.sqrt(sum(c * c for c in cis)) / len(cis)
                half_unit = 0.0005 if target < 1.0 else 0.05
                allowed = TABLE1_CI_MULTIPLE * ci + half_unit
                print(f"check table1 {key[0]}={key[1]} {COLUMNS[column]}: pooled "
                      f"{mean:.4f} ci95 {ci:.4f}, paper {target}, allowed {allowed:.4f}")
                require(abs(mean - target) <= allowed,
                        f"table1 {key} {COLUMNS[column]}: {mean:.4f} is not {target}")
    elif name == "replacement_large":
        values = pooled["distinct"]
        mean = statistics.fmean(values)
        ci = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
        want = ref["expected_distinct"]
        print(f"check mean distinct {mean:.2f} ci95 {ci:.2f}, expected {want:.2f}")
        require(abs(mean - want) <= DISTINCT_CI_MULTIPLE * ci,
                f"mean distinct {mean:.2f} +- {ci:.2f}, expected {want:.2f}")


# ---------------------------------------------------------------------------
# rounds and metrics


def run_round(name: str, seed: int, trace: bool, files: dict, work: str, src: str,
              setup_only: bool = False) -> dict:
    spec = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "setup_only": setup_only,
        "src": src,
        "files": files,
        "work": work,
        "params": WORKLOADS[name]["params"],
    }
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["setup_end"] - launched
    return out


def layer_metrics(out: dict, workers: int) -> dict:
    """Per-layer figures of one traced round, from its spans and counts."""
    spans = out["spans"]
    counts = out["counts"]
    total: dict = {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
    estimates = {i for i, span in enumerate(spans) if span[0] == "bootstrap.estimate"}
    inside = sum(end - start for _, start, end, parent in spans if parent in estimates)
    estimate = total.get("bootstrap.estimate", 0.0)
    breed = total.get("sampling.breed", 0.0)

    def mean(key):
        return statistics.fmean(counts[key]) if counts.get(key) else 0.0

    metrics = {
        "sampling.pairs_per_s": sum(counts.get("sampling.pairs", [])) / breed if breed else 0.0,
        "sampling.replicate_distinct": mean("sampling.replicate_distinct"),
        "automata.pta_states": mean("automata.pta_states"),
        "automata.product_states": mean("automata.product_states"),
        "automata.minimal_states": mean("automata.minimal_states"),
        "entropy.power_iterations": mean("entropy.power_iterations"),
        "bootstrap.self_s": (
            estimate - inside - total.get("bootstrap.replay", 0.0) / workers
            if estimate else 0.0
        ),
    }
    for metric, _, _ in PER_LAYER:
        if metric not in metrics and metric.endswith("_s"):
            metrics[metric] = total.get(metric[: -len("_s")], 0.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    """Prepare, run and check one workload; return the result object."""
    data = os.path.join(src, "genboot", "data")
    work_root = os.path.join(HERE, ".work")
    work = os.path.join(work_root, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        files, ref = prepare(name, seed, data, work)
        if "make_up" in ref:
            print(f"input {json.dumps(ref['make_up'])}")
        per_round = WORKLOADS[name].get("per_round", False)
        setups = [
            run_round(name, 0, False, files, work, src, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
        rounds = []
        pooled: dict = {}
        correct = True
        started = time.monotonic()
        while True:
            index = len(rounds)
            traced = trace and index % 2 == 1
            if per_round and index and not traced:
                files, ref = prepare(name, seed, data, work, index // 2 if trace else index)
                print(f"input {json.dumps(ref['make_up'])}")
            out = run_round(name, seed * 1000 + index, traced, files, work, src)
            out["traced"] = traced
            try:
                check_round(name, out, ref, pooled, work)
            # malformed or missing output fails the check rather than the run
            except (CheckFailed, KeyError, IndexError, ValueError, OSError) as exc:
                correct = False
                print(f"check failed: {exc}")
            rounds.append(out)
            print(f"round {index}{' traced' if traced else ''}: setup_s={out['setup_s']:.4f} "
                  f"wall_s={out['wall_s']:.4f} peak_rss_mb={out['rss_mb']:.1f}")
            enough = index >= 1 if trace else True
            if enough and time.monotonic() - started >= seconds:
                break
        try:
            check_run(name, ref, pooled)
        except CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    print(f"workload {name}: rounds={len(rounds)} attempted={attempted} failed={failed}")

    if trace:
        workers = WORKLOADS[name]["params"]["workers"]
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r, workers) for r in traced]
        values = {m: statistics.median(p[m] for p in per_round) for m in per_round[0]}
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        units = {n: u for n, u, _ in PER_LAYER}
        with open(os.path.join(work_root, f"spans-{name}-{seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump([{"spans": r["spans"], "counts": r["counts"]} for r in traced], handle)
    else:
        done = plain[0]["attempted"] - plain[0]["failed"]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "wall_s": wall,
            "ops_per_s": done / wall,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    for metric, value in values.items():
        print(f"metric {name} {metric} = {value:.6g} {units[metric]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json in the current directory and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open("BENCHMARK.json", "w", encoding="utf-8") as handle:
            json.dump(benchmark_spec(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "genboot", "__init__.py")):
        sys.stderr.write(f"no genboot sources under {src}; run from a checkout's root\n")
        return 2
    facts = machine_facts()
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), src)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
