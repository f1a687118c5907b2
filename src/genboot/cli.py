"""The ``genboot`` command line interface; the file formats it reads and
writes are described in ``formats``.

Exit codes: 0 on success, 1 on usage errors, 2 when an input file cannot
be read or parsed, 3 when a domain error occurs (empty language, failed
convergence, a dead worker process, and so on).
"""

from __future__ import annotations

import argparse
import sys
import time

from numpy.random import SeedSequence, default_rng

from .automata import dfg_to_dfa
from .bootstrap import _SAMPLERS, EstimatorSpec, aggregate, bootstrap_generalization
from .discovery_sim import DiscoveryConfig, WalkConfig, discover_dfg, simulate_log
from .entropy import (
    log_entropy,
    log_measures,
    model_system_measures,
    topological_entropy,
)
from .errors import GenbootError, ParseError
from .formats import _format_dfg, _format_log, _write_text, bundled_path, read_dfg, read_log
from .sampling import SamplerConfig, sample_with_breeding, sample_with_replacement


# ---------------------------------------------------------------------------
# subcommands


def _cmd_measure(args) -> int:
    model = dfg_to_dfa(read_dfg(args.model))
    if args.system is not None:
        system = dfg_to_dfa(read_dfg(args.system))
        precision, recall = model_system_measures(model, system)
    else:
        precision, recall = log_measures(model, read_log(args.log))
    print(f"precision {precision:.6f}")
    print(f"recall {recall:.6f}")
    return 0


def _cmd_entropy(args) -> int:
    if args.dfg is not None:
        value = topological_entropy(dfg_to_dfa(read_dfg(args.dfg)))
    else:
        value = log_entropy(read_log(args.log))
    print(f"entropy {value.value:.6f}")
    return 0


def _cmd_discover(args) -> int:
    log = read_log(args.log)
    graph = discover_dfg(log, DiscoveryConfig(filter_fraction=args.filter_fraction))
    _write_text(args.out, _format_dfg(graph))
    return 0


def _cmd_simulate(args) -> int:
    graph = read_dfg(args.dfg)
    cfg = WalkConfig(
        trace_count=args.traces,
        max_length=args.max_length,
        weighting="frequency" if args.weighted else "uniform",
    )
    _write_text(args.out, _format_log(simulate_log(graph, cfg, default_rng(args.seed))))
    return 0


def _cmd_sample(args) -> int:
    log = read_log(args.log)
    rng = default_rng(args.seed)
    if args.lsm == "replacement":
        replicate = sample_with_replacement(log, args.n, rng)
    else:
        cfg = SamplerConfig(n=args.n, g=args.g, k=args.k, p=args.p)
        replicate = sample_with_breeding(log, args.n, cfg, rng)
    _write_text(args.out, _format_log(replicate))
    return 0


def _estimate_row(name: str, values, method: str, replicates: int) -> str:
    mean, ci95, var = aggregate(values, method)
    return f"{name}\t{mean:.6f}\t{ci95:.6f}\t{var:.6f}\t{replicates}"


def _cmd_estimate(args) -> int:
    model = dfg_to_dfa(read_dfg(args.model))
    log = read_log(args.log)
    spec = EstimatorSpec(
        lsm=args.lsm,
        cfg=SamplerConfig(n=args.n, g=args.g, k=args.k, p=args.p),
        m=args.m,
    )
    estimate = bootstrap_generalization(
        model, log, spec, seed=args.seed, workers=args.workers, ci_method=args.ci
    )
    precisions, recalls, distinct = zip(*estimate.per_replicate)
    lines = ["measure\tmean\tci95\tvariance\treplicates"]
    if args.measure in ("precision", "both"):
        lines.append(_estimate_row("precision", precisions, args.ci, spec.m))
    if args.measure in ("recall", "both"):
        lines.append(_estimate_row("recall", recalls, args.ci, spec.m))
    if args.harmonic:
        harmonic = [
            2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
            for p, r in zip(precisions, recalls)
        ]
        lines.append(_estimate_row("harmonic_mean", harmonic, args.ci, spec.m))
    lines.append(_estimate_row("distinct_traces", distinct, args.ci, spec.m))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


_PANEL_SIZES = (100, 1000, 10000)
_PANEL_SIZES_FULL = (100, 1000, 10000, 100000, 1000000)
_PANEL_GENERATIONS = (100, 1000, 10000)
_PANEL_GENERATIONS_FULL = (100, 1000, 10000, 100000, 1000000)
_PANEL_FIXED_N = 10000
_PANEL_FIXED_G = 10000


def _cmd_reproduce(args) -> int:
    model_path = args.model if args.model is not None else bundled_path("model.dfg")
    log_path = args.log if args.log is not None else bundled_path("observed.log")
    model = dfg_to_dfa(read_dfg(model_path))
    log = read_log(log_path)
    master = args.seed
    if master is None:
        master = int(SeedSequence().entropy)

    sizes = _PANEL_SIZES_FULL if args.full else _PANEL_SIZES
    generations = _PANEL_GENERATIONS_FULL if args.full else _PANEL_GENERATIONS
    wanted = [(n, _PANEL_FIXED_G) for n in sizes]
    wanted += [(_PANEL_FIXED_N, g) for g in generations]

    cells: dict = {}
    for n, g in wanted:
        if (n, g) in cells:
            continue
        spec = EstimatorSpec(
            lsm="breeding",
            cfg=SamplerConfig(n=n, g=g, k=2, p=1.0),
            m=args.m,
        )
        started = time.perf_counter()
        cells[(n, g)] = bootstrap_generalization(
            model,
            log,
            spec,
            seed=SeedSequence([master, n, g]),
            workers=args.workers,
        )
        elapsed = time.perf_counter() - started
        print(f"cell n={n} g={g}: {elapsed:.1f}s", file=sys.stderr)

    def row(first, estimate):
        return (
            f"{first}\t{estimate.precision_mean:.6f}\t{estimate.precision_ci95:.6f}"
            f"\t{estimate.recall_mean:.6f}\t{estimate.recall_ci95:.6f}"
            f"\t{estimate.distinct_traces_mean:.6f}\t{estimate.distinct_traces_ci95:.6f}"
        )

    header = "precision\tci95\trecall\tci95\tdistinct_traces\tci95"
    lines = [
        "bootstrap generalization of the bundled example model",
        f"seed={master} replicates_per_cell={args.m} lsm=breeding k=2 p=1.000000",
        "",
        f"panel a: replicate size n (g={_PANEL_FIXED_G})",
        "n\t" + header,
    ]
    lines.extend(row(n, cells[(n, _PANEL_FIXED_G)]) for n in sizes)
    lines.extend(
        ["", f"panel b: breeding generations g (n={_PANEL_FIXED_N})", "g\t" + header]
    )
    lines.extend(row(g, cells[(_PANEL_FIXED_N, g)]) for g in generations)
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _fraction(text: str) -> float:
    """Float argument that also accepts fractions such as ``1/3``."""
    if "/" in text:
        numerator, _, denominator = text.partition("/")
        den = float(denominator)
        if den == 0.0:
            raise ValueError("zero denominator")
        return float(numerator) / den
    return float(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_sampler_flags(parser) -> None:
    parser.add_argument("--log", required=True, help="observed log file")
    parser.add_argument("--lsm", required=True, choices=_SAMPLERS, help="log sampling method")
    parser.add_argument("-n", type=int, required=True, help="replicate size")
    parser.add_argument("-g", type=int, default=0, help="breeding generations")
    parser.add_argument("-k", type=int, default=1, help="shared-subtrace length")
    parser.add_argument("-p", type=float, default=1.0, help="breeding probability")
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genboot",
        description="Bootstrap generalization estimation for discovered process models.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    estimate = sub.add_parser(
        "estimate", help="bootstrap precision/recall of a model against a log"
    )
    estimate.add_argument("--model", required=True, help="model graph file")
    _add_sampler_flags(estimate)
    estimate.add_argument("-m", type=int, default=100, help="number of replicates")
    estimate.add_argument("--workers", type=int, default=1)
    estimate.add_argument(
        "--measure", choices=("precision", "recall", "both"), default="both"
    )
    estimate.add_argument("--ci", choices=("normal", "percentile"), default="normal")
    estimate.add_argument(
        "--harmonic", action="store_true", help="also report the harmonic mean"
    )
    estimate.add_argument("--out", default=None, help="write the report to a file")
    estimate.set_defaults(func=_cmd_estimate)

    measure = sub.add_parser(
        "measure", help="precision/recall of a model against a system or a log"
    )
    measure.add_argument("--model", required=True, help="model graph file")
    target = measure.add_mutually_exclusive_group(required=True)
    target.add_argument("--system", default=None, help="system graph file")
    target.add_argument("--log", default=None, help="log file")
    measure.set_defaults(func=_cmd_measure)

    discover = sub.add_parser("discover", help="discover a graph from a log")
    discover.add_argument("--log", required=True)
    discover.add_argument(
        "--filter-fraction",
        type=_fraction,
        default=0.0,
        help="fraction of distinct traces to drop (accepts e.g. 1/3)",
    )
    discover.add_argument("--out", default=None)
    discover.set_defaults(func=_cmd_discover)

    simulate = sub.add_parser("simulate", help="draw random walks from a graph")
    simulate.add_argument("--dfg", required=True, help="graph file")
    simulate.add_argument("--traces", type=int, required=True)
    simulate.add_argument("--max-length", type=int, default=1000)
    simulate.add_argument(
        "--weighted",
        action="store_true",
        help="branch by arc frequency instead of uniformly",
    )
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    sample = sub.add_parser("sample", help="draw one replicate log from a log")
    _add_sampler_flags(sample)
    sample.add_argument("--out", default=None)
    sample.set_defaults(func=_cmd_sample)

    entropy = sub.add_parser(
        "entropy", help="topological entropy of the automaton of a graph or log"
    )
    source = entropy.add_mutually_exclusive_group(required=True)
    source.add_argument("--dfg", default=None, help="graph file")
    source.add_argument("--log", default=None, help="log file")
    entropy.set_defaults(func=_cmd_entropy)

    reproduce = sub.add_parser(
        "reproduce_table1",
        aliases=["reproduce-table1"],
        help="benchmark panels over replicate sizes and breeding generations",
    )
    reproduce.add_argument("--seed", type=int, default=None)
    reproduce.add_argument("--workers", type=int, default=1)
    reproduce.add_argument(
        "-m", type=int, default=100, help="replicates per cell"
    )
    reproduce.add_argument(
        "--full",
        action="store_true",
        help="extend both panels to 100000 and 1000000 (very slow)",
    )
    reproduce.add_argument("--model", default=None, help="override the bundled model")
    reproduce.add_argument("--log", default=None, help="override the bundled log")
    reproduce.add_argument("--out", default=None)
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"genboot: {exc}", file=sys.stderr)
        return 2
    except GenbootError as exc:
        print(f"genboot: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"genboot: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
