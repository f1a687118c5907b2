"""Command line interface and the plain-text file formats.

Log files hold one distinct trace per line as ``<count> <action> ...``;
graph files hold ``node <name> <frequency>`` and ``edge <source> <target>
<frequency>`` lines.  Blank lines and ``#`` comments are ignored in both.

Exit codes: 0 on success, 1 on usage errors, 2 when an input file cannot
be read or parsed, 3 when a domain error occurs (empty language, failed
convergence, a dead worker process, and so on).
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import resources

import numpy as np

from .automata import Dfg, dfg_to_dfa, log_to_dfa
from .bootstrap import EstimatorSpec, aggregate, bootstrap_generalization
from .core import EventLog, INPUT_MARKER, OUTPUT_MARKER, Trace, check_action
from .discovery_sim import DiscoveryConfig, WalkConfig, discover_dfg, simulate_log
from .entropy import model_system_measures, topological_entropy
from .errors import GenbootError, ParseError
from .sampling import SamplerConfig, sample_with_breeding, sample_with_replacement


def bundled_path(name: str):
    """Path of a data file shipped with the package."""
    return resources.files("genboot").joinpath("data", name)


# ---------------------------------------------------------------------------
# file formats


def read_log(path) -> EventLog:
    """Parse a log file; duplicate trace lines accumulate."""
    counts: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                count = int(fields[0])
            except ValueError:
                raise ParseError(
                    f"expected a trace count, got {fields[0]!r}",
                    path=str(path),
                    line=lineno,
                ) from None
            if count < 1:
                raise ParseError(
                    "trace count must be positive", path=str(path), line=lineno
                )
            try:
                trace = Trace(tuple(fields[1:]))
            except ValueError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno) from None
            counts[trace] = counts.get(trace, 0) + count
    return EventLog.from_counts(counts)


def _format_log(log: EventLog) -> str:
    lines = [
        f"{count} {' '.join(trace.actions)}".rstrip() for trace, count in log.entries
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_log(log: EventLog, destination) -> None:
    """Serialize a log so that ``read_log`` recovers it exactly."""
    _write_text(destination, _format_log(log))


def _parse_frequency(token: str, path, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(
            f"expected a frequency, got {token!r}", path=str(path), line=lineno
        ) from None
    if value < 0:
        raise ParseError("frequency must be non-negative", path=str(path), line=lineno)
    return value


def read_dfg(path) -> Dfg:
    """Parse a directly-follows graph file."""
    actions: set = set()
    arcs: set = set()
    action_freq: dict = {}
    arc_freq: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] == "node":
                if len(fields) != 3:
                    raise ParseError(
                        "node lines read: node <name> <frequency>",
                        path=str(path),
                        line=lineno,
                    )
                name = fields[1]
                if name in action_freq:
                    raise ParseError(
                        f"duplicate node {name!r}", path=str(path), line=lineno
                    )
                if name not in (INPUT_MARKER, OUTPUT_MARKER):
                    try:
                        check_action(name)
                    except ValueError as exc:
                        raise ParseError(
                            str(exc), path=str(path), line=lineno
                        ) from None
                    actions.add(name)
                action_freq[name] = _parse_frequency(fields[2], path, lineno)
            elif fields[0] == "edge":
                if len(fields) != 4:
                    raise ParseError(
                        "edge lines read: edge <source> <target> <frequency>",
                        path=str(path),
                        line=lineno,
                    )
                src, dst = fields[1], fields[2]
                if (src, dst) in arcs:
                    raise ParseError(
                        f"duplicate edge {src!r} -> {dst!r}",
                        path=str(path),
                        line=lineno,
                    )
                arcs.add((src, dst))
                arc_freq[(src, dst)] = _parse_frequency(fields[3], path, lineno)
                for endpoint in (src, dst):
                    if endpoint not in (INPUT_MARKER, OUTPUT_MARKER):
                        actions.add(endpoint)
            else:
                raise ParseError(
                    f"unknown directive {fields[0]!r}; expected node or edge",
                    path=str(path),
                    line=lineno,
                )
    try:
        return Dfg(frozenset(actions), frozenset(arcs), action_freq, arc_freq)
    except ValueError as exc:
        raise ParseError(str(exc), path=str(path)) from None


def _format_dfg(graph: Dfg) -> str:
    lines = [
        f"node {name} {graph.action_freq[name]}"
        for name in (INPUT_MARKER, OUTPUT_MARKER, *sorted(graph.actions))
    ]
    lines.extend(
        f"edge {src} {dst} {graph.arc_freq[(src, dst)]}"
        for src, dst in sorted(graph.arcs)
    )
    return "\n".join(lines) + "\n"


def write_dfg(graph: Dfg, destination) -> None:
    """Serialize a graph so that ``read_dfg`` recovers it exactly."""
    _write_text(destination, _format_dfg(graph))


def _write_text(destination, text: str) -> None:
    if destination is None:
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_measure(args) -> int:
    model = dfg_to_dfa(read_dfg(args.model))
    if args.system is not None:
        other = dfg_to_dfa(read_dfg(args.system))
    else:
        other = log_to_dfa(read_log(args.log))
    precision, recall = model_system_measures(model, other)
    print(f"precision {precision:.6f}")
    print(f"recall {recall:.6f}")
    return 0


def _cmd_entropy(args) -> int:
    if args.dfg is not None:
        automaton = dfg_to_dfa(read_dfg(args.dfg))
    else:
        automaton = log_to_dfa(read_log(args.log))
    print(f"entropy {topological_entropy(automaton).value:.6f}")
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
        seed=args.seed,
    )
    _write_text(args.out, _format_log(simulate_log(graph, cfg)))
    return 0


def _cmd_sample(args) -> int:
    log = read_log(args.log)
    rng = np.random.default_rng(args.seed)
    if args.lsm == "replacement":
        replicate = sample_with_replacement(log, args.n, rng)
    else:
        cfg = SamplerConfig(n=args.n, g=args.g, k=args.k, p=args.p, seed=args.seed)
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
        cfg=SamplerConfig(n=args.n, g=args.g, k=args.k, p=args.p, seed=args.seed),
        m=args.m,
        measure=args.measure,
    )
    estimate = bootstrap_generalization(
        model, log, spec, workers=args.workers, ci_method=args.ci
    )
    lines = ["measure\tmean\tci95\tvariance\treplicates"]
    if spec.measure in ("precision", "both"):
        lines.append(
            f"precision\t{estimate.precision_mean:.6f}\t{estimate.precision_ci95:.6f}"
            f"\t{estimate.precision_var:.6f}\t{estimate.replicates}"
        )
    if spec.measure in ("recall", "both"):
        lines.append(
            f"recall\t{estimate.recall_mean:.6f}\t{estimate.recall_ci95:.6f}"
            f"\t{estimate.recall_var:.6f}\t{estimate.replicates}"
        )
    if args.harmonic:
        harmonic = [
            2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
            for p, r, _ in estimate.per_replicate
        ]
        lines.append(_estimate_row("harmonic_mean", harmonic, args.ci, spec.m))
    distinct = [d for _, _, d in estimate.per_replicate]
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
        master = int(np.random.SeedSequence().entropy)

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
            seed=np.random.SeedSequence([master, n, g]),
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


def _add_breeding_flags(parser) -> None:
    parser.add_argument("-g", type=int, default=0, help="breeding generations")
    parser.add_argument("-k", type=int, default=1, help="shared-subtrace length")
    parser.add_argument("-p", type=float, default=1.0, help="breeding probability")


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
    estimate.add_argument("--log", required=True, help="observed log file")
    estimate.add_argument(
        "--lsm",
        required=True,
        choices=("replacement", "breeding"),
        help="log sampling method",
    )
    estimate.add_argument("-n", type=int, required=True, help="replicate size")
    estimate.add_argument("-m", type=int, default=100, help="number of replicates")
    _add_breeding_flags(estimate)
    estimate.add_argument("--seed", type=int, default=None)
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
    sample.add_argument("--log", required=True)
    sample.add_argument(
        "--lsm", required=True, choices=("replacement", "breeding")
    )
    sample.add_argument("-n", type=int, required=True, help="replicate size")
    _add_breeding_flags(sample)
    sample.add_argument("--seed", type=int, default=None)
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
    except ParseError as exc:
        print(f"genboot: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
