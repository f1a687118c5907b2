"""One round of a workload, in a fresh interpreter, as a user would run it.

Usage: python3 round.py '<json spec>'   (run.py writes the spec)

The round imports genboot from the ``src`` directory named in the spec,
reads the inputs and builds the model automaton (set-up), then times the
workload's operations.  With tracing on, spans are recorded around the calls
into genboot's public functions and, for the bootstrap workloads, every
replicate is replayed afterwards with the same public calls, one span per
layer.  It prints one JSON line with the timings, the operations' outputs,
peak memory and the spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)


class _NoTracer:
    """Stands in for a Tracer when tracing is off."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(*counter(result))
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Replace ``module.attr`` by a span-recording wrapper for each target
    ``(module, attr, span name, counter)``; restore the originals on exit.
    ``counter``, when given, maps a result to a ``(name, value)`` count."""
    saved = []
    for module, attr, name, counter in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, counter))
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _cli_targets():
    from genboot import automata, bootstrap, cli

    minimal = lambda dfa: ("automata.minimal_states", len(dfa.states))
    return [
        (cli, "read_log", "cli.read_log", None),
        (cli, "_format_log", "cli.write_log", None),
        (cli, "_write_text", "cli.write_log", None),
        (cli, "simulate_log", "discovery_sim.simulate", None),
        (cli, "discover_dfg", "discovery_sim.discover", None),
        (cli, "model_system_measures", "entropy.measures", None),
        (
            cli,
            "topological_entropy",
            "entropy.radius",
            lambda value: ("entropy.power_iterations", value.iterations),
        ),
        (cli, "bootstrap_generalization", "bootstrap.estimate", None),
        (automata, "minimize", "automata.minimize", minimal),
        (bootstrap, "minimize", "automata.minimize", minimal),
    ]


def _run_cli(cli, tracer, argv) -> tuple[int, str]:
    """``genboot <argv>`` through ``cli.main``; returns (exit code, stdout)."""
    out = io.StringIO()
    err = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(f"genboot {' '.join(argv)} exited {code}: {err.getvalue()}")
    return code, out.getvalue()


def _replay(tracer, log, model, lsm, cfg, seed_sequence, m):
    """Repeat the replicates of one estimate with the public calls the
    estimator makes: sampler, acceptor, product, then both radii."""
    import numpy as np
    from genboot import automata, entropy, sampling

    model_core = automata.minimize(automata.strip_terminal(model))
    pairs = cfg.g * ((log.size + 1) // 2)
    with tracer.span("bootstrap.replay"):
        for child in seed_sequence.spawn(m):
            rng = np.random.default_rng(child)
            if lsm == "replacement":
                with tracer.span("sampling.draw"):
                    replicate = sampling.sample_with_replacement(log, cfg.n, rng)
            else:
                with tracer.span("sampling.breed"):
                    replicate = sampling.sample_with_breeding(log, cfg.n, cfg, rng)
                tracer.count("sampling.pairs", pairs)
            support = replicate.support
            tracer.count("sampling.replicate_distinct", len(support))
            with tracer.span("automata.pta"):
                acceptor = automata.prefix_tree_acceptor(support)
            tracer.count("automata.pta_states", len(acceptor.states))
            with tracer.span("automata.intersect"):
                common = automata.intersect(model_core, acceptor)
            tracer.count("automata.product_states", len(common.states))
            for automaton in (acceptor, common):
                if automaton.is_empty:
                    continue
                with tracer.span("entropy.radius"):
                    value = entropy.topological_entropy(automaton)
                tracer.count("entropy.power_iterations", value.iterations)


def table1(genboot, tracer, spec, model, logs):
    import numpy as np
    from genboot import cli

    params = spec["params"]
    report = os.path.join(spec["work"], "table1.txt")
    argv = [
        "reproduce_table1", "--seed", str(spec["seed"]), "--workers",
        str(params["workers"]), "-m", str(params["m"]), "--out", report,
    ]
    started = time.perf_counter()
    code, _ = _run_cli(cli, tracer, argv)
    wall = time.perf_counter() - started
    ops = len(params["cells"]) * params["m"]
    if code != 0:
        return wall, ops, ops, {"report": ""}, None
    with open(report, encoding="utf-8") as handle:
        text = handle.read()

    def replay():
        for n, g in params["cells"]:
            _replay(
                tracer, logs[0], model, "breeding",
                genboot.SamplerConfig(n=n, g=g, k=2, p=1.0),
                np.random.SeedSequence([spec["seed"], n, g]), params["m"],
            )

    return wall, ops, 0, {"report": text}, replay


def _estimates(genboot, tracer, spec, model, logs, lsm):
    """One estimate per input log, each seeded from (round seed, log index)."""
    import numpy as np

    params = spec["params"]
    runs = []
    for j, log in enumerate(logs):
        cfg = genboot.SamplerConfig(
            n=params["n"] or log.size, g=params["g"], k=params["k"], p=params["p"]
        )
        estimator = genboot.EstimatorSpec(lsm=lsm, cfg=cfg, m=params["m"])
        runs.append((log, cfg, estimator, [spec["seed"], j]))
    per_replicate = []
    failed = 0
    started = time.perf_counter()
    for log, _, estimator, seed in runs:
        try:
            with tracer.span("bootstrap.estimate"):
                estimate = genboot.bootstrap_generalization(
                    model, log, estimator, seed=np.random.SeedSequence(seed),
                    workers=params["workers"],
                )
        except genboot.GenbootError as exc:
            sys.stderr.write(f"estimate failed: {exc}\n")
            failed += params["m"]
            continue
        per_replicate.extend(list(row) for row in estimate.per_replicate)
    wall = time.perf_counter() - started

    def replay():
        for log, cfg, _, seed in runs:
            _replay(tracer, log, model, lsm, cfg, np.random.SeedSequence(seed), params["m"])

    ops = len(runs) * params["m"]
    return wall, ops, failed, {"per_replicate": per_replicate}, replay


def replacement_large(genboot, tracer, spec, model, logs):
    return _estimates(genboot, tracer, spec, model, logs, "replacement")


def breeding_rich(genboot, tracer, spec, model, logs):
    return _estimates(genboot, tracer, spec, model, logs, "breeding")


def direct_measures(genboot, tracer, spec, model, logs):
    from genboot import cli

    files = spec["files"]
    log, other_log = files["logs"]
    work = spec["work"]
    commands = {
        "simulate": [
            "simulate", "--dfg", files["system"], "--traces",
            str(spec["params"]["simulate_traces"]), "--seed", str(spec["seed"]),
            "--out", os.path.join(work, "simulated.log"),
        ],
        "discover": [
            "discover", "--log", log, "--filter-fraction", "1/3",
            "--out", os.path.join(work, "discovered.dfg"),
        ],
        "measure_system": ["measure", "--model", files["model"], "--system", files["system"]],
        "measure_observed": ["measure", "--model", files["model"], "--log", files["observed"]],
        "measure_log": ["measure", "--model", files["model"], "--log", log],
        "entropy_log": ["entropy", "--log", other_log],
    }
    outputs = {}
    failed = 0
    started = time.perf_counter()
    for name, argv in commands.items():
        code, out = _run_cli(cli, tracer, argv)
        outputs[name] = out
        failed += code != 0
    wall = time.perf_counter() - started
    return wall, len(commands), failed, outputs, None


WORKLOADS = {
    "table1": table1,
    "replacement_large": replacement_large,
    "breeding_rich": breeding_rich,
    "direct_measures": direct_measures,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    import genboot

    if not os.path.abspath(genboot.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"genboot was imported from {genboot.__file__}, not {src}\n")
        return 2
    tracer = Tracer() if spec["trace"] else _NoTracer()
    files = spec["files"]
    with tracer.span("setup"):
        model = genboot.dfg_to_dfa(genboot.read_dfg(files["model"]))
        logs = []
        for path in files["logs"]:
            with tracer.span("cli.read_log"):
                logs.append(genboot.read_log(path))
    setup_end = time.monotonic()
    if spec["setup_only"]:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    workload = WORKLOADS[spec["workload"]]
    if spec["trace"]:
        with instrument(tracer, _cli_targets()):
            wall, ops, failed, outputs, replay = workload(genboot, tracer, spec, model, logs)
        if replay is not None:
            replay()
    else:
        wall, ops, failed, outputs, replay = workload(genboot, tracer, spec, model, logs)

    # the pool's workers run side by side; each is counted at the largest
    # worker's peak (ru_maxrss is in KiB)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += spec["params"]["workers"] * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "setup_end": setup_end,
        "wall_s": wall,
        "attempted": ops,
        "failed": failed,
        "rss_mb": kib / 1024.0,
        "outputs": outputs,
        "spans": getattr(tracer, "spans", []),
        "counts": getattr(tracer, "counts", {}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
