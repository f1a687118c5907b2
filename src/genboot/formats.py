"""The plain-text file formats of logs and directly-follows graphs.

Log files hold one distinct trace per line as ``<count> <action> ...``;
graph files hold ``node <name> <frequency>`` and ``edge <source> <target>
<frequency>`` lines.  Blank lines and ``#`` comments are ignored in both.
A file that cannot be parsed, or is not UTF-8 text, raises ``ParseError``.
"""

from __future__ import annotations

import sys
from importlib import resources

from .automata import Dfg
from .core import EventLog, INPUT_MARKER, OUTPUT_MARKER, Trace, check_action
from .errors import ParseError


def bundled_path(name: str):
    """Path of a data file shipped with the package."""
    return resources.files("genboot").joinpath("data", name)


def _records(path):
    """The split fields of a text file's non-blank, non-comment lines, with
    their 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line.split()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}", path=str(path)) from None


def read_log(path) -> EventLog:
    """Parse a log file; duplicate trace lines accumulate."""
    counts: dict = {}
    for lineno, fields in _records(path):
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
    for lineno, fields in _records(path):
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
                    raise ParseError(str(exc), path=str(path), line=lineno) from None
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
