"""Traces, event logs, and the positional trace operators.

A trace is a finite sequence of actions; an event log is a finite multiset
of traces.  All positions are 1-indexed at the API surface.  Values are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import OutOfBounds

# Action names are plain text tokens.  "i" and "o" are reserved for the
# input/output markers of directly-follows graphs and may not name actions.
Action = str

INPUT_MARKER = "i"
OUTPUT_MARKER = "o"
_RESERVED = frozenset((INPUT_MARKER, OUTPUT_MARKER))


def check_action(name: str) -> str:
    """Validate a single action token, returning it unchanged."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"action name must be a non-empty string, got {name!r}")
    if any(ch.isspace() for ch in name):
        raise ValueError(f"action name may not contain whitespace: {name!r}")
    if name in _RESERVED:
        raise ValueError(f"action name {name!r} is reserved for DFG markers")
    return name


@dataclass(frozen=True)
class Trace:
    """An ordered, possibly empty sequence of actions."""

    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        for a in self.actions:
            check_action(a)

    @classmethod
    def of(cls, *actions: Action) -> "Trace":
        return cls(actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __getitem__(self, index):
        got = self.actions[index]
        return Trace(got) if isinstance(index, slice) else got

    def __add__(self, other: "Trace") -> "Trace":
        return Trace(self.actions + other.actions)

    def __str__(self) -> str:
        return "<" + " ".join(self.actions) + ">" if self.actions else "<>"


def subtrace(t: Trace, p: int, n: int) -> Trace:
    """The ``n`` consecutive actions of ``t`` starting at 1-indexed position ``p``."""
    if p < 1 or n < 0 or p + n - 1 > len(t):
        raise OutOfBounds(f"subtrace({t}, p={p}, n={n}) out of range for length {len(t)}")
    return Trace(t.actions[p - 1 : p - 1 + n])


def prefix(t: Trace, x: int) -> Trace:
    """The first ``x`` actions of ``t``; ``prefix(t, 0)`` is the empty trace."""
    if x < 0 or x > len(t):
        raise OutOfBounds(f"prefix position {x} out of range for length {len(t)}")
    return Trace(t.actions[:x])


def suffix(t: Trace, x: int) -> Trace:
    """The actions of ``t`` from 1-indexed position ``x`` to its end.

    ``x`` may be ``len(t) + 1``, in which case the result is empty; crossover
    needs that case when a breeding site sits on a trace's final action.
    """
    if x < 1 or x > len(t) + 1:
        raise OutOfBounds(f"suffix position {x} out of range for length {len(t)}")
    return Trace(t.actions[x - 1 :])


@dataclass(frozen=True)
class EventLog:
    """A finite multiset of traces.

    Entries are normalized to a canonical (sorted, merged) form so that two
    logs with the same multiset content compare equal and enumerate their
    traces in the same order regardless of how they were built.
    """

    entries: tuple[tuple[Trace, int], ...] = field(default=())

    def __post_init__(self):
        merged: dict[Trace, int] = {}
        for t, c in self.entries:
            if not isinstance(t, Trace):
                t = Trace(tuple(t))
            if c < 0:
                raise ValueError(f"negative multiplicity {c} for {t}")
            if c:
                merged[t] = merged.get(t, 0) + c
        canon = tuple(sorted(merged.items(), key=lambda item: item[0].actions))
        object.__setattr__(self, "entries", canon)

    @classmethod
    def from_counts(cls, counts: Mapping[Trace, int] | Iterable[tuple[Trace, int]]) -> "EventLog":
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(items))

    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "EventLog":
        return cls(tuple((t, 1) for t in traces))

    @cached_property
    def size(self) -> int:
        """Total number of traces, with multiplicity."""
        return sum(c for _, c in self.entries)

    @cached_property
    def support(self) -> tuple[Trace, ...]:
        """The distinct traces, in canonical order."""
        return tuple(t for t, _ in self.entries)

    def multiplicity(self, t: Trace) -> int:
        return self._counts.get(t, 0)

    @cached_property
    def _counts(self) -> dict[Trace, int]:
        return dict(self.entries)
