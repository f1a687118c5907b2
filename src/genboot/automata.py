"""Directly-follows graphs, finite automata, and the operations between them.

A DFG is a graph over actions with distinguished input/output markers whose
walks from input to output define a trace language.  Every DFG induces a
deterministic finite automaton; logs induce automata through a prefix-tree
acceptor.  Trimming and product intersection feed the entropy measures.
Every automaton accepts plain traces: words of actions, with no marker
letters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .core import EventLog, INPUT_MARKER, OUTPUT_MARKER, Trace, check_action

State = object  # states are opaque hashables: strings, ints, or pairs


@dataclass(frozen=True)
class Dfg:
    """A directly-follows graph: actions, marker-delimited arcs, frequencies."""

    actions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    action_freq: dict = field(default_factory=dict)
    arc_freq: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "actions", frozenset(self.actions))
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        for a in self.actions:
            check_action(a)
        sources = self.actions | {INPUT_MARKER}
        targets = self.actions | {OUTPUT_MARKER}
        for s, t in self.arcs:
            if s not in sources or t not in targets:
                raise ValueError(f"arc ({s}, {t}) leaves the allowed endpoint sets")
            if s == INPUT_MARKER and t == OUTPUT_MARKER:
                raise ValueError("a direct input-to-output arc is not allowed")
        nodes = self.actions | {INPUT_MARKER, OUTPUT_MARKER}
        af = {n: int(self.action_freq.get(n, 0)) for n in nodes}
        if set(self.action_freq) - nodes:
            raise ValueError("action_freq has keys that are not nodes of the graph")
        ef = {arc: int(self.arc_freq.get(arc, 0)) for arc in self.arcs}
        if set(self.arc_freq) - self.arcs:
            raise ValueError("arc_freq has keys that are not arcs of the graph")
        if any(v < 0 for v in af.values()) or any(v < 0 for v in ef.values()):
            raise ValueError("frequencies must be non-negative")
        object.__setattr__(self, "action_freq", af)
        object.__setattr__(self, "arc_freq", ef)

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[tuple[str, str]],
        action_freq: Mapping | None = None,
        arc_freq: Mapping | None = None,
    ) -> "Dfg":
        arcs = frozenset(arcs)
        actions = {s for s, _ in arcs} | {t for _, t in arcs}
        actions -= {INPUT_MARKER, OUTPUT_MARKER}
        return cls(frozenset(actions), arcs, dict(action_freq or {}), dict(arc_freq or {}))


@dataclass(frozen=True)
class Dfa:
    """A deterministic finite automaton with a partial transition function."""

    states: frozenset
    alphabet: frozenset[str]
    transitions: dict  # (state, letter) -> state
    start: object
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.start not in self.states:
            raise ValueError("start state is not a state")
        if not self.accepting <= self.states:
            raise ValueError("accepting set contains non-states")
        for (q, x), r in self.transitions.items():
            if q not in self.states or r not in self.states:
                raise ValueError(f"transition ({q!r}, {x!r}) -> {r!r} uses unknown states")
            if x not in self.alphabet:
                raise ValueError(f"transition label {x!r} is not in the alphabet")

    @property
    def is_empty(self) -> bool:
        """True when no accepting state is reachable from the start."""
        return not _reachable(self) & self.accepting


def _succ(a: Dfa) -> dict:
    out: dict = {q: {} for q in a.states}
    for (q, x), r in a.transitions.items():
        out[q][x] = r
    return out


def _reachable(a: Dfa) -> set:
    seen = {a.start}
    stack = [a.start]
    succ = _succ(a)
    while stack:
        q = stack.pop()
        for r in succ[q].values():
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def dfg_to_dfa(g: Dfg) -> Dfa:
    """The trace acceptor of a DFG.

    States are the actions plus the input marker, which is the start; each
    arc (s, t) into an action becomes a transition from s labelled t, and
    the sources of arcs into the output marker accept.  The accepted words
    are the action sequences of the graph's input-to-output walks.
    """
    return Dfa(
        states=g.actions | {INPUT_MARKER},
        alphabet=g.actions,
        transitions={(s, t): t for s, t in g.arcs if t != OUTPUT_MARKER},
        start=INPUT_MARKER,
        accepting=frozenset(s for s, t in g.arcs if t == OUTPUT_MARKER),
    )


def accepts(a: Dfa, t: Trace | tuple) -> bool:
    """Whether the automaton accepts the word: a ``Trace`` or a tuple of
    actions.  Unknown actions reject rather than raise."""
    q = a.start
    for x in t:
        q = a.transitions.get((q, x))
        if q is None:
            return False
    return q in a.accepting


def is_stable(a: Dfa) -> bool:
    """True when every letter always leads to the same target state."""
    target: dict = {}
    for (_, x), r in a.transitions.items():
        if target.setdefault(x, r) != r:
            return False
    return True


def trim(a: Dfa) -> Dfa:
    """Restrict to states reachable from the start and co-reachable to an
    accepting state.  Language is preserved.  An automaton with an empty
    language trims to a single non-accepting start state."""
    fwd = _reachable(a)
    pred: dict = {}
    for (q, x), r in a.transitions.items():
        pred.setdefault(r, []).append(q)
    keep = {q for q in a.accepting if q in fwd}
    stack = list(keep)
    while stack:
        q = stack.pop()
        for s in pred.get(q, ()):
            if s in fwd and s not in keep:
                keep.add(s)
                stack.append(s)
    if a.start not in keep:
        return Dfa(
            states=frozenset({a.start}),
            alphabet=a.alphabet,
            transitions={},
            start=a.start,
            accepting=frozenset(),
        )
    transitions = {
        (q, x): r for (q, x), r in a.transitions.items() if q in keep and r in keep
    }
    return Dfa(
        states=frozenset(keep),
        alphabet=a.alphabet,
        transitions=transitions,
        start=a.start,
        accepting=frozenset(q for q in a.accepting if q in keep),
    )


def _renumber(a: Dfa) -> Dfa:
    """Relabel the states of a trimmed automaton as integers in
    breadth-first order (sorted letters), so structurally equal automata
    get identical representations."""
    order = {a.start: 0}
    queue = [a.start]
    succ = _succ(a)
    while queue:
        q = queue.pop(0)
        for x in sorted(succ[q]):
            r = succ[q][x]
            if r not in order:
                order[r] = len(order)
                queue.append(r)
    transitions = {(order[q], x): order[r] for (q, x), r in a.transitions.items()}
    return Dfa(
        states=frozenset(order.values()),
        alphabet=a.alphabet,
        transitions=transitions,
        start=0,
        accepting=frozenset(order[q] for q in a.accepting),
    )


def minimize(a: Dfa) -> Dfa:
    """Language-preserving state minimization by Moore partition refinement.

    The automaton is trimmed, its states are numbered ``0..n-1`` and its
    sorted letters become the columns of a dense ``n x |alphabet|``
    successor table, in which index ``n`` stands for the implicit reject
    sink.  The partition starts as accepting versus non-accepting; each
    round gives every state the signature (its block, the blocks of its
    successors) and splits blocks by sorting the signatures with one
    ``np.lexsort``.  Refinement stops when a round adds no block, after at
    most ``n`` rounds and in practice about as many as the longest
    distinguishing word; each round costs O(n * |alphabet|) vectorized work
    plus the sort.

    The minimal DFA is unique up to isomorphism, and the result is
    renumbered into canonical breadth-first integer states, so equal
    languages give ``==`` results whatever the input's state labels.
    """
    a = trim(a)
    if a.is_empty:
        return _renumber(a)
    states = list(a.states)
    index = {q: i for i, q in enumerate(states)}
    column = {x: j for j, x in enumerate(sorted(a.alphabet))}
    n = len(states)
    table = np.full((n, len(column)), n, dtype=np.intp)
    edges = [(index[q], column[x], index[r]) for (q, x), r in a.transitions.items()]
    src, col, dst = np.array(edges, dtype=np.intp).reshape(-1, 3).T
    table[src, col] = dst
    block = np.fromiter((q in a.accepting for q in states), dtype=np.intp, count=n)
    count = len(set(block.tolist()))
    while True:
        # the sink's block, -1, differs from every state's block
        signature = np.vstack((np.append(block, -1)[table].T, block))
        order = np.lexsort(signature)
        ranked = signature[:, order]
        boundary = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
        block = np.empty(n, dtype=np.intp)
        block[order] = np.concatenate(([0], np.cumsum(boundary)))
        refined = int(boundary.sum()) + 1
        if refined == count:
            break
        count = refined
    block_of = dict(zip(states, block.tolist()))
    transitions = {
        (block_of[q], x): block_of[r] for (q, x), r in a.transitions.items()
    }
    merged = Dfa(
        states=frozenset(block_of.values()),
        alphabet=a.alphabet,
        transitions=transitions,
        start=block_of[a.start],
        accepting=frozenset(block_of[q] for q in a.accepting),
    )
    return _renumber(trim(merged))


def prefix_tree_acceptor(traces: Iterable[Trace]) -> Dfa:
    """The prefix-tree acceptor of a set of traces (no minimization)."""
    transitions: dict = {}
    accepting = set()
    alphabet = set()
    next_state = 1
    for t in sorted(traces, key=lambda t: t.actions):
        q = 0
        for x in t.actions:
            alphabet.add(x)
            r = transitions.get((q, x))
            if r is None:
                r = next_state
                next_state += 1
                transitions[(q, x)] = r
            q = r
        accepting.add(q)
    return Dfa(
        states=frozenset(range(next_state)),
        alphabet=frozenset(alphabet),
        transitions=transitions,
        start=0,
        accepting=frozenset(accepting),
    )


def log_to_dfa(l: EventLog) -> Dfa:
    """A minimal DFA accepting exactly the distinct traces of the log;
    multiplicities are discarded."""
    return minimize(prefix_tree_acceptor(l.support))


def strip_terminal(a: Dfa) -> Dfa:
    """Return ``a``: every automaton is already a plain trace acceptor.  Kept
    only because the benchmark's traced replay still calls it."""
    return a


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Trimmed product automaton whose language is the intersection of both
    inputs."""
    asucc = _succ(a)
    bsucc = _succ(b)
    start = (a.start, b.start)
    transitions: dict = {}
    seen = {start}
    queue = [start]
    while queue:
        p, q = queue.pop(0)
        pa = asucc[p]
        pb = bsucc[q]
        for x in sorted(set(pa) & set(pb)):
            nxt = (pa[x], pb[x])
            transitions[((p, q), x)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    accepting = frozenset(
        s for s in seen if s[0] in a.accepting and s[1] in b.accepting
    )
    product = Dfa(
        states=frozenset(seen),
        alphabet=a.alphabet | b.alphabet,
        transitions=transitions,
        start=start,
        accepting=accepting,
    )
    return trim(product)
