"""Directly-follows graphs, finite automata, and the operations between them.

A DFG is a graph over actions with distinguished input/output markers whose
walks from input to output define a trace language.  Every DFG induces a
deterministic finite automaton; logs induce automata through a prefix-tree
acceptor.  Product intersection and the short-circuit transformation feed
the entropy measures.

Two word conventions coexist.  A DFG-derived automaton works over words that
end with the output marker ``o``; its ``o_terminated`` flag records that, and
``accepts`` appends the terminal ``o``-step so system-level traces can be
tested directly.  Automata built from logs are plain acceptors of the traces
themselves.  ``intersect`` reconciles the two by lifting a plain acceptor to
the o-terminated convention when needed, and the entropy module strips the
marker before measuring so both conventions describe the same trace language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .core import EventLog, INPUT_MARKER, OUTPUT_MARKER, Trace, check_action
from .errors import EmptyLanguage

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
    o_terminated: bool = False

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

    def step(self, state, letter):
        """Target of the transition, or None when undefined."""
        return self.transitions.get((state, letter))

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
    """The automaton of a DFG.

    States are the actions plus both markers; each arc (s, t) becomes a
    transition from s labelled t; the only accepting state is the output
    marker.  Accepted words are o-terminated, so the result carries
    ``o_terminated=True``.
    """
    states = g.actions | {INPUT_MARKER, OUTPUT_MARKER}
    alphabet = g.actions | {OUTPUT_MARKER}
    transitions = {(s, t): t for s, t in g.arcs}
    return Dfa(
        states=frozenset(states),
        alphabet=frozenset(alphabet),
        transitions=transitions,
        start=INPUT_MARKER,
        accepting=frozenset({OUTPUT_MARKER}),
        o_terminated=True,
    )


def accepts(a: Dfa, t: Trace) -> bool:
    """Whether the automaton accepts the trace.

    For o-terminated automata the terminal marker step is appended
    internally, so callers always pass plain traces.  Unknown actions
    reject rather than raise.
    """
    word = tuple(t.actions)
    if a.o_terminated:
        word = word + (OUTPUT_MARKER,)
    q = a.start
    for x in word:
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
            o_terminated=a.o_terminated,
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
        o_terminated=a.o_terminated,
    )


def _renumber(a: Dfa) -> Dfa:
    """Relabel states as integers in breadth-first order (sorted letters),
    so structurally equal automata get identical representations."""
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
    # trim-ness guarantees every state is reachable; guard anyway
    for q in sorted(a.states - set(order), key=repr):
        order[q] = len(order)
    transitions = {(order[q], x): order[r] for (q, x), r in a.transitions.items()}
    return Dfa(
        states=frozenset(order.values()),
        alphabet=a.alphabet,
        transitions=transitions,
        start=0,
        accepting=frozenset(order[q] for q in a.accepting),
        o_terminated=a.o_terminated,
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
    count = len(np.unique(block))
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
        o_terminated=a.o_terminated,
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


def log_to_dfa(l: EventLog, o_terminated: bool = False) -> Dfa:
    """A minimal DFA accepting exactly the distinct traces of the log.

    Multiplicities are discarded.  With ``o_terminated=True`` the automaton
    is built over marker-terminated words instead, for direct products with
    DFG-derived automata.
    """
    dfa = minimize(prefix_tree_acceptor(l.support))
    if o_terminated:
        dfa = lift_terminal(dfa)
    return dfa


def lift_terminal(a: Dfa) -> Dfa:
    """Convert a plain acceptor of traces into the equivalent acceptor of
    o-terminated words."""
    if a.o_terminated:
        return a
    sink = "end"
    while sink in a.states:
        sink = sink + "_"
    transitions = dict(a.transitions)
    for q in a.accepting:
        transitions[(q, OUTPUT_MARKER)] = sink
    return Dfa(
        states=a.states | {sink},
        alphabet=a.alphabet | {OUTPUT_MARKER},
        transitions=transitions,
        start=a.start,
        accepting=frozenset({sink}),
        o_terminated=True,
    )


def strip_terminal(a: Dfa) -> Dfa:
    """Convert an o-terminated automaton into the plain acceptor of the same
    traces: states with a marker transition into the old accepting set become
    accepting, marker transitions disappear, and the result is trimmed."""
    if not a.o_terminated:
        return a
    accepting = {q for (q, x), r in a.transitions.items()
                 if x == OUTPUT_MARKER and r in a.accepting}
    transitions = {(q, x): r for (q, x), r in a.transitions.items()
                   if x != OUTPUT_MARKER}
    return trim(
        Dfa(
            states=a.states,
            alphabet=a.alphabet - {OUTPUT_MARKER},
            transitions=transitions,
            start=a.start,
            accepting=frozenset(accepting),
        )
    )


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton whose language is the intersection of both inputs.

    When exactly one operand is o-terminated, the other is lifted to the
    same convention first.  The result is trimmed.
    """
    if a.o_terminated != b.o_terminated:
        a = lift_terminal(a)
        b = lift_terminal(b)
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
        o_terminated=a.o_terminated,
    )
    return trim(product)


@dataclass(frozen=True)
class WeightedDigraph:
    """A directed multigraph given as edge multiplicities, with a start node."""

    nodes: tuple
    start: object
    edges: dict  # (src, dst) -> multiplicity

    @property
    def edge_total(self) -> int:
        return sum(self.edges.values())


def short_circuit(a: Dfa) -> WeightedDigraph:
    """The directed multigraph of the automaton's transitions plus one fresh
    return edge from each accepting state back to the start.

    The automaton must be trimmed; the return edges close every accepted
    word into a cycle, which is what gives finite languages a well-defined
    growth rate downstream.
    """
    if not a.states or not a.accepting:
        raise EmptyLanguage("cannot short-circuit an automaton that accepts nothing")
    nodes = tuple(sorted(a.states, key=repr))
    edges: dict = {}
    for (q, _), r in sorted(a.transitions.items(), key=repr):
        edges[(q, r)] = edges.get((q, r), 0) + 1
    for q in sorted(a.accepting, key=repr):
        edges[(q, a.start)] = edges.get((q, a.start), 0) + 1
    return WeightedDigraph(nodes=nodes, start=a.start, edges=edges)
