"""Shared test utilities: random structure generators and brute-force oracles."""

from __future__ import annotations

import os

from genboot.automata import Dfa, Dfg, _renumber, _succ, dfg_to_dfa, trim
from genboot.core import INPUT_MARKER, OUTPUT_MARKER, EventLog, Trace

# candidate action names; the markers are deliberately absent
LETTERS = tuple(c for c in "abcdefghjklmnpqrstuvwxyz")


def enum_words(a: Dfa, max_len: int) -> set:
    """Every word of length <= max_len in the automaton's formal language."""
    successors: dict = {}
    for (state, letter), target in a.transitions.items():
        successors.setdefault(state, []).append((letter, target))
    out: set = set()
    stack = [(a.start, ())]
    while stack:
        state, word = stack.pop()
        if state in a.accepting:
            out.add(word)
        if len(word) == max_len:
            continue
        for letter, target in successors.get(state, ()):
            stack.append((target, word + (letter,)))
    return out


def enum_traces(a: Dfa, max_len: int) -> set:
    """Every trace of length <= max_len the automaton accepts (as tuples)."""
    if a.o_terminated:
        return {
            word[:-1]
            for word in enum_words(a, max_len + 1)
            if word and word[-1] == OUTPUT_MARKER
        }
    return enum_words(a, max_len)


def _closure(arcs, origin, forward: bool) -> set:
    step: dict = {}
    for src, dst in arcs:
        if forward:
            step.setdefault(src, []).append(dst)
        else:
            step.setdefault(dst, []).append(src)
    seen = {origin}
    stack = [origin]
    while stack:
        node = stack.pop()
        for nxt in step.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class WorkerKillingLog(EventLog):
    """A log that ends, without cleanup, any process that unpickles it: a
    pool worker receiving it dies as if crashed or killed."""

    def __reduce__(self):
        return (os._exit, (1,))


def random_dfg(rng, max_actions: int = 12) -> Dfg:
    """A random DFG whose every node lies on an input-to-output walk."""
    while True:
        count = int(rng.integers(2, max_actions + 1))
        actions = list(LETTERS[:count])
        arcs = set()
        first = rng.choice(count, size=int(rng.integers(1, 3)), replace=False)
        for idx in first:
            arcs.add((INPUT_MARKER, actions[int(idx)]))
        pool = actions + [OUTPUT_MARKER]
        for action in actions:
            breadth = min(int(rng.integers(1, 4)), len(pool))
            chosen = rng.choice(len(pool), size=breadth, replace=False)
            for idx in chosen:
                arcs.add((action, pool[int(idx)]))
        useful = _closure(arcs, INPUT_MARKER, True) & _closure(arcs, OUTPUT_MARKER, False)
        kept = {(s, t) for s, t in arcs if s in useful and t in useful}
        if not any(s == INPUT_MARKER for s, _ in kept):
            continue
        arc_freq = {arc: int(rng.integers(1, 10)) for arc in sorted(kept)}
        return Dfg.from_arcs(kept, arc_freq=arc_freq)


def random_dfa(rng, max_states: int = 20, alphabet=("x", "y", "z")) -> Dfa:
    """A random trimmed DFA with a non-empty language."""
    while True:
        count = int(rng.integers(2, max_states + 1))
        transitions = {}
        for state in range(count):
            for letter in alphabet:
                if rng.random() < 0.75:
                    transitions[(state, letter)] = int(rng.integers(count))
        accepting = frozenset(q for q in range(count) if rng.random() < 0.3)
        if not accepting:
            accepting = frozenset({int(rng.integers(count))})
        candidate = Dfa(
            frozenset(range(count)), frozenset(alphabet), transitions, 0, accepting
        )
        pruned = trim(candidate)
        if not pruned.is_empty:
            return pruned


def nested_pair(rng, max_states: int = 20):
    """(parent, child) automata with language(child) a subset of language(parent)."""
    while True:
        parent = random_dfa(rng, max_states)
        transitions = {
            key: value
            for key, value in parent.transitions.items()
            if rng.random() > 0.25
        }
        accepting = frozenset(q for q in parent.accepting if rng.random() > 0.25)
        if not accepting:
            continue
        child = trim(
            Dfa(parent.states, parent.alphabet, transitions, parent.start, accepting)
        )
        if not child.is_empty:
            return parent, child


def model_like_dfa(rng, max_actions: int = 12) -> Dfa:
    return dfg_to_dfa(random_dfg(rng, max_actions))


def all_words(alphabet, max_len: int) -> list:
    """Every tuple over ``alphabet`` of length 0..max_len."""
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (x,) for w in frontier for x in alphabet]
        words.extend(frontier)
    return words


def reference_minimize(a: Dfa) -> Dfa:
    """Moore partition refinement over per-state signature tuples: the
    oracle that ``minimize`` must equal on every input."""
    a = trim(a)
    if a.is_empty:
        return _renumber(a)
    letters = sorted(a.alphabet)
    # block id per state; None acts as the implicit reject sink
    block = {q: (q in a.accepting) for q in a.states}
    succ = _succ(a)
    while True:
        signatures: dict = {}
        for q in a.states:
            sig = (block[q], tuple(block.get(succ[q].get(x)) for x in letters))
            signatures.setdefault(sig, []).append(q)
        if len(signatures) == len(set(block.values())):
            break
        block = {}
        for i, sig in enumerate(sorted(signatures, key=repr)):
            for q in signatures[sig]:
                block[q] = i
    transitions = {(block[q], x): block[r] for (q, x), r in a.transitions.items()}
    merged = Dfa(
        states=frozenset(block.values()),
        alphabet=a.alphabet,
        transitions=transitions,
        start=block[a.start],
        accepting=frozenset(block[q] for q in a.accepting),
        o_terminated=a.o_terminated,
    )
    return _renumber(trim(merged))
