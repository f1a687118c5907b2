"""Reference measures computed without genboot, for checking its outputs.

Automata are built here from traces and graph arcs: a prefix-tree acceptor
of a log's distinct traces, the acceptor of a directly-follows graph (start
at ``i``, accept where an arc leads to ``o``), and their breadth-first
product.  The growth rate of a language is the spectral radius of its
trimmed acceptor with one return edge from each accepting state to the
start, taken from ``numpy.linalg.eigvals`` on small graphs and from
``scipy.sparse.linalg.eigs`` on large ones.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from inputs import INPUT_MARKER, OUTPUT_MARKER

# largest graph whose radius comes from the dense eigenvalue routine; on a
# product of several hundred states the dense routine takes up to a second
# where the sparse one takes 10 ms and agrees to 12 digits
_DENSE_LIMIT = 200


class Automaton:
    """Deterministic automaton over states 0..n-1 with start state 0."""

    def __init__(self, delta: list[dict], accepting: set[int]):
        self.delta = delta
        self.accepting = accepting

    @property
    def size(self) -> int:
        return len(self.delta)


def trace_acceptor(traces) -> Automaton:
    """Prefix-tree acceptor of a collection of traces."""
    delta: list[dict] = [{}]
    accepting = set()
    for trace in traces:
        q = 0
        for x in trace:
            r = delta[q].get(x)
            if r is None:
                r = len(delta)
                delta.append({})
                delta[q][x] = r
            q = r
        accepting.add(q)
    return Automaton(delta, accepting)


def graph_acceptor(succ: dict[str, list[str]]) -> Automaton:
    """Acceptor of the traces of a directly-follows graph: state 0 is the
    input marker, every other state is the last action read."""
    nodes = [INPUT_MARKER] + sorted(
        {x for targets in succ.values() for x in targets} - {OUTPUT_MARKER}
    )
    index = {node: i for i, node in enumerate(nodes)}
    delta = [
        {x: index[x] for x in succ.get(node, ()) if x != OUTPUT_MARKER}
        for node in nodes
    ]
    accepting = {index[node] for node in nodes if OUTPUT_MARKER in succ.get(node, ())}
    return Automaton(delta, accepting)


def product(a: Automaton, b: Automaton) -> Automaton:
    """Acceptor of the intersection of both languages, reachable part only."""
    index = {(0, 0): 0}
    pairs = [(0, 0)]
    delta: list[dict] = []
    accepting = set()
    for i, (p, q) in enumerate(pairs):
        row = {}
        for x, r in a.delta[p].items():
            s = b.delta[q].get(x)
            if s is not None:
                j = index.get((r, s))
                if j is None:
                    j = index[(r, s)] = len(pairs)
                    pairs.append((r, s))
                row[x] = j
        delta.append(row)
        if p in a.accepting and q in b.accepting:
            accepting.add(i)
    return Automaton(delta, accepting)


def _useful(a: Automaton) -> list[int]:
    """States reachable from the start and co-reachable to acceptance."""
    seen = {0}
    stack = [0]
    pred: list[list[int]] = [[] for _ in a.delta]
    while stack:
        q = stack.pop()
        for r in a.delta[q].values():
            if r not in seen:
                seen.add(r)
                stack.append(r)
    for q in seen:
        for r in a.delta[q].values():
            pred[r].append(q)
    keep = {q for q in a.accepting if q in seen}
    stack = list(keep)
    while stack:
        q = stack.pop()
        for s in pred[q]:
            if s not in keep:
                keep.add(s)
                stack.append(s)
    return sorted(keep)


def growth_rate(a: Automaton) -> float:
    """Spectral radius of the trimmed, short-circuited acceptor; 0 for an
    empty language."""
    keep = _useful(a)
    if not keep:
        return 0.0
    index = {q: i for i, q in enumerate(keep)}
    rows, cols = [], []
    for q in keep:
        for r in a.delta[q].values():
            if r in index:
                rows.append(index[q])
                cols.append(index[r])
        if q in a.accepting:
            rows.append(index[q])
            cols.append(0)
    n = len(keep)
    matrix = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    if n <= _DENSE_LIMIT:
        return float(np.max(np.abs(np.linalg.eigvals(matrix.toarray()))))
    # the shift by I makes the Perron root the only eigenvalue of largest
    # modulus even when the graph is periodic
    shifted = matrix + sp.identity(n, format="csr")
    value = spla.eigs(shifted, k=1, which="LM", return_eigenvectors=False)[0]
    return float(abs(value)) - 1.0


def measures(model: Automaton, other: Automaton) -> tuple[float, float]:
    """(precision, recall) of ``model`` against ``other``."""
    common = growth_rate(product(model, other))
    return common / growth_rate(model), common / growth_rate(other)


def entropy(a: Automaton) -> float:
    """Topological entropy: ln of the growth rate."""
    return math.log(growth_rate(a))


def expected_distinct(counts: dict, n: int) -> float:
    """Expected number of distinct traces in ``n`` draws with replacement."""
    total = sum(counts.values())
    return sum(1.0 - (1.0 - c / total) ** n for c in counts.values())
