"""Topological entropy of regular trace languages and the model-system
precision/recall measures built on it.

The entropy of a language is the logarithm of the spectral radius of its
short-circuited trimmed automaton: return edges from accepting states to the
start close every accepted word into a cycle, so finite and infinite
languages alike get a growth rate.  The radius is the same for every trimmed
deterministic acceptor of a language (walks from the start correspond
exactly to prefixes of return-closed words), so it can be computed directly
on whatever trimmed automaton is at hand.

The comparison measures are ratios of those growth rates:

* precision(m, s) — the share of the model's behavior present in the
  system: rho(m ∩ s) / rho(m).
* recall(m, s) — the share of the system's behavior captured by the model:
  rho(m ∩ s) / rho(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .automata import Dfa, WeightedDigraph, intersect, short_circuit, trim
from .errors import EmptyLanguage, NoConvergence, ZeroDenominator

POWER_TOLERANCE = 1e-12
POWER_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class EntropyValue:
    """An entropy measurement: value in nats and power-iteration steps."""

    value: float
    iterations: int


def _adjacency(wd: WeightedDigraph) -> sp.csr_matrix:
    index = {node: i for i, node in enumerate(wd.nodes)}
    n = len(wd.nodes)
    rows, cols, vals = [], [], []
    for (src, dst), mult in wd.edges.items():
        rows.append(index[src])
        cols.append(index[dst])
        vals.append(float(mult))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _spectral_radius(wd: WeightedDigraph) -> tuple[float, int]:
    """Dominant eigenvalue of the multigraph adjacency matrix by power
    iteration.

    Iterates on A + I: the shift breaks periodicity (the short-circuited
    graph is strongly connected but may be periodic) and adds exactly 1 to
    the dominant eigenvalue of a non-negative matrix.
    """
    a = _adjacency(wd)
    n = a.shape[0]
    x = np.full(n, 1.0 / math.sqrt(n))
    shifted = a @ x + x
    lam = 0.0
    for it in range(1, POWER_MAX_ITERATIONS + 1):
        norm = np.linalg.norm(shifted)
        if norm == 0.0:
            return 0.0, it
        x = shifted / norm
        shifted = a @ x + x
        lam_new = float(x @ shifted)
        if abs(lam_new - lam) < POWER_TOLERANCE:
            return lam_new - 1.0, it
        lam = lam_new
    raise NoConvergence(
        f"power iteration did not converge within {POWER_MAX_ITERATIONS} iterations"
    )


def _growth_rate(a: Dfa) -> tuple[float, int]:
    """Spectral radius of the short-circuited trimmed automaton."""
    core = trim(a)
    if core.is_empty:
        raise EmptyLanguage("entropy is undefined for an empty language")
    rho, iterations = _spectral_radius(short_circuit(core))
    # short-circuiting guarantees a cycle, so the true radius is >= 1;
    # clamp tiny numerical undershoot
    return max(rho, 1.0), iterations


def topological_entropy(a: Dfa) -> EntropyValue:
    """ln of the spectral radius of the short-circuited trimmed automaton.

    Raises EmptyLanguage when the automaton accepts nothing and
    NoConvergence when power iteration exhausts its cap.
    """
    rho, iterations = _growth_rate(a)
    return EntropyValue(value=math.log(rho), iterations=iterations)


def growth_oracle(a: Dfa, horizon: int) -> float:
    """Finite-horizon growth estimate, independent of the eigenvalue path.

    Counts the walks of length ``horizon`` from the start of the
    short-circuited trimmed automaton by exact integer dynamic programming
    and returns ln(count)/horizon.
    """
    if horizon < 8:
        raise ValueError(f"horizon must be at least 8, got {horizon}")
    core = trim(a)
    if core.is_empty:
        raise EmptyLanguage("growth is undefined for an empty language")
    wd = short_circuit(core)
    out: dict = {}
    for (src, dst), mult in wd.edges.items():
        out.setdefault(src, []).append((dst, mult))
    counts = {wd.start: 1}
    for _ in range(horizon):
        nxt: dict = {}
        for node, c in counts.items():
            for dst, mult in out.get(node, ()):
                nxt[dst] = nxt.get(dst, 0) + c * mult
        counts = nxt
    total = sum(counts.values())
    return math.log(total) / horizon


def _measure(m: Dfa, s: Dfa) -> tuple[float, float]:
    """(precision, recall): the common growth rate over each operand's."""
    rho_m, _ = _growth_rate(m)
    rho_s, _ = _growth_rate(s)
    common = intersect(m, s)
    rho_i = 0.0 if common.is_empty else _growth_rate(common)[0]
    for rho, name in ((rho_m, "model"), (rho_s, "system")):
        if rho <= 0.0 or not math.isfinite(rho):
            raise ZeroDenominator(f"{name} growth rate degenerated to zero")
    return rho_i / rho_m, rho_i / rho_s


def model_system_precision(m: Dfa, s: Dfa) -> float:
    """Fraction of the model's behavior that the system exhibits."""
    return _measure(m, s)[0]


def model_system_recall(m: Dfa, s: Dfa) -> float:
    """Fraction of the system's behavior that the model captures."""
    return _measure(m, s)[1]


def model_system_measures(m: Dfa, s: Dfa) -> tuple[float, float]:
    """Both measures from one shared computation: (precision, recall)."""
    return _measure(m, s)
