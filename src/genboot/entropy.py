"""Topological entropy of regular trace languages and the model-system
precision/recall measures built on it.

The entropy of a language is the logarithm of the spectral radius of its
short-circuited trimmed automaton: return edges from accepting states to the
start close every accepted word into a cycle, so finite and infinite
languages alike get a growth rate.  The radius is the same for every trimmed
deterministic acceptor of a language (walks from the start correspond
exactly to prefixes of return-closed words), so it can be computed directly
on whatever trimmed automaton is at hand.

A finite language needs no automaton.  Short-circuit its trimmed prefix
tree and every cycle passes through the start, and each word w closes
exactly one first-return cycle, of length |w| + 1.  So the radius is 1/x*,
where x* in (0, 1] is the unique root of the renewal equation

    F(x) = sum over lengths l of N_l * x**(l + 1) = 1,

with N_l the number of distinct words of length l.  F increases on (0, 1],
so bisection brackets the root, and with it the radius, between adjacent
floats: F(lo) < 1 <= F(hi), as F evaluates in floating point, gives
1/hi <= rho <= 1/lo.  Logs and bootstrap replicates are measured this way;
power iteration serves the cyclic automata of graphs.

The comparison measures are ratios of those growth rates:

* precision(m, s) — the share of the model's behavior present in the
  system: rho(m ∩ s) / rho(m).
* recall(m, s) — the share of the system's behavior captured by the model:
  rho(m ∩ s) / rho(s).

Against a finite log L and a deterministic model m, the intersection is the
set of L's distinct traces that m accepts, so the measures need only the
traces' lengths and m's verdict on each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automata import Dfa, accepts, intersect, trim
from .core import EventLog
from .errors import EmptyLanguage, NoConvergence, ZeroDenominator

POWER_TOLERANCE = 1e-12
# Power iteration also waits until the Collatz–Wielandt bracket of its
# vector, the least and greatest entry of (A + I)x / x, is this narrow
# relative to its top: the dominant eigenvalue lies inside that bracket.
BRACKET_TOLERANCE = 1e-9
POWER_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class EntropyValue:
    """An entropy measurement: value in nats and the solver's steps (power
    iterations, or bisection steps for a log)."""

    value: float
    iterations: int


def _short_circuit(core: Dfa) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The short-circuit matrix of a trimmed automaton as ``(n, rows, cols,
    weights)``: its transitions plus one return edge from each accepting
    state to the start, states indexed in ``repr`` order.  Parallel edges
    sum into one weight, and the entries are sorted row-major with columns
    ascending inside a row, the order a CSR matrix stores them in."""
    index = {q: i for i, q in enumerate(sorted(core.states, key=repr))}
    n = len(index)
    # entry (i, j) as the key n*i + j, so sorting keys sorts row-major
    keys = [n * index[q] + index[r] for (q, _), r in core.transitions.items()]
    keys += [n * index[q] + index[core.start] for q in core.accepting]
    keys, counts = np.unique(np.array(keys, dtype=np.intp), return_counts=True)
    rows, cols = np.divmod(keys, n)
    return n, rows, cols, counts.astype(np.float64)


def _spectral_radius(
    n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
) -> tuple[float, int]:
    """Dominant eigenvalue of the non-negative n × n matrix with the given
    entries, by power iteration.

    Iterates on A + I: the shift breaks periodicity (a short-circuited
    automaton is strongly connected but may be periodic) and adds exactly 1
    to the dominant eigenvalue of a non-negative matrix.  It stops when two
    successive estimates agree and the Collatz–Wielandt bracket is narrow
    (see ``BRACKET_TOLERANCE``): agreement alone can come after two steps,
    far from the radius.  ``A @ x`` is one ``bincount`` over the entries,
    which adds each row's terms in entry order, as a CSR matrix-vector
    product does.
    """

    def matvec(x: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=weights * x[cols], minlength=n)

    x = np.full(n, 1.0 / math.sqrt(n))
    shifted = matvec(x) + x
    lam = 0.0
    for it in range(1, POWER_MAX_ITERATIONS + 1):
        norm = np.linalg.norm(shifted)
        if norm == 0.0:
            return 0.0, it
        x = shifted / norm
        shifted = matvec(x) + x
        lam_new = float(x @ shifted)
        if abs(lam_new - lam) < POWER_TOLERANCE:
            ratios = shifted / x
            top = ratios.max()
            if top - ratios.min() <= BRACKET_TOLERANCE * top:
                return lam_new - 1.0, it
        lam = lam_new
    raise NoConvergence(
        f"power iteration did not converge within {POWER_MAX_ITERATIONS} iterations"
    )


def _growth_rate(a: Dfa) -> tuple[float, int]:
    """Spectral radius of the short-circuited trimmed automaton."""
    core = trim(a)
    if not core.accepting:
        raise EmptyLanguage("entropy is undefined for an empty language")
    rho, iterations = _spectral_radius(*_short_circuit(core))
    # short-circuiting guarantees a cycle, so the true radius is >= 1;
    # clamp tiny numerical undershoot
    return max(rho, 1.0), iterations


def _finite_growth(lengths) -> tuple[float, int]:
    """Growth rate of a finite language from the lengths of its distinct
    words, and the bisection steps taken: 1/hi, where F(lo) < 1 <= F(hi)
    for the renewal function F and adjacent floats lo < hi."""
    counts = np.bincount(np.asarray(lengths, dtype=np.intp))
    if not counts.any():
        raise EmptyLanguage("entropy is undefined for an empty language")
    powers = np.arange(1, len(counts) + 1)
    lo, hi, steps = 0.0, 1.0, 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return 1.0 / hi, steps
        steps += 1
        if counts @ mid**powers >= 1.0:
            hi = mid
        else:
            lo = mid


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
    if not core.accepting:
        raise EmptyLanguage("growth is undefined for an empty language")
    out: dict = {}
    for (q, _), r in core.transitions.items():
        out.setdefault(q, []).append(r)
    for q in core.accepting:
        out.setdefault(q, []).append(core.start)
    counts = {core.start: 1}
    for _ in range(horizon):
        nxt: dict = {}
        for q, c in counts.items():
            for r in out.get(q, ()):
                nxt[r] = nxt.get(r, 0) + c
        counts = nxt
    total = sum(counts.values())
    return math.log(total) / horizon


def _ratios(rho_i: float, rho_m: float, rho_s: float) -> tuple[float, float]:
    """(precision, recall): the common growth rate over each operand's."""
    for rho, name in ((rho_m, "model"), (rho_s, "system")):
        if rho <= 0.0 or not math.isfinite(rho):
            raise ZeroDenominator(f"{name} growth rate degenerated to zero")
    return rho_i / rho_m, rho_i / rho_s


def _finite_measures(
    rho_m: float, lengths: np.ndarray, accepted: np.ndarray
) -> tuple[float, float]:
    """(precision, recall) of a model of growth rate ``rho_m`` against a
    finite language, from the lengths of its distinct words and the model's
    verdict on each (a boolean array)."""
    rho_l, _ = _finite_growth(lengths)
    rho_i = _finite_growth(lengths[accepted])[0] if accepted.any() else 0.0
    return _ratios(rho_i, rho_m, rho_l)


def model_system_measures(m: Dfa, s: Dfa) -> tuple[float, float]:
    """(precision, recall) of the model ``m`` against the system ``s``."""
    rho_m, _ = _growth_rate(m)
    rho_s, _ = _growth_rate(s)
    common = intersect(m, s)
    rho_i = _growth_rate(common)[0] if common.accepting else 0.0
    return _ratios(rho_i, rho_m, rho_s)


def log_entropy(log: EventLog) -> EntropyValue:
    """Topological entropy of the language of a log's distinct traces: the
    value ``topological_entropy(log_to_dfa(log))`` approximates by power
    iteration, from the renewal equation instead.

    Raises EmptyLanguage when the log is empty.
    """
    rho, steps = _finite_growth([len(t) for t in log.support])
    return EntropyValue(value=math.log(rho), iterations=steps)


def log_measures(m: Dfa, log: EventLog) -> tuple[float, float]:
    """(precision, recall) of a model against a log's distinct traces: the
    values ``model_system_measures(m, log_to_dfa(log))`` approximates, with
    the log and the intersection measured by the renewal equation."""
    rho_m, _ = _growth_rate(m)
    support = log.support
    lengths = np.array([len(t) for t in support], dtype=np.intp)
    accepted = np.array([accepts(m, t) for t in support], dtype=bool)
    return _finite_measures(rho_m, lengths, accepted)
