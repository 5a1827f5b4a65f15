"""Finite-state stochastic processes and their memory costs.

Transition matrices here are row-stochastic with entry [j][i] giving the
probability of moving from state j to state i.  Entries may be floats or
exact rationals (``fractions.Fraction``); rational matrices are carried
through the stationary solve without rounding so that downstream
decompositions can be checked by exact equality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-13
MAX_POWER_ITER = 10**6


class ReducibleChainError(ValueError):
    """The chain is not irreducible, so the stationary state is not unique."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


def _is_exact(value) -> bool:
    return isinstance(value, Rational) and not isinstance(value, float)


class TransitionMatrix:
    """Square row-stochastic matrix over a finite state space.

    Parameters
    ----------
    rows : sequence of sequences
        ``rows[j][i]`` is the probability of the transition j -> i.  Every
        entry must lie in [0, 1] and every row must sum to 1 within 1e-12.
        If all entries are rationals the matrix is flagged exact and exact
        arithmetic is used wherever supported.
    """

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("transition matrix must be square and non-empty")
        for j, row in enumerate(rows):
            for v in row:
                _check_unit_interval(v, f"entry in row {j}")
            if not abs(sum(row) - 1) <= ROW_SUM_TOL:
                raise ValueError(f"row {j} sums to {float(sum(row))!r}, not 1")
        self.rows = rows
        self.n = n
        self.exact = all(_is_exact(v) for row in rows for v in row)

    def __getitem__(self, j):
        return self.rows[j]

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"TransitionMatrix({[list(r) for r in self.rows]!r})"

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)


@dataclass(frozen=True)
class EpsilonMachine:
    """Unifilar hidden-state machine, given as its edge table.

    ``edges[i]`` lists the ``(symbol, probability, next_state)`` edges of
    state i in strictly increasing symbol order, over the symbols
    0..n_symbols-1.  Since no state has two edges with one symbol, the
    successor is a function of (state, symbol): the machine is unifilar,
    and the table is what ``sample_edges`` walks.
    """

    edges: tuple[tuple[tuple, ...], ...]
    n_symbols: int

    def __post_init__(self):
        n = len(self.edges)
        if n == 0:
            raise ValueError("a machine needs at least one state")
        for i, row in enumerate(self.edges):
            if not row:
                raise ValueError(f"state {i} has no outputs")
            if not abs(sum(pr for _, pr, _ in row) - 1) <= ROW_SUM_TOL:
                raise ValueError(f"output distribution of state {i} does not sum to 1")
            last = -1
            for x, pr, nxt in row:
                _check_unit_interval(pr, f"P({x}|{i})")
                if not last < x < self.n_symbols:
                    raise ValueError(f"state {i} has symbol {x} out of order or "
                                     f"outside 0..{self.n_symbols - 1}")
                if not 0 <= nxt < n:
                    raise ValueError(f"successor {nxt} out of range")
                last = x

    @property
    def n(self) -> int:
        return len(self.edges)

    @property
    def exact(self) -> bool:
        return all(_is_exact(pr) for row in self.edges for _, pr, _ in row)


def _announcing(dists, n_symbols: int) -> EpsilonMachine:
    """The machine whose next state is the symbol it emits, with
    ``dists[i][x]`` = P(x | i); zero entries get no edge."""
    return EpsilonMachine(
        tuple(tuple((x, pr, x) for x, pr in enumerate(d) if pr != 0)
              for d in dists), n_symbols)


def perturbed_coin(p) -> EpsilonMachine:
    """Two-state coin whose bias toward repeating the last outcome is 1 - p.

    State i remembers the previous output.  From state 0 the machine emits 1
    with probability p; from state 1 it emits 0 with probability p.  The new
    state always equals the emitted symbol.
    """
    _check_unit_interval(p, "p")
    return _announcing(((1 - p, p), (p, 1 - p)), 2)


def post_processed_coin(p, q) -> EpsilonMachine:
    """Three-state, three-symbol machine obtained by rewriting coin runs.

    Output 2 marks the start of a run, output 1 its continuation and output 0
    a quiet step.  State i again equals the previous output, which makes the
    machine unifilar with successor f(i, x) = x.
    """
    _check_unit_interval(p, "p")
    _check_unit_interval(q, "q")
    return _announcing(((1 - p, 0, p),
                        (q * (1 - p), 1 - q, q * p),
                        (0, _one_like(q), 0)), 3)


def _one_like(v):
    return Fraction(1) if _is_exact(v) else 1.0


def _check_unit_interval(v, name: str) -> None:
    # written so that NaN fails the test instead of slipping past it
    if not 0 <= v <= 1:
        raise ValueError(f"{name} = {v!r} outside [0, 1]")


def machine_from_chain(T: TransitionMatrix) -> EpsilonMachine:
    """View a chain as the unifilar machine that announces its next state."""
    return _announcing(T.rows, T.n)


def induced_chain(machine: EpsilonMachine) -> TransitionMatrix:
    """Marginalize the outputs away, leaving the chain on hidden states."""
    n = machine.n
    zero = Fraction(0) if machine.exact else 0.0
    rows = [[zero] * n for _ in range(n)]
    for row, edges in zip(rows, machine.edges):
        for _, pr, nxt in edges:
            row[nxt] += pr
    if not machine.exact:
        # aggregation can overshoot 1 by a few ulp; dividing by the row sum
        # keeps every entry in [0, 1] without moving anything beyond the
        # tolerance the machine was validated under
        for row in rows:
            total = sum(row)
            row[:] = [v / total for v in row]
    return TransitionMatrix(rows)


def _strongly_connected(T: TransitionMatrix) -> bool:
    # Level-synchronous search from state 0 along the positive entries,
    # forward and then backward.  Positivity is read from the entries
    # themselves: a positive rational can still be 0.0 as a float.
    positive = np.array(T.rows, dtype=object) > 0
    for adjacent in (positive, positive.T):
        seen = np.zeros(T.n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adjacent[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def _stationary_exact(T: TransitionMatrix) -> tuple:
    # Solve pi (T - I) = 0 with the normalization sum(pi) = 1 substituted for
    # the last (redundant) balance equation, by Gaussian elimination over
    # Fraction.  Irreducibility makes the reduced system non-singular.
    n = T.n
    aug = [
        [Fraction(T[j][i]) - (1 if i == j else 0) for j in range(n)] + [Fraction(0)]
        for i in range(n)
    ]
    aug[n - 1] = [Fraction(1)] * n + [Fraction(1)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ReducibleChainError("non-unique stationary state")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [vr - factor * vc for vr, vc in zip(aug[r], aug[c])]
    pi = tuple(aug[r][n] for r in range(n))
    check = tuple(sum(pi[j] * T[j][i] for j in range(n)) for i in range(n))
    if check != pi:
        raise ArithmeticError("exact stationary solve failed its fixed-point check")
    return pi


def stationary(T: TransitionMatrix):
    """Unique stationary distribution of an irreducible chain.

    Float matrices are solved by power iteration on the half-lazy kernel
    (T + I)/2, which averages two successive iterates and therefore also
    converges for periodic chains; the residual ``max |pi T - pi|`` is always
    measured against T itself, and the first iterate whose residual is below
    STATIONARY_TOL is returned.  Exact matrices are solved by Gaussian
    elimination over rationals and satisfy pi T = pi exactly.

    The float iteration's operations and their order (``pi @ T`` as one
    BLAS matrix-vector product, ``0.5 * (step + pi)``, then ``pi /= sum``)
    fix its result to the last bit, which the ``slow-chain`` golden digest
    of the benchmark pins: do not reorder or fuse them.

    Raises
    ------
    ReducibleChainError
        If the positive-entry digraph of T is not strongly connected.
    ConvergenceError
        If MAX_POWER_ITER iterations do not reach STATIONARY_TOL.
    """
    if not _strongly_connected(T):
        raise ReducibleChainError("non-unique stationary state")
    if T.exact:
        return _stationary_exact(T)
    A = T.to_numpy()
    n = T.n
    # Iterates are written into the rows of P and their products into the
    # rows of S, a block at a time, and one reduction checks a whole block:
    # the arithmetic is the one-iterate loop's, without its temporaries.
    # The block shrinks as n grows, so that the products computed past the
    # converged iterate stay cheap.
    block = max(1, min(256, 4096 // n))
    P = np.empty((block + 1, n))
    S = np.empty((block, n))
    P[0] = 1.0 / n
    rows = list(zip(P, S, P[1:]))
    budget = MAX_POWER_ITER
    for done in range(0, budget, block):
        b = min(block, budget - done)
        for pi, step, nxt in rows[:b]:
            np.dot(pi, A, out=step)
            np.add(step, pi, out=nxt)
            nxt *= 0.5
            nxt /= nxt.sum()
        # a NaN residual compares False, so it never counts as converged
        hit = np.flatnonzero(np.abs(S[:b] - P[:b]).max(axis=1) < STATIONARY_TOL)
        if hit.size:
            return P[hit[0]].copy()
        P[0] = P[b]
    raise ConvergenceError(f"power iteration did not reach {STATIONARY_TOL} "
                           f"in {budget} steps")


def entropy_bits(weights) -> float:
    """Shannon entropy in bits, with the 0 log 0 := 0 convention."""
    total = 0.0
    for w in weights:
        w = float(w)
        if w < 0:
            raise ValueError(f"negative weight {w!r}")
        if w > 0:
            total -= w * math.log2(w)
    return total


def binary_entropy(p) -> float:
    return entropy_bits((float(p), 1.0 - float(p)))


def topological_memory(machine: EpsilonMachine) -> float:
    """Bits needed to address one hidden state: log2 of the state count."""
    return math.log2(machine.n)


def statistical_memory(machine: EpsilonMachine) -> float:
    """Entropy of the stationary hidden-state distribution, in bits."""
    return entropy_bits(stationary(induced_chain(machine)))


def coin_mutual_info_bound(p) -> float:
    """Past-future mutual information of the perturbed coin.

    Equals 1 - H2(p) bits and lower-bounds any faithful memory of the
    process, quantum or classical.
    """
    _check_unit_interval(p, "p")
    return 1.0 - binary_entropy(p)


# Steps per ``sample_edges`` call of a trajectory simulate: bounds the draws,
# symbols and --out text it holds at a few MB whatever the run length.  At
# least 2, the longest context a simulate verdict reads.  ``sample_edges``
# also converts its draws to Python floats in slices of this many.
TRAJECTORY_BLOCK = 1 << 16


def as_cdf(weights) -> np.ndarray:
    """Float cumulative sums of ``weights`` with the last entry pinned to 1,
    so that ``searchsorted(cdf, u, side="right")`` maps every u in [0, 1)
    to a valid index."""
    cdf = np.cumsum([float(w) for w in weights])
    cdf[-1] = 1.0
    return cdf


def sample_edges(rows, start: int, steps: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Walk an edge table for ``steps`` steps from state ``start``.

    ``rows[s]`` lists the ``(symbol, probability, next_state)`` edges of
    state s; edges may share a symbol, so the table need not be unifilar.
    Step t takes the first edge of the current state whose cumulative
    probability exceeds u[t], where u = ``rng.random(steps)`` is drawn once
    up front.  Each step costs one bisection of the current state's CDF,
    whatever the number of states.  Returns the emitted symbols and the
    state after the last step; a caller that walks a long run in blocks
    passes that state on to the next call.
    """
    n = len(rows)
    if not 0 <= start < n:
        raise ValueError(f"start state {start} out of range")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if any(not row or any(not 0 <= nx < n for _, _, nx in row)
           for row in rows):
        raise ValueError("every state needs edges into the state range")
    cdfs = [as_cdf([pr for _, pr, _ in row]).tolist() for row in rows]
    edges = [[(x, nx) for x, _, nx in row] for row in rows]
    draws = rng.random(steps)
    emitted = np.empty(steps, dtype=np.int64)
    state = start
    # the draws become Python floats one slice at a time: a list of them
    # takes about 40 B a step
    for lo in range(0, steps, TRAJECTORY_BLOCK):
        walked = []
        for v in draws[lo:lo + TRAJECTORY_BLOCK].tolist():
            x, state = edges[state][bisect_right(cdfs[state], v)]
            walked.append(x)
        emitted[lo:lo + len(walked)] = walked
    return emitted, state


MAX_KGRAM = 8


def exact_kgram_distribution(machine: EpsilonMachine, k: int,
                             start: int | None = None) -> dict:
    """Exact probability of every length-k output word.

    With ``start=None`` the hidden state is drawn from the stationary
    distribution; otherwise the word law is conditioned on starting in
    ``start``.  Keys are tuples of the emitted symbols ((2, 0, 1) for the
    word 2,0,1).  Words of probability zero are omitted.  Probabilities
    are exact rationals when the machine is exact and its stationary state
    is not needed in float form.
    """
    if not 1 <= k <= MAX_KGRAM:
        raise ValueError(f"k must be in 1..{MAX_KGRAM}, got {k}")
    if start is None:
        weights = stationary(induced_chain(machine))
        initial = list(enumerate(weights))
    else:
        if not 0 <= start < machine.n:
            raise ValueError(f"start state {start} out of range")
        initial = [(start, Fraction(1) if machine.exact else 1.0)]
    out: dict = {}
    frontier = {((), i): w for i, w in initial if w != 0}
    for _ in range(k):
        nxt: dict = {}
        for (word, i), w in frontier.items():
            for x, pr, after in machine.edges[i]:
                key = (word + (x,), after)
                nxt[key] = nxt.get(key, 0) + w * pr
        frontier = nxt
    for (word, _), w in frontier.items():
        out[word] = out.get(word, 0) + w
    return {word: w for word, w in sorted(out.items()) if w != 0}


def context_law(machine: EpsilonMachine, h: int) -> np.ndarray:
    """Stationary law of the next symbol after each h-symbol context.

    Row c, column y is P(c y) / P(c) from the (h + 1)-word law, rounded
    after the division; row c codes its context as ``stats.context_counts``
    does.  Contexts the process never emits get a row of zeros.
    """
    m = machine.n_symbols
    rows: dict = {}
    for word, w in exact_kgram_distribution(machine, h + 1).items():
        c = int(np.ravel_multi_index(word[:-1], (m,) * h))
        rows.setdefault(c, {})[word[-1]] = w
    law = np.zeros((m ** h, m))
    for c, row in rows.items():
        total = sum(row.values())
        for y, w in row.items():
            law[c, y] = float(w / total)
    return law
