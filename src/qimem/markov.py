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
    rows : sequence of sequences, or a 2-D array
        ``rows[j][i]`` is the probability of the transition j -> i.  Every
        entry must lie in [0, 1].  ``array`` holds the entries as Fractions
        (an ``object`` array) when all of them are rationals, and as float64
        otherwise; a Fraction row must sum to 1 exactly, a float row within
        1e-12.
    """

    def __init__(self, rows):
        self.array = array = _chain_array(rows)
        self.n = len(array)
        self.exact = array.dtype == object
        outside = np.argwhere(~((array >= 0) & (array <= 1)))
        if outside.size:
            j, i = outside[0]
            raise ValueError(f"entry in row {j} = {array[j].tolist()[i]!r} "
                             "outside [0, 1]")
        sums = _row_sums(array)
        tol = 0 if self.exact else ROW_SUM_TOL  # Fractions do not round
        off = np.flatnonzero(~(abs(sums - 1) <= tol))
        if off.size:
            raise ValueError(f"row {off[0]} sums to {sums.tolist()[off[0]]}, "
                             "not 1")

    def __eq__(self, other):
        return (isinstance(other, TransitionMatrix)
                and np.array_equal(self.array, other.array))

    def __repr__(self):
        return f"TransitionMatrix({self.array.tolist()!r})"

    def to_numpy(self) -> np.ndarray:
        return self.array.astype(np.float64)


def _chain_array(rows) -> np.ndarray:
    """``rows`` as one square array: Fractions when every entry is rational,
    else float64."""
    array = np.array(rows, dtype=object)
    if array.ndim != 2 or array.shape[0] != array.shape[1] or not array.size:
        raise ValueError("transition matrix must be square and non-empty")
    if all(map(_is_exact, array.flat)):
        return np.frompyfunc(Fraction, 1, 1)(array)
    return array.astype(np.float64)


def _row_sums(array: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, each added left to right like ``sum(row)``,
    so that the bits of a float sum do not depend on numpy's blocking."""
    return np.cumsum(array, axis=1)[:, -1]


def normalized_chain(rows) -> TransitionMatrix:
    """The chain whose row j is ``rows[j]`` divided by its left-to-right sum:
    float entries move by a few ulp at most, and Fractions not at all."""
    array = _chain_array(rows)
    return TransitionMatrix(array / _row_sums(array)[:, None])


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
        # rational rows sum to 1 exactly, float rows up to rounding
        tol = 0 if self.exact else ROW_SUM_TOL
        for i, row in enumerate(self.edges):
            if not row:
                raise ValueError(f"state {i} has no outputs")
            if not abs(sum(pr for _, pr, _ in row) - 1) <= tol:
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
    return _announcing(T.array.tolist(), T.n)


def induced_chain(machine: EpsilonMachine) -> TransitionMatrix:
    """Marginalize the outputs away, leaving the chain on hidden states;
    the rows are normalized, as aggregated floats can pass 1 by an ulp."""
    n = machine.n
    rows = [[0] * n for _ in range(n)]
    for row, edges in zip(rows, machine.edges):
        for _, pr, nxt in edges:
            row[nxt] += pr
    return normalized_chain(rows)


def _strongly_connected(T: TransitionMatrix) -> bool:
    # Level-synchronous search from state 0 along the positive entries,
    # forward and then backward.  Positivity is read from the entries
    # themselves: a positive rational can still be 0.0 as a float.
    positive = T.array > 0
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
    aug = [row + [Fraction(0)]
           for row in (T.array.T - np.eye(n, dtype=int)).tolist()]
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
    if tuple(np.dot(pi, T.array).tolist()) != pi:
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
    A = T.array
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
        if not w >= 0:  # also refuses NaN, which compares False
            raise ValueError(f"weight {w!r} is negative or NaN")
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


# Steps per block that ``sample_edges`` yields: bounds the draws, symbols
# and --out text a trajectory simulate holds at a few MB whatever the run
# length.
TRAJECTORY_BLOCK = 1 << 16


def as_cdf(weights) -> np.ndarray:
    """Cumulative sums of ``weights`` along the last axis, left to right in
    the weights' own arithmetic, with the last entry pinned to 1, so that
    ``searchsorted(cdf, u, side="right")`` maps every u in [0, 1) to a valid
    index.  Fractions are summed exactly, and end at 1 already."""
    cdf = np.cumsum(weights, axis=-1)
    cdf[..., -1] = 1
    return cdf


def sample_edges(rows, start: int, steps: int, rng: np.random.Generator):
    """Walk an edge table for ``steps`` steps from state ``start``.

    ``rows[s]`` lists the ``(symbol, probability, next_state)`` edges of
    state s; edges may share a symbol, so the table need not be unifilar.
    Step t takes the first edge of the current state whose cumulative
    probability exceeds its uniform draw.  Each step costs one bisection of
    the current state's CDF, whatever the number of states.  A generator:
    it checks the table and builds its CDFs on the first ``next``, then
    yields the symbols of each block of at most ``TRAJECTORY_BLOCK`` steps,
    whose uniforms it draws at once, and the state after them.
    """
    n = len(rows)
    if not 0 <= start < n:
        raise ValueError(f"start state {start} out of range")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if any(not row or any(not 0 <= nx < n for _, _, nx in row)
           for row in rows):
        raise ValueError("every state needs edges into the state range")
    cdfs = [as_cdf([float(pr) for _, pr, _ in row]).tolist() for row in rows]
    edges = [[(x, nx) for x, _, nx in row] for row in rows]
    state = start
    for lo in range(0, steps, TRAJECTORY_BLOCK):
        walked = []
        for v in rng.random(min(TRAJECTORY_BLOCK, steps - lo)).tolist():
            x, state = edges[state][bisect_right(cdfs[state], v)]
            walked.append(x)
        yield np.array(walked, dtype=np.int64), state
