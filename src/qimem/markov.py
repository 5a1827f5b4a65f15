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


class TransitionMatrix:
    """Square row-stochastic matrix over a finite state space.

    Parameters
    ----------
    rows : sequence of sequences, or a 2-D array
        ``rows[j][i]`` is the probability of the transition j -> i, read
        and checked by ``_stochastic_array`` into ``array``.
    """

    def __init__(self, rows):
        self.array = array = _stochastic_array(rows)
        if array.shape[0] != array.shape[1]:
            raise ValueError("transition matrix must be square and non-empty")
        self.n = len(array)
        self.exact = array.dtype == object

    def __eq__(self, other):
        return (isinstance(other, TransitionMatrix)
                and np.array_equal(self.array, other.array))

    def __repr__(self):
        return f"TransitionMatrix({self.array.tolist()!r})"

    def to_numpy(self) -> np.ndarray:
        """The chain as float64: a float chain's own array, not a copy,
        and a Fraction chain's entries rounded to floats.  Read-only use:
        writing to the result of a float chain writes to the chain."""
        return np.asarray(self.array, dtype=np.float64)


def _chain_array(rows) -> np.ndarray:
    """``rows`` as one non-empty 2-D array: Fractions (an ``object`` array)
    when every entry is rational, else float64; an array already in one of
    these forms is kept, not copied."""
    array = (rows if isinstance(rows, np.ndarray)
             and rows.dtype in (np.float64, object)
             else np.array(rows, dtype=object))
    if array.ndim != 2 or not array.size:
        raise ValueError("a probability table must be 2-D and non-empty")
    if array.dtype == object and not all(type(v) is Fraction
                                         for v in array.flat):
        exact = all(isinstance(v, Rational) and not isinstance(v, float)
                    for v in array.flat)
        return (np.frompyfunc(Fraction, 1, 1)(array) if exact
                else array.astype(float))
    return array


def _stochastic_array(rows) -> np.ndarray:
    """``rows`` as ``_chain_array`` reads them, checked to be distributions:
    every entry in [0, 1], and each row summing to 1, exactly in Fractions
    and within ROW_SUM_TOL in floats."""
    array = _chain_array(rows)
    outside = np.argwhere(~((array >= 0) & (array <= 1)))
    if outside.size:
        j, i = outside[0]
        raise ValueError(f"entry in row {j} = {array[j].tolist()[i]!r} "
                         "outside [0, 1]")
    sums = _row_sums(array)
    tol = 0 if array.dtype == object else ROW_SUM_TOL  # Fractions do not round
    off = np.flatnonzero(~(abs(sums - 1) <= tol))
    if off.size:
        raise ValueError(f"row {off[0]} sums to {sums.tolist()[off[0]]}, "
                         "not 1")
    return array


def _row_sums(array: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, each added left to right like ``sum(row)``,
    so that the bits of a float sum do not depend on numpy's blocking.
    The columns are added into one vector, so no n x n temporary is made."""
    sums = array[:, 0].copy()
    for column in array.T[1:]:
        sums += column
    return sums


def normalized_chain(rows) -> TransitionMatrix:
    """The chain whose row j is ``rows[j]`` divided by its left-to-right sum:
    float entries move by a few ulp at most, and Fractions not at all."""
    array = _chain_array(rows)
    return TransitionMatrix(array / _row_sums(array)[:, None])


@dataclass(frozen=True, eq=False)
class EpsilonMachine:
    """Unifilar hidden-state machine as two (states x symbols) arrays.

    ``probs[i, x]`` is P(x | i), read and checked as a chain's rows are.
    ``succ[i, x]``, broadcast to that shape, is the state after i emits x,
    read only on the edges, where ``probs > 0``.  One successor per (state,
    symbol) makes the machine unifilar.
    """

    probs: np.ndarray
    succ: np.ndarray

    def __post_init__(self):
        probs = _stochastic_array(self.probs)
        succ = np.broadcast_to(self.succ, probs.shape)
        if succ.dtype.kind not in "iu" or np.any(
                (probs > 0) & ((succ < 0) | (succ >= len(probs)))):
            raise ValueError("every edge needs a successor in the state range")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "succ", succ)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.probs.shape[1]

    @property
    def exact(self) -> bool:
        return self.probs.dtype == object


def perturbed_coin(p) -> EpsilonMachine:
    """Two-state coin whose bias toward repeating the last outcome is 1 - p.

    State i remembers the previous output.  From state 0 the machine emits 1
    with probability p; from state 1 it emits 0 with probability p.  The new
    state always equals the emitted symbol.
    """
    _check_unit_interval(p, "p")
    return EpsilonMachine(((1 - p, p), (p, 1 - p)), np.arange(2))


def post_processed_factors(p, q) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The post-processed coin's probs as A @ B: B the rows of ``sources`` 0
    and 2, A[x] the law of a latent bit after symbol x (Chaos 28, 013109)."""
    _check_unit_interval(p, "p")
    _check_unit_interval(q, "q")
    return (_stochastic_array(((1, 0), (q, 1 - q), (0, 1))),
            _stochastic_array(((1 - p, 0, p), (0, 1, 0))), (0, 2))


def post_processed_coin(p, q) -> EpsilonMachine:
    """Three-state, three-symbol machine obtained by rewriting coin runs.

    Output 2 marks the start of a run, output 1 its continuation and output 0
    a quiet step.  State i again equals the previous output, which makes the
    machine unifilar with successor f(i, x) = x.
    """
    A, B, _ = post_processed_factors(p, q)
    return EpsilonMachine(A @ B, np.arange(3))


def _check_unit_interval(v, name: str) -> None:
    # written so that NaN fails the test instead of slipping past it
    if not 0 <= v <= 1:
        raise ValueError(f"{name} = {v!r} outside [0, 1]")


def machine_from_chain(T: TransitionMatrix) -> EpsilonMachine:
    """View a chain as the unifilar machine that announces its next state:
    its probabilities are ``T.array`` itself."""
    return EpsilonMachine(T.array, np.arange(T.n))


def induced_chain(machine: EpsilonMachine) -> TransitionMatrix:
    """Marginalize the outputs away, leaving the chain on hidden states;
    the rows are normalized, as aggregated floats can pass 1 by an ulp."""
    probs = machine.probs
    i, x = np.nonzero(probs > 0)
    rows = np.zeros((machine.n, machine.n), dtype=probs.dtype)
    np.add.at(rows, (i, machine.succ[i, x]), probs[i, x])
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

    The float iteration's result is pinned to the last bit by the
    ``slow-chain`` golden digest of the benchmark.  It is the iteration
    ``pi @ T`` (one BLAS matrix-vector product), ``0.5 * (step + pi)``,
    ``pi /= sum``, computed without the halving: halving a float of at
    least 2**-1021 only lowers its exponent by one, so the halves sum, in
    the same pairwise order, to exactly half the sum, and each quotient is
    unchanged.  The bits can differ only when an iterate holds a subnormal
    entry.  Keep the product, the sum's order and the division as they
    are; they round.

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
            np.divide(nxt, np.add.reduce(nxt), out=nxt)
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


# Steps per block that ``walk_chain`` yields: bounds the draws, states
# and --out text a trajectory simulate holds at a few MB whatever the run
# length.
TRAJECTORY_BLOCK = 1 << 16


def as_cdf(weights) -> np.ndarray:
    """Cumulative sums of ``weights`` along the last axis, left to right in
    the weights' own arithmetic, pinned to 1 from each row's last positive
    entry on (the last entry of a row of zeros) and clamped at 1 before it,
    so that ``searchsorted(cdf, u, side="right")`` maps every u in [0, 1)
    to an entry of positive weight, the one that the row's positive
    entries alone would give, and the row stays sorted when a float sum
    rounds past 1.  Fractions are summed exactly, and reach 1 already."""
    positive = np.asarray(weights) > 0
    k = positive.shape[-1]
    last = k - 1 - positive[..., ::-1].argmax(axis=-1)
    cdf = np.cumsum(weights, axis=-1)
    np.minimum(cdf, 1, out=cdf)
    cdf[np.arange(k) >= last[..., None]] = 1
    return cdf


def draw(weights, rng: np.random.Generator) -> int:
    """The first index whose ``as_cdf`` entry of the float ``weights``
    exceeds one ``rng.random()``, spent also when one entry is certain."""
    return int(np.searchsorted(as_cdf(np.asarray(weights, dtype=float)),
                               rng.random(), side="right"))


def walk_chain(chain: TransitionMatrix, start: int, steps: int,
               rng: np.random.Generator):
    """Walk ``chain`` for ``steps`` steps from state ``start``.

    Step t moves to the first state whose cumulative probability in the
    current row exceeds its uniform draw, on the row's float CDF as
    ``as_cdf`` pins it from ``chain.to_numpy()``, so no draw takes an entry
    of probability 0.  Each step costs one bisection of a memoryview of
    the current row, whatever the number of states.  A generator: it
    checks ``start`` and ``steps`` and builds the CDFs on the first
    ``next``, then yields the int64 states entered in each block of at
    most ``TRAJECTORY_BLOCK`` steps, whose uniforms it draws at once.
    """
    if not 0 <= start < chain.n:
        raise ValueError(f"start state {start} out of range")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rows = list(map(memoryview, as_cdf(chain.to_numpy())))
    state = start
    for done in range(0, steps, TRAJECTORY_BLOCK):
        states = []
        for v in rng.random(min(TRAJECTORY_BLOCK, steps - done)).tolist():
            state = bisect_right(rows[state], v)
            states.append(state)
        yield np.array(states, dtype=np.int64)
