"""Memory-frugal ensemble samplers.

The general construction splits a target chain T into a rank-one stationary
part plus a correction, T = 1 pi^T + Delta, and realizes the correction by
occasionally saving a sample's value and rerouting its next i.i.d. draw.
Two specializations are provided: the two-outcome coin ensemble, whose
correction reduces to a conditional bit flip, and the generator of a
factorization T = A B, whose memory is one latent state, as the chain of
its (symbol, latent) pairs (``factor_chain``/``factor_start``), which
``markov.walk_chain`` walks like any other trajectory sampler.

Randomness is counter-based: every step of an ensemble consumes Philox
streams keyed by (seed, step, substream), and sample number ell always
reads element ell of those streams.  Every step, step 0 included, runs in
blocks of at most ``BLOCK`` samples, and each block draws its own span of
one stream at a time, starting at the Philox counter of its first sample,
so no full-length stream is ever formed.  The update of one sample depends
only on its own previous state, its own stream elements and the shared
constant tables, so any split of the blocks across threads reproduces the
single-threaded result bit for bit.  Both ensembles read the raw 64-bit
words, whose uniforms in [0, 1) are ``(word >> 11) * 2**-53``, and compare
them against the integer thresholds ``ceil(x * 2**53)`` of their
probabilities x, which decides exactly the same ``u < x`` without forming
a float.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .markov import (ROW_SUM_TOL, TransitionMatrix, _check_unit_interval,
                     _row_sums, as_cdf, draw, stationary)

# samples per block of an ensemble step: the unit of work of one thread,
# small enough that a block's words and temporaries stay a few MB
BLOCK = 1 << 16
# a word's top 53 bits are its uniform's numerator over 2**53
_SHIFT = np.uint64(11)
# a guide table reads at most this many top bits of a 53-bit draw: 2**15
# eight-byte entries stay in a core's L2 cache
GUIDE_BITS = 15


class DegenerateSupportError(ValueError):
    """The stationary distribution has a zero entry, so the save/reroute
    ratios are undefined."""


# one Philox bit generator per thread, with the state it is reset to
_philox = threading.local()


def _words(seed: int, step: int, substream: int, count: int,
           start: int = 0) -> np.ndarray:
    """Elements start..start+count-1 of a stream of raw Philox words;
    element ell is a pure function of (seed, step, substream, ell).  One
    counter value gives four words, so the stream is set to the counter of
    element ``start`` and the words before it in that counter dropped.

    Each thread re-keys one generator through its state: building one with
    ``Philox(key=...)`` would first draw OS entropy that the key overrides.
    The state's buffer is empty, so its first word steps the counter, as a
    fresh generator's first word steps it from 0 to 1."""
    if not hasattr(_philox, "bitgen"):
        _philox.bitgen = np.random.Philox(key=0)
        _philox.state = _philox.bitgen.state
        _philox.state["buffer_pos"] = 4
    state = _philox.state["state"]
    state["counter"][0] = start // 4
    state["key"][:] = seed, (step << 3) | substream
    _philox.bitgen.state = _philox.state
    return _philox.bitgen.random_raw(count + start % 4)[start % 4:]


def _threshold(x):
    """``ceil(x * 2**53)`` as uint64, elementwise: a word's uniform is below
    x exactly when ``word >> 11`` is below it, as scaling by 2**53 is exact.
    Exact rationals get the ceiling in integers, without a rounding to float
    that could leave it one short."""
    x = np.asarray(x)
    if x.dtype == object:
        return np.array([-(-v.numerator * 2 ** 53 // v.denominator)
                         for v in x.flat], dtype=np.uint64).reshape(x.shape)
    return np.ceil(np.asarray(x, dtype=np.float64) * 2.0 ** 53).astype(np.uint64)


def _top(words: np.ndarray) -> np.ndarray:
    """The 53-bit numerators of the uniforms of ``words``, shifted in place
    into the words' own array, which only the caller holds."""
    words >>= _SHIFT
    return words


def _below(words: np.ndarray, x: float) -> np.ndarray:
    """Exactly ``u < x`` for the uniforms u of ``words``, unshifted: at x = 1
    the shifted threshold would overflow uint64, but every word is below it."""
    top = int(_threshold(x))
    if top >= 2 ** 53:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(top << 11)


class _GuideTable:
    """``np.searchsorted(cdf, u, side="right")`` for draws u in [0, 2**53)
    and sorted thresholds ``cdf``, mostly by one table read: the guide table
    ("index table") of Chen and Asau, AIIE Transactions 6(2), 1974.

    The draws are split into buckets by their top bits, about a thousand
    buckets per threshold and at most 2**GUIDE_BITS.  A bucket that no
    threshold splits holds the one index of all its draws; a split bucket
    holds -1, and only its draws are searched."""

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        bits = min(GUIDE_BITS, len(cdf).bit_length() + 10)
        self.shift = 53 - bits
        first = np.arange(1 << bits, dtype=np.uint64) << np.uint64(self.shift)
        lo, hi = (np.searchsorted(cdf, u, side="right")
                  for u in (first, first + np.uint64((1 << self.shift) - 1)))
        self.table = np.where(lo == hi, lo, -1)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        i = self.table[u.view(np.int64) >> self.shift]
        split = np.flatnonzero(i < 0)
        if split.size:
            i[split] = np.searchsorted(self.cdf, u[split], side="right")
        return i


class _RowSearch:
    """``np.searchsorted(rows[j], pick, side="right")`` for many pairs of a
    row j and a draw pick in [0, 2**53), over the sorted threshold rows of
    ``rows``, as one search of one flat key array.  Threshold k of row j is
    the key ``j + 1j * rows[j][k]``: numpy orders complex numbers by real
    part, then imaginary part, and every row number, every threshold up to
    2**53 and every draw below it is exact in float64, so the keys stay
    exact and sorted for any number of rows."""

    def __init__(self, rows: np.ndarray):
        n_rows, self.width = rows.shape
        self.keys = np.empty(rows.size, dtype=np.complex128)
        self.keys.real = np.repeat(np.arange(n_rows), self.width)
        self.keys.imag = rows.ravel()

    def __call__(self, j: np.ndarray, pick: np.ndarray) -> np.ndarray:
        query = np.empty(j.shape, dtype=np.complex128)
        query.real = j
        query.imag = pick
        return np.searchsorted(self.keys, query, side="right") - j * self.width


def decompose(chain: TransitionMatrix, pi=None):
    """Split T into 1 pi^T + Delta and return (pi, Delta) as arrays.

    Delta rows sum to 0, within ROW_SUM_TOL in floats and exactly in
    Fractions: a row of Delta sums to its chain row's sum minus sum(pi).
    Raises DegenerateSupportError when pi has a zero entry, since the
    correction ratios divide by pi.
    """
    pi = np.asarray(stationary(chain) if pi is None else pi)
    if pi.shape != (chain.n,):
        raise ValueError("pi must have one entry per state")
    if np.any(pi <= 0):
        raise DegenerateSupportError("degenerate stationary support")
    delta = chain.array - pi
    off = np.flatnonzero(~(abs(_row_sums(delta)) <= ROW_SUM_TOL))
    if off.size:
        raise ValueError(f"Delta row {off[0]} does not sum to 0")
    return pi, delta


def save_fractions(pi, delta) -> np.ndarray:
    """Per-state save probabilities f_j = max over the depleted set of
    -Delta[j][i] / pi[i]; 0 when row j needs no correction.  A float row
    whose every entry is within ROW_SUM_TOL of 0 needs none: it equals pi
    up to the stationary solve's rounding.  Exact rows are taken as given."""
    pi, delta = np.asarray(pi), np.asarray(delta)
    zero = 0 * pi[0]
    f = np.where(delta < 0, -delta / pi, zero).max(axis=1)
    if delta.dtype != object:
        f[np.all(abs(delta) <= ROW_SUM_TOL, axis=1)] = zero
    return f


def reroute_ratios(pi, delta, f) -> tuple[np.ndarray, np.ndarray]:
    """Reroute ratios (r_minus, r_plus) as dense per-state tables.

    r_minus[j][i] is the probability of abandoning a fresh draw i given the
    saved value j (nonzero only on the depleted set); r_plus[j][i] is the
    distribution the abandoned draw is rerouted to (supported on the
    surplus set).  Rows with f_j = 0 are identically zero.
    """
    pi, delta, f = np.asarray(pi), np.asarray(delta), np.asarray(f)
    zero = 0 * pi[0]
    active = (f != 0)[:, None]
    surplus = _row_sums(np.where(delta > 0, delta, zero))
    short = np.flatnonzero(active[:, 0] & ~(surplus > 0))
    if short.size:
        raise ValueError(f"Delta row {short[0]} has a depleted set but no "
                         "surplus")
    rminus = np.full(delta.shape, zero, dtype=delta.dtype)
    rplus = rminus.copy()
    np.divide(-delta, f[:, None] * pi, out=rminus, where=active & (delta < 0))
    np.divide(delta, surplus[:, None], out=rplus, where=active & (delta > 0))
    return rminus, rplus


@dataclass(frozen=True, eq=False)
class RerouteTables:
    """Constant tables driving the save/reroute sampler for one chain, as
    arrays of the chain's own numbers: Fractions or float64."""

    pi: np.ndarray
    delta: np.ndarray
    f: np.ndarray
    rminus: np.ndarray
    rplus: np.ndarray

    @classmethod
    def from_chain(cls, chain: TransitionMatrix) -> "RerouteTables":
        pi, delta = decompose(chain)
        f = save_fractions(pi, delta)
        return cls(pi, delta, f, *reroute_ratios(pi, delta, f))

    @property
    def n(self) -> int:
        return len(self.pi)


def effective_kernel(tables: RerouteTables) -> np.ndarray:
    """Single-step distribution of the save/reroute protocol.

    Row j conditions on the saved value being j, marginalizing over the
    saved flag does not change the row because f_j multiplies the whole
    correction.  The result must reproduce the decomposed chain exactly:
    the depletion removes pi_i f_j r_minus and the zero-sum of Delta routes
    exactly that mass onto the surplus states.
    """
    pi, f, rm, rp = tables.pi, tables.f[:, None], tables.rminus, tables.rplus
    moved = _row_sums(pi * rm)[:, None]
    return np.where(rm != 0, pi * (1 - f * rm),
                    np.where(rp != 0, pi + f * moved * rp, pi))


def expected_memory(tables: RerouteTables):
    """Expected saved fraction sum_j f_j pi_j and expected saved bits per
    sample and step (ceil(log2 n) bits per save)."""
    fraction = sum((tables.f * tables.pi).tolist())
    return fraction, fraction * math.ceil(math.log2(tables.n))


def _reserve(n_samples: int) -> None:
    """Ask for one byte per sample and give it back untouched, so that an
    ensemble too large to hold fails with numpy's MemoryError at once,
    before any block is drawn."""
    np.empty(n_samples, dtype=bool)


class _Ensemble:
    """M samples, each a value and a saved flag.  Step t reads the word
    streams (seed, t, s).  ``_start(lo, hi, words)`` at step 0 and
    ``_update(lo, hi, words)`` at every later step give the new values and
    flags of samples lo..hi-1 from their previous state, the subclass's
    constant tables and ``words(s)``, their own elements of stream s, drawn
    when it is called.  ``expected_saved``, a float, is the fraction of
    samples saved per step in the stationary regime.
    """

    def __init__(self, n_samples: int, seed: int):
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.saved_counts = []
        self.step_index = -1
        _reserve(self.n_samples)
        # Freeing an untouched buffer of two blocks' words lifts glibc's
        # mmap and trim thresholds above one block's words, so the steps
        # reuse a heap that stays mapped instead of faulting it in anew.
        np.empty(2 * BLOCK, dtype=np.uint64)

    def _advance(self, rule, threads: int = 1) -> np.ndarray:
        """Run ``rule`` over the blocks of the next step and record it."""
        t = self.step_index + 1

        def update(lo: int, hi: int):
            return rule(lo, hi, lambda s: _words(self.seed, t, s, hi - lo, lo))

        values, flags = zip(*_run_blocks(update, self.n_samples, threads))
        # Blocks are joined once all have run, and one block's results are
        # the new state as they are.  Output arrays allocated before the
        # blocks would sit below each block's words, whose freeing leaves a
        # heap top that the allocator trims and the next block faults back.
        self.values, self.flags = (np.concatenate(x) if len(x) > 1 else x[0]
                                   for x in (values, flags))
        self.step_index = t
        self.saved_counts.append(int(np.count_nonzero(self.flags)))
        return self.values

    def step(self, threads: int = 1) -> np.ndarray:
        """Advance every sample once; returns the new value array."""
        return self._advance(self._update, threads)


class GeneralQISampler(_Ensemble):
    """Ensemble sampler reproducing a chain from i.i.d. stationary draws.

    Each of the M samples holds its previous value and a saved flag.  Per
    step and sample: draw i from pi; if the previous value j was saved and i
    is in the depleted set of row j, reroute to the surplus set with
    probability r_minus[j][i], choosing the destination from r_plus[j];
    finally save the new value v with probability f_v.  The effective
    kernel of this update is exactly the target chain.

    Every probability is an integer threshold of the 53-bit draws.  A draw
    from pi is read off a guide table of pi's CDF, a reroute destination
    from one search of all r_plus CDFs at once, and r_minus through the flat
    index j * n + i, so a step allocates no k x n array for k reroutes.
    """

    def __init__(self, chain: TransitionMatrix, n_samples: int, seed: int):
        super().__init__(n_samples, seed)
        t = RerouteTables.from_chain(chain)
        # a probability, though a float sum of f_j pi_j may round past 1
        self.expected_saved = min(float(expected_memory(t)[0]), 1.0)
        self._pi = _GuideTable(_threshold(as_cdf(t.pi)))
        self._f = _threshold(t.f)
        self._rminus = _threshold(t.rminus).ravel()
        # the r_plus rows of states that never save are never read
        self._rplus = _RowSearch(_threshold(as_cdf(t.rplus)))
        self._advance(self._start)

    # streams 0 to 3 are draw, accept, pick and save
    def _start(self, lo, hi, words):
        i = self._pi(_top(words(0)))
        return i, _top(words(3)) < self._f[i]

    def _update(self, lo, hi, words):
        # r_minus is read at its flat index j * n + i, and the k rerouted
        # samples search the r_plus keys, so nothing of size k x n is formed
        i = self._pi(_top(words(0)))
        j = self.values[lo:hi]
        rminus = self._rminus[j * self._rplus.width + i]
        reroute = np.flatnonzero(self.flags[lo:hi]
                                 & (_top(words(1)) < rminus))
        if reroute.size:
            # only the rerouted samples read pick, so only a block with
            # reroutes draws it and only theirs shift
            i[reroute] = self._rplus(j[reroute], words(2)[reroute] >> _SHIFT)
        return i, _top(words(3)) < self._f[i]


class CoinEnsemble(_Ensemble):
    """Save/flip ensemble for the perturbed coin.

    Every sample redraws a fair bit each step.  A saved sample ignores it
    and repeats its previous value when p < 1/2, or emits the complement of
    that value when p > 1/2; then the result is saved again with
    probability |2p - 1|.  This is the two-state save/reroute sampler with
    all tables collapsed into one comparison.  The state is boolean and
    ``values`` is its uint8 view, so it reads as 0/1.
    """

    def __init__(self, p: float, n_samples: int, seed: int):
        p = float(p)
        _check_unit_interval(p, "p")
        super().__init__(n_samples, seed)
        self.p = p
        # both values are equally likely and save alike
        self.expected_saved = abs(2 * p - 1)
        self._advance(self._start)

    # streams 0 and 1 are draw and save
    def _start(self, lo, hi, words):
        return (_below(words(0), 0.5).view(np.uint8),
                _below(words(1), self.expected_saved))

    def _update(self, lo, hi, words):
        fresh = _below(words(0), 0.5)
        saved = self.flags[lo:hi]
        held = self.values[lo:hi].view(bool)
        if self.p > 0.5:
            held = ~held
        return (((saved & held) | (fresh & ~saved)).view(np.uint8),
                _below(words(1), self.expected_saved))


def _usable_cpus() -> int:
    """CPUs this process may run on, which can be fewer than the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process's one worker pool, built on the first threaded step."""
    return ThreadPoolExecutor(max_workers=_usable_cpus())


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads, and would wait on them
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_blocks(update, total: int, threads: int) -> list:
    """The results of ``update(lo, hi)`` over near-equal spans of at most
    BLOCK samples, in span order.  The spans are dealt round-robin to at
    most ``threads`` lanes and one per usable CPU: lane 0 runs on the
    calling thread, the others on the process's pool."""
    blocks = max(1, -(-total // BLOCK))
    bounds = [k * total // blocks for k in range(blocks + 1)]
    results = [None] * blocks
    lanes = min(threads, blocks, _usable_cpus())

    def lane(k: int) -> None:
        for b in range(k, blocks, lanes):
            results[b] = update(bounds[b], bounds[b + 1])

    jobs = [_pool().submit(lane, k) for k in range(1, lanes)]
    try:
        lane(0)
    finally:
        for job in jobs:
            job.result()
    return results


def three_state_demo_chain(p, q) -> TransitionMatrix:
    """Three-state chain with a single correcting row.

    States 0 and 2 redraw uniformly; state 1 redistributes with weights
    (p, q, 1 - p - q).  With p = 1/9, q = 2/3 this is the worked example
    whose reroute tables are known in closed form, handy as an exactness
    fixture when built from Fractions.
    """
    if not (p >= 0 and q >= 0 and p + q <= 1):
        raise ValueError("need p, q >= 0 with p + q <= 1")
    third = Fraction(1, 3) if isinstance(p, Fraction) else 1.0 / 3.0
    uniform = [third, third, third]
    return TransitionMatrix([uniform, [p, q, 1 - p - q], list(uniform)])


def _factor_pairs(A, sources) -> list:
    """The (symbol, latent) pairs of ``factor_chain``, in its order."""
    return [(x, c) for x in range(len(A) - 1, -1, -1)
            for c in range(A.shape[1]) if x not in sources or sources[c] == x]


def factor_chain(A, B, sources) -> tuple[TransitionMatrix, np.ndarray]:
    """The generator of T = A @ B (arrays) with r latent states, as a chain
    over pairs (symbol, latent) in descending symbol, then ascending latent,
    and their symbols: (x, c) moves to (x', c') with B[c][x'] * A[x'][c'].
    State ``sources[c]`` is latent c for certain and pairs with c alone."""
    x, c = np.array(_factor_pairs(A, sources)).T
    return TransitionMatrix(B[c][:, x] * A[x, c]), x


def factor_start(start: int, A, sources, rng: np.random.Generator) -> int:
    """The pair of ``factor_chain`` that stands for state ``start``: a
    source's one pair, else that of a latent drawn from A[start] by one
    uniform, also when the latent is certain."""
    if not 0 <= start < len(A):
        raise ValueError(f"start state {start} out of range")
    latent = sources.index(start) if start in sources else draw(A[start], rng)
    return _factor_pairs(A, sources).index((start, latent))
