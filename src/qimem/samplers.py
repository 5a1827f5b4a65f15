"""Memory-frugal ensemble samplers.

The general construction splits a target chain T into a rank-one stationary
part plus a correction, T = 1 pi^T + Delta, and realizes the correction by
occasionally saving a sample's value and rerouting its next i.i.d. draw.
Two specializations are provided: the two-outcome coin ensemble, whose
correction reduces to a conditional bit flip, and the edge table of a
three-symbol machine that runs on a single stochastic bit of memory
(``single_bit_table``/``single_bit_start``), which ``markov.sample_edges``
walks like any other trajectory sampler.

Randomness is counter-based: every step of an ensemble consumes Philox
streams keyed by (seed, step, substream), and sample number ell always
reads element ell of those streams.  A step runs in blocks of at most
``BLOCK`` samples, and each block draws only its own span of every stream,
starting at the Philox counter of its first sample, so no full-length
stream is ever formed.  The update of one sample depends only
on its own previous state, its own stream elements and the shared constant
tables, so any split of the blocks across threads reproduces the
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .markov import (TransitionMatrix, _check_unit_interval, _row_sums,
                     as_cdf, stationary)

DELTA_ROW_TOL = 1e-12
# samples per block of an ensemble step: the unit of work of one thread,
# small enough that a block's words and temporaries stay a few MB
BLOCK = 1 << 16
# a word's top 53 bits are its uniform's numerator over 2**53
_SHIFT = np.uint64(11)


class DegenerateSupportError(ValueError):
    """The stationary distribution has a zero entry, so the save/reroute
    ratios are undefined."""


def _words(seed: int, step: int, substream: int, count: int,
           start: int = 0) -> np.ndarray:
    """Elements start..start+count-1 of a stream of raw Philox words;
    element ell is a pure function of (seed, step, substream, ell).  One
    counter value gives four words, so the stream is advanced to the counter
    of element ``start`` and the words before it in that counter dropped."""
    key = np.array([seed, (step << 3) | substream], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    bitgen.advance(start // 4)
    return bitgen.random_raw(count + start % 4)[start % 4:]


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


def _below(words: np.ndarray, x: float) -> np.ndarray:
    """Exactly ``u < x`` for the uniforms u of ``words``, unshifted: at x = 1
    the shifted threshold would overflow uint64, but every word is below it."""
    top = int(_threshold(x))
    if top >= 2 ** 53:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(top << 11)


def decompose(chain: TransitionMatrix, pi=None):
    """Split T into 1 pi^T + Delta and return (pi, Delta) as arrays.

    Delta rows sum to 0 (within 1e-12 in float, exactly in rational mode).
    Raises DegenerateSupportError when pi has a zero entry, since the
    correction ratios divide by pi.
    """
    pi = np.asarray(stationary(chain) if pi is None else pi)
    if pi.shape != (chain.n,):
        raise ValueError("pi must have one entry per state")
    if np.any(pi <= 0):
        raise DegenerateSupportError("degenerate stationary support")
    delta = chain.array - pi
    off = np.flatnonzero(~(abs(_row_sums(delta)) <= DELTA_ROW_TOL))
    if off.size:
        raise ValueError(f"Delta row {off[0]} does not sum to 0")
    return pi, delta


def save_fractions(pi, delta) -> np.ndarray:
    """Per-state save probabilities f_j = max over the depleted set of
    -Delta[j][i] / pi[i]; 0 when row j needs no correction.  A float row
    whose every entry is within DELTA_ROW_TOL of 0 needs none: it equals pi
    up to the stationary solve's rounding.  Exact rows are taken as given."""
    pi, delta = np.asarray(pi), np.asarray(delta)
    zero = 0 * pi[0]
    f = np.where(delta < 0, -delta / pi, zero).max(axis=1)
    if delta.dtype != object:
        f[np.all(abs(delta) <= DELTA_ROW_TOL, axis=1)] = zero
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


class _Ensemble:
    """M samples, each a value and a saved flag.  Step t reads ``streams``
    word streams (seed, t, 0..streams-1); ``_update(lo, hi, *words)`` gives
    the new values and flags of samples lo..hi-1 from their own elements of
    each stream, their previous state and the subclass's constant tables.
    ``expected_saved``, a float, is the fraction of samples saved per step
    in the stationary regime.
    """

    def __init__(self, n_samples: int, seed: int):
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.saved_counts = []

    def _draw(self, t: int, substream: int) -> np.ndarray:
        return _words(self.seed, t, substream, self.n_samples)

    def _record(self, t: int, values: np.ndarray, flags: np.ndarray) -> None:
        self.values = values
        self.flags = flags
        self.step_index = t
        self.saved_counts.append(int(np.count_nonzero(flags)))

    def step(self, threads: int = 1) -> np.ndarray:
        """Advance every sample once; returns the new value array."""
        t = self.step_index + 1

        def update(lo: int, hi: int):
            return self._update(lo, hi, *(_words(self.seed, t, s, hi - lo, lo)
                                          for s in range(self.streams)))

        values, flags = zip(*_run_blocks(update, self.n_samples, threads))
        # Blocks are joined once all have run, and one block's results are
        # the new state as they are.  Output arrays allocated before the
        # blocks would sit below each block's words, whose freeing leaves a
        # heap top that the allocator trims and the next block faults back.
        self._record(t, *(np.concatenate(x) if len(x) > 1 else x[0]
                          for x in (values, flags)))
        return self.values


class GeneralQISampler(_Ensemble):
    """Ensemble sampler reproducing a chain from i.i.d. stationary draws.

    Each of the M samples holds its previous value and a saved flag.  Per
    step and sample: draw i from pi; if the previous value j was saved and i
    is in the depleted set of row j, reroute to the surplus set with
    probability r_minus[j][i], choosing the destination from r_plus[j];
    finally save the new value v with probability f_v.  The effective
    kernel of this update is exactly the target chain.
    """

    streams = 4  # draw, accept, pick, save

    def __init__(self, chain: TransitionMatrix, n_samples: int, seed: int):
        super().__init__(n_samples, seed)
        t = RerouteTables.from_chain(chain)
        self.expected_saved = float(expected_memory(t)[0])
        self._pi = _threshold(as_cdf(t.pi))
        self._f = _threshold(t.f)
        self._rminus = _threshold(t.rminus)
        # the r_plus rows of states that never save are never read
        self._rplus = _threshold(as_cdf(t.rplus))
        values = np.searchsorted(self._pi, self._draw(0, 0) >> _SHIFT,
                                 side="right").astype(np.int64)
        self._record(0, values, (self._draw(0, 3) >> _SHIFT) < self._f[values])

    def _update(self, lo, hi, draw, accept, pick, save):
        # searchsorted and argmax see only whether u < cdf[i], which the
        # thresholds keep even where a partial sum passes 1 before the end
        i = np.searchsorted(self._pi, draw >> _SHIFT, side="right")
        j = self.values[lo:hi]
        reroute = self.flags[lo:hi] & ((accept >> _SHIFT) < self._rminus[j, i])
        if reroute.any():
            rows = self._rplus[j[reroute]]
            i[reroute] = ((pick[reroute] >> _SHIFT)[:, None] < rows).argmax(axis=1)
        return i, (save >> _SHIFT) < self._f[i]


class CoinEnsemble(_Ensemble):
    """Save/flip ensemble for the perturbed coin.

    Every sample redraws a fair bit each step.  A saved sample ignores it
    and repeats its previous value when p < 1/2, or emits the complement of
    that value when p > 1/2; then the result is saved again with
    probability |2p - 1|.  This is the two-state save/reroute sampler with
    all tables collapsed into one comparison.  The state is boolean and
    ``values`` is its uint8 view, so it reads as 0/1.
    """

    streams = 2  # draw, save

    def __init__(self, p: float, n_samples: int, seed: int):
        p = float(p)
        _check_unit_interval(p, "p")
        super().__init__(n_samples, seed)
        self.p = p
        # both values are equally likely and save alike
        self.expected_saved = abs(2 * p - 1)
        self._record(0, _below(self._draw(0, 0), 0.5).view(np.uint8),
                     _below(self._draw(0, 1), self.expected_saved))

    def _update(self, lo, hi, draw, save):
        fresh = _below(draw, 0.5)
        saved = self.flags[lo:hi]
        held = self.values[lo:hi].view(bool)
        if self.p > 0.5:
            held = ~held
        return (((saved & held) | (fresh & ~saved)).view(np.uint8),
                _below(save, self.expected_saved))


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


def single_bit_table(p, q) -> list:
    """Edge table of the three-symbol sampler whose entire memory is one
    stochastic bit, for ``markov.sample_edges`` with the bit as the state.

    The bit plays the role of a causal state drawn from the mixture that
    represents the middle state: bit 0 behaves like the quiet state, bit 1
    deterministically emits the run-continuation symbol.  Per step with
    bit 0: emit 2 and set the bit with probability p, else emit 0 and clear
    it.  With bit 1: emit 1, then clear the bit with probability q.  The
    table is not unifilar, since bit 1 emits 1 either way.
    """
    p, q = float(p), float(q)
    _check_unit_interval(p, "p")
    _check_unit_interval(q, "q")
    return [[(2, p, 1), (0, 1 - p, 0)], [(1, q, 0), (1, 1 - q, 1)]]


def single_bit_start(start: int, q, rng: np.random.Generator) -> int:
    """The bit that stands for machine state ``start``: 0 for the quiet
    state, 1 for state 2, and for the middle state a draw that clears the
    bit with probability q, the only case that consumes a uniform."""
    if start == 0:
        return 0
    if start == 2:
        return 1
    if start == 1:
        return 0 if rng.random() < float(q) else 1
    raise ValueError(f"start state must be 0, 1 or 2, got {start}")
