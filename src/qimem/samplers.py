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
reads element ell of those streams.  The update of one sample depends only
on its own previous state, its own stream elements and the shared constant
tables, so any partition of the ensemble across threads reproduces the
single-threaded result bit for bit.  Both ensembles read the raw 64-bit
words, whose uniforms in [0, 1) are ``(word >> 11) * 2**-53``, and compare
them against the integer thresholds ``ceil(x * 2**53)`` of their
probabilities x, which decides exactly the same ``u < x`` without forming
a float.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .markov import (TransitionMatrix, _check_unit_interval, _is_exact, as_cdf,
                     stationary)

DELTA_ROW_TOL = 1e-12
# a word's top 53 bits are its uniform's numerator over 2**53
_SHIFT = np.uint64(11)


class DegenerateSupportError(ValueError):
    """The stationary distribution has a zero entry, so the save/reroute
    ratios are undefined."""


def _words(seed: int, step: int, substream: int, count: int) -> np.ndarray:
    """Raw Philox words; element ell is a pure function of (seed, step,
    substream, ell)."""
    key = np.array([seed, (step << 3) | substream], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(count)


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
    """Split T into 1 pi^T + Delta and return (pi, Delta).

    Delta rows sum to 0 (within 1e-12 in float, exactly in rational mode).
    Raises DegenerateSupportError when pi has a zero entry, since the
    correction ratios divide by pi.
    """
    if pi is None:
        pi = stationary(chain)
    n = chain.n
    if len(pi) != n:
        raise ValueError("pi must have one entry per state")
    for w in pi:
        if w <= 0:
            raise DegenerateSupportError("degenerate stationary support")
    delta = tuple(tuple(chain[j][i] - pi[i] for i in range(n))
                  for j in range(n))
    for j, row in enumerate(delta):
        if not abs(sum(row)) <= DELTA_ROW_TOL:
            raise ValueError(f"Delta row {j} does not sum to 0")
    return tuple(pi), delta


def save_fractions(pi, delta) -> tuple:
    """Per-state save probabilities f_j = max over the depleted set of
    -Delta[j][i] / pi[i]; 0 when row j needs no correction.  A float row
    whose every entry is within DELTA_ROW_TOL of 0 needs none: it equals pi
    up to the stationary solve's rounding.  Exact rows are taken as given."""
    out = []
    for row in delta:
        noise = (not all(map(_is_exact, row))
                 and all(abs(d) <= DELTA_ROW_TOL for d in row))
        negs = [] if noise else [(-d, w) for d, w in zip(row, pi) if d < 0]
        out.append(max(d / w for d, w in negs) if negs else 0 * pi[0])
    return tuple(out)


def reroute_ratios(pi, delta, f) -> tuple[tuple, tuple]:
    """Reroute ratios (r_minus, r_plus) as dense per-state tables.

    r_minus[j][i] is the probability of abandoning a fresh draw i given the
    saved value j (nonzero only on the depleted set); r_plus[j][i] is the
    distribution the abandoned draw is rerouted to (supported on the
    surplus set).  Rows with f_j = 0 are identically zero.
    """
    n = len(pi)
    zero = 0 * pi[0]
    rminus = [[zero] * n for _ in range(n)]
    rplus = [[zero] * n for _ in range(n)]
    for j, row in enumerate(delta):
        if f[j] == 0:
            continue
        surplus = sum(d for d in row if d > 0)
        if not surplus > 0:
            raise ValueError(f"Delta row {j} has a depleted set but no surplus")
        for i, d in enumerate(row):
            if d < 0:
                rminus[j][i] = -d / (f[j] * pi[i])
            elif d > 0:
                rplus[j][i] = d / surplus
    return tuple(map(tuple, rminus)), tuple(map(tuple, rplus))


@dataclass(frozen=True)
class RerouteTables:
    """Constant tables driving the save/reroute sampler for one chain."""

    pi: tuple
    delta: tuple
    f: tuple
    rminus: tuple
    rplus: tuple

    @classmethod
    def from_chain(cls, chain: TransitionMatrix) -> "RerouteTables":
        pi, delta = decompose(chain)
        f = save_fractions(pi, delta)
        rminus, rplus = reroute_ratios(pi, delta, f)
        return cls(pi=tuple(pi), delta=tuple(map(tuple, delta)), f=f,
                   rminus=rminus, rplus=rplus)

    @property
    def n(self) -> int:
        return len(self.pi)


def effective_kernel(tables: RerouteTables):
    """Single-step distribution of the save/reroute protocol.

    Row j conditions on the saved value being j, marginalizing over the
    saved flag does not change the row because f_j multiplies the whole
    correction.  The result must reproduce the decomposed chain exactly:
    the depletion removes pi_i f_j r_minus and the zero-sum of Delta routes
    exactly that mass onto the surplus states.
    """
    n = tables.n
    pi, f, rm, rp = tables.pi, tables.f, tables.rminus, tables.rplus
    rows = []
    for j in range(n):
        moved = sum(pi[i2] * rm[j][i2] for i2 in range(n) if rm[j][i2] != 0)
        row = []
        for i in range(n):
            if rm[j][i] != 0:
                row.append(pi[i] * (1 - f[j] * rm[j][i]))
            elif rp[j][i] != 0:
                row.append(pi[i] + f[j] * moved * rp[j][i])
            else:
                row.append(pi[i])
        rows.append(row)
    return rows


def expected_memory(tables: RerouteTables):
    """Expected saved fraction sum_j f_j pi_j and expected saved bits per
    sample and step (ceil(log2 n) bits per save)."""
    fraction = sum(fj * pj for fj, pj in zip(tables.f, tables.pi))
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
        words = [self._draw(t, s) for s in range(self.streams)]
        new_vals = np.empty_like(self.values)
        new_flags = np.empty(self.n_samples, dtype=bool)

        def update(lo: int, hi: int) -> None:
            new_vals[lo:hi], new_flags[lo:hi] = self._update(
                lo, hi, *(w[lo:hi] for w in words))

        _run_chunked(update, self.n_samples, threads)
        self._record(t, new_vals, new_flags)
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
        # an exact chain's CDFs are summed in Fractions, and end at 1 exactly
        cdf = (lambda w: list(accumulate(w))) if chain.exact else as_cdf
        self._pi = _threshold(cdf(t.pi))
        self._f = _threshold(t.f)
        self._rminus = _threshold(t.rminus)
        self._rplus = _threshold([cdf(row) if fj else (1,) * t.n
                                  for fj, row in zip(t.f, t.rplus)])
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


def _run_chunked(update, total: int, threads: int) -> None:
    if threads <= 1 or total < 2:
        update(0, total)
        return
    # at most one chunk per sample and one worker per CPU, so a large
    # --threads neither builds huge bounds nor starts that many OS threads
    chunks = min(threads, total)
    bounds = np.linspace(0, total, chunks + 1).astype(int)
    with ThreadPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
        jobs = [pool.submit(update, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        for job in jobs:
            job.result()


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
