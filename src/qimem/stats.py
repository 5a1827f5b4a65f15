"""Frequency tests of sampled trajectories against exact word laws.

Counts are compared gram by gram with a binomial z score.  Grams the
oracle forbids are never excused: a single observation of one fails the
comparison outright, whatever the z threshold, because a correct sampler
cannot produce them at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def count_kgrams(seq, k: int, symbols) -> dict[str, int]:
    """Sliding-window counts of length-k words in a symbol sequence.

    Symbols are non-negative integers.  Keys concatenate them as strings
    ("201" for the word 2,0,1).  A sequence of length n yields n - k + 1
    windows.
    """
    seq = np.asarray(seq)
    if k < 1:
        raise ValueError("k must be at least 1")
    if seq.ndim != 1 or seq.shape[0] < k:
        raise ValueError("sequence shorter than k")
    symbols = tuple(symbols)
    if not np.issubdtype(seq.dtype, np.integer) or min(symbols) < 0:
        raise ValueError("symbols must be non-negative integers")
    a = len(symbols)
    top = max(symbols)
    lut = np.full(top + 1, -1, dtype=np.int64)
    lut[list(symbols)] = np.arange(a)
    vals = seq.astype(np.int64, copy=False)
    outside = (vals < 0) | (vals > top)
    if outside.any():
        raise ValueError(
            f"symbol {int(vals[int(outside.argmax())])} not in alphabet")
    idx = lut[vals]
    if (idx < 0).any():
        raise ValueError(
            f"symbol {int(vals[int((idx < 0).argmax())])} not in alphabet")
    windows = seq.shape[0] - k + 1
    codes = np.zeros(windows, dtype=np.int64)
    for r in range(k):
        codes = codes * a + idx[r:r + windows]
    counts = np.bincount(codes, minlength=a ** k)
    out = {}
    for code in np.flatnonzero(counts):
        word = []
        c = int(code)
        for _ in range(k):
            word.append(symbols[c % a])
            c //= a
        out["".join(str(x) for x in reversed(word))] = int(counts[code])
    return out


@dataclass
class ComparisonReport:
    """Outcome of one counts-versus-oracle comparison."""

    windows: int
    sigma: float
    z: dict[str, float]
    tv: float
    hard_failures: list[str] = field(default_factory=list)

    @property
    def max_abs_z(self) -> float:
        return max((abs(v) for v in self.z.values()), default=0.0)

    @property
    def passed(self) -> bool:
        return not self.hard_failures and self.max_abs_z <= self.sigma

    def to_text(self) -> str:
        lines = [f"windows={self.windows}",
                 f"sigma={self.sigma!r}",
                 f"max_abs_z={self.max_abs_z!r}",
                 f"tv={self.tv!r}",
                 f"hard_failures={';'.join(self.hard_failures)}",
                 f"passed={'true' if self.passed else 'false'}"]
        lines += [f"z_{gram}={self.z[gram]!r}" for gram in sorted(self.z)]
        return "\n".join(lines) + "\n"


def compare(counts: dict, oracle: dict, sigma: float = 5.0) -> ComparisonReport:
    """Binomial z test of observed gram counts against exact probabilities.

    z = (observed - N p) / sqrt(N p (1 - p)) per gram.  Grams with p = 0
    and a nonzero count, or p = 1 and a count below N, are hard failures.
    """
    n = sum(counts.values())
    if n < 1:
        raise ValueError("no data to compare")
    z: dict[str, float] = {}
    hard: list[str] = []
    tv = 0.0
    for gram in sorted(set(counts) | set(oracle)):
        p = float(oracle.get(gram, 0))
        c = int(counts.get(gram, 0))
        tv += abs(c / n - p)
        if p == 0.0:
            if c > 0:
                hard.append(gram)
            z[gram] = 0.0
        elif p == 1.0:
            if c != n:
                hard.append(gram)
            z[gram] = 0.0
        else:
            z[gram] = (c - n * p) / math.sqrt(n * p * (1.0 - p))
    return ComparisonReport(windows=n, sigma=float(sigma), z=z, tv=0.5 * tv,
                            hard_failures=hard)


def tv_distance(a: dict, b: dict) -> float:
    """Total variation distance between two distributions given as dicts;
    missing keys count as probability zero."""
    keys = set(a) | set(b)
    return 0.5 * sum(abs(float(a.get(k, 0)) - float(b.get(k, 0))) for k in keys)


def transition_counts(prev, nxt, n: int) -> np.ndarray:
    """n x n int64 matrix whose entry [j, i] counts the steps from value j
    to value i, for aligned arrays of values in 0..n-1.

    Two states need no code array: the ones in each array and the 1 -> 1
    steps fix all four entries."""
    prev = np.asarray(prev).ravel()
    nxt = np.asarray(nxt).ravel()
    if prev.shape != nxt.shape:
        raise ValueError("prev and nxt must align")
    if prev.size and not (0 <= min(prev.min(), nxt.min())
                          and max(prev.max(), nxt.max()) < n):
        raise ValueError(f"values must lie in 0..{n - 1}")
    if n == 2:
        ones_prev = np.count_nonzero(prev)
        ones_next = np.count_nonzero(nxt)
        stay = np.count_nonzero(prev & nxt)
        return np.array([[prev.size - ones_prev - ones_next + stay,
                          ones_next - stay],
                         [ones_prev - stay, stay]], dtype=np.int64)
    codes = prev.astype(np.int64, copy=False) * n + nxt
    return np.bincount(codes, minlength=n * n).reshape(n, n)


def compare_transitions(counts: np.ndarray, chain, sigma: float = 5.0):
    """Per-source-state comparison of observed transitions against a chain.

    ``counts`` is a ``transition_counts`` matrix.  Returns (reports,
    max_row_tv) where ``reports[j]`` tests the next-value counts of row j
    against row j of the chain.  Rows with no transitions are skipped.
    """
    counts = np.asarray(counts)
    if counts.shape != (chain.n, chain.n):
        raise ValueError(f"counts must be {chain.n} x {chain.n}")
    reports: dict[int, ComparisonReport] = {}
    max_tv = 0.0
    for j, row in enumerate(counts):
        if not row.any():
            continue
        observed = {str(i): int(c) for i, c in enumerate(row) if c > 0}
        oracle = {str(i): float(chain[j][i]) for i in range(chain.n)
                  if chain[j][i] != 0}
        reports[j] = compare(observed, oracle, sigma)
        max_tv = max(max_tv, reports[j].tv)
    return reports, max_tv
