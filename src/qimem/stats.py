"""One frequency test for every sampler: next-symbol counts per context.

Each word a run emitted, a context (a source state, or the last symbols
of a trajectory) and the symbol after it, is tallied, and the symbols
seen after each context are tested against an exact conditional law with
a binomial z score per entry; only contexts that occur get a row.  When
the context fixes the process's state this is the per-state
transition-count test of Billingsley ("Statistical methods in Markov
chains", Ann. Math. Stat. 1961), and the z scores are calibrated.
Entries the law forbids are never excused: a single observation of one
fails the comparison outright, whatever the z threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def word_counts(seq, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct k-symbol words of a sequence over 0..m-1, coded in base
    m with the most significant symbol first, in increasing order, and how
    often each occurs.  A sequence of fewer than k symbols has no words."""
    seq = np.asarray(seq, dtype=np.int64)
    if k < 1 or seq.ndim != 1:
        raise ValueError("need a 1-d sequence and words of at least 1 symbol")
    if seq.size and not (0 <= seq.min() and seq.max() < m):
        raise ValueError(f"symbols must lie in 0..{m - 1}")
    size = max(0, seq.shape[0] - k + 1)
    codes = np.zeros(size, dtype=np.int64)
    for r in range(k):
        codes = codes * m + seq[r:r + size]
    return np.unique(codes, return_counts=True)


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
                          and prev.max() < n and nxt.max() < n):
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


@dataclass
class TransitionReport:
    """Largest |z| and total variation distance of every row with data,
    keyed by context label; ``windows`` counts all observations."""

    windows: int
    sigma: float
    row_max_abs_z: dict[str, float]
    tv: dict[str, float]
    hard_failures: list[str]

    @property
    def max_abs_z(self) -> float:
        return max(self.row_max_abs_z.values(), default=0.0)

    @property
    def max_tv(self) -> float:
        return max(self.tv.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return not self.hard_failures and self.max_abs_z <= self.sigma


def compare_transitions(words, tallies, law, sigma: float = 5.0,
                        context: int = 1) -> TransitionReport:
    """Binomial z test, per context seen, of word tallies against a law.

    ``words`` holds increasing codes of ``context`` + 1 symbols over the m
    columns of ``law``, as ``word_counts`` gives them, and ``tallies`` how
    often each occurred, at least once.  ``law[x, y]`` is the probability
    of y after x (for ``context`` = 0, one row): a context ending in x is
    judged on row x, zeroed if the context takes a step of probability 0.
    For a context of n observations z = (c - n p) / sqrt(n p (1 - p)) per
    entry.  Entries with p = 0 and a nonzero count, or p = 1 and a count
    below n, are hard failures (named ``<context>><symbol>``) and score
    z = 0.  A label joins the symbols of a context, with dots past ten
    symbols.
    """
    words = np.asarray(words)
    tallies = np.asarray(tallies)
    law = np.asarray(law, dtype=float)
    m = law.shape[-1]
    if law.shape != ((m, m) if context else (1, m)):
        raise ValueError(f"law {law.shape} is not the next-symbol law of "
                         f"contexts of {context} symbols")
    if (words.ndim != 1 or words.shape != tallies.shape
            or not np.all((words >= 0) & (words < m ** (context + 1)))
            or np.any(np.diff(words) <= 0) or np.any(tallies < 1)):
        raise ValueError("need one positive tally per code of "
                         f"{context + 1} symbols, in increasing order")
    if not np.all((law >= 0) & (law <= 1)):
        raise ValueError("law entries must lie in [0, 1]")
    contexts = words // m  # increasing, as the words are
    seen = contexts[np.diff(contexts, prepend=-1) != 0]
    c = np.zeros((seen.size, m), dtype=np.int64)
    c[np.searchsorted(seen, contexts), words % m] = tallies
    p = law[seen % m]
    rest = seen
    for _ in range(context - 1):
        last, rest = rest % m, rest // m
        p[law[rest % m, last] == 0] = 0.0
    n = c.sum(axis=1, keepdims=True)
    inner = (p > 0) & (p < 1)
    sd = np.sqrt(np.where(inner, n * p * (1.0 - p), 1.0))
    z = np.where(inner, (c - n * p) / sd, 0.0)
    # one term at a time in column order, the order the pinned reports
    # were recorded with; np.sum would pair the terms up
    tv = 0.5 * np.cumsum(np.abs(c / n - p), axis=1)[:, -1]
    hard = ((p == 0) & (c > 0)) | ((p == 1) & (c != n))
    sep = "" if m <= 10 else "."
    labels = [sep.join(map(str, np.unravel_index(j, (m,) * context)))
              for j in seen.tolist()]
    return TransitionReport(
        windows=int(n.sum()), sigma=float(sigma),
        row_max_abs_z=dict(zip(labels, np.abs(z).max(axis=1).tolist())),
        tv=dict(zip(labels, tv.tolist())),
        hard_failures=[f"{labels[r]}>{y}" for r, y in zip(*np.nonzero(hard))])


# ``bench/tracing.py`` looks this name up when it instruments the module.
compare = compare_transitions
