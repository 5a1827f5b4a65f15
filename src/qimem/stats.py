"""One frequency test for every sampler: next-symbol counts per context.

A count matrix holds, per context (a source state, or the last symbols
of a trajectory), how often each symbol came next, and each row is tested
against an exact conditional law with a binomial z score per entry.  When
the context fixes the process's state this is the per-state
transition-count test of Billingsley ("Statistical methods in Markov
chains", Ann. Math. Stat. 1961), and the z scores are calibrated.
Entries the law forbids are never excused: a single observation of one
fails the comparison outright, whatever the z threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def context_counts(seq, h: int, m: int) -> np.ndarray:
    """``transition_counts`` of the symbol after each h-symbol context of
    a sequence over 0..m-1: an m ** h x m matrix whose row c codes its
    context in base m, most significant symbol first."""
    seq = np.asarray(seq, dtype=np.int64)
    if h < 0 or seq.ndim != 1 or seq.shape[0] < h:
        raise ValueError("need a 1-d sequence of at least h symbols")
    if seq.size and not (0 <= seq.min() and seq.max() < m):
        raise ValueError(f"symbols must lie in 0..{m - 1}")
    size = seq.shape[0] - h
    codes = np.zeros(size, dtype=np.int64)
    for r in range(h):
        codes = codes * m + seq[r:r + size]
    return transition_counts(codes, seq[h:], m ** h, m)


def transition_counts(prev, nxt, n: int, m: int | None = None) -> np.ndarray:
    """n x m (default n x n) int64 matrix whose entry [j, i] counts the
    steps from value j to value i, for aligned arrays of values in 0..n-1
    and 0..m-1.

    Two states need no code array: the ones in each array and the 1 -> 1
    steps fix all four entries."""
    m = n if m is None else m
    prev = np.asarray(prev).ravel()
    nxt = np.asarray(nxt).ravel()
    if prev.shape != nxt.shape:
        raise ValueError("prev and nxt must align")
    if prev.size and not (0 <= min(prev.min(), nxt.min())
                          and prev.max() < n and nxt.max() < m):
        raise ValueError(f"values must lie in 0..{n - 1} and 0..{m - 1}")
    if n == m == 2:
        ones_prev = np.count_nonzero(prev)
        ones_next = np.count_nonzero(nxt)
        stay = np.count_nonzero(prev & nxt)
        return np.array([[prev.size - ones_prev - ones_next + stay,
                          ones_next - stay],
                         [ones_prev - stay, stay]], dtype=np.int64)
    codes = prev.astype(np.int64, copy=False) * m + nxt
    return np.bincount(codes, minlength=n * m).reshape(n, m)


@dataclass
class TransitionReport:
    """z scores and total variation distance of every row with data, keyed
    by context label; ``windows`` counts all observations."""

    windows: int
    sigma: float
    z: dict[str, np.ndarray]
    tv: dict[str, float]
    hard_failures: list[str]

    @functools.cached_property
    def row_max_abs_z(self) -> dict[str, float]:
        return {c: float(np.max(np.abs(z))) for c, z in self.z.items()}

    @property
    def max_abs_z(self) -> float:
        return max(self.row_max_abs_z.values(), default=0.0)

    @property
    def max_tv(self) -> float:
        return max(self.tv.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return not self.hard_failures and self.max_abs_z <= self.sigma


def compare_transitions(counts, law, sigma: float = 5.0,
                        context: int = 1) -> TransitionReport:
    """Row-by-row binomial z test of a count matrix against a law.

    Row c of ``counts`` holds the symbols seen after the context coded c,
    of ``context`` symbols over the m columns (m ** context rows), and
    ``law[c, y]`` is the probability of y after it.  For a row of n > 0
    observations z = (c - n p) / sqrt(n p (1 - p)) per entry.  Entries with
    p = 0 and a nonzero count, or p = 1 and a count below n, are hard
    failures (named ``<context>><symbol>``) and score z = 0.  Rows with no
    data are skipped.  A label joins the symbols of a context, with dots
    past ten symbols.
    """
    counts = np.asarray(counts)
    law = np.asarray(law, dtype=float)
    m = counts.shape[-1]
    if counts.shape != law.shape or counts.shape != (m ** context, m):
        raise ValueError(f"counts {counts.shape} and law {law.shape} do not "
                         f"cover the contexts of {context} symbols")
    if not np.all((law >= 0) & (law <= 1)):
        raise ValueError("law entries must lie in [0, 1]")
    seen = np.flatnonzero(counts.sum(axis=1))
    c = counts[seen]
    p = law[seen]
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
        z=dict(zip(labels, z)), tv=dict(zip(labels, tv.tolist())),
        hard_failures=[f"{labels[r]}>{y}" for r, y in zip(*np.nonzero(hard))])


# ``bench/tracing.py`` looks this name up when it instruments the module.
compare = compare_transitions
