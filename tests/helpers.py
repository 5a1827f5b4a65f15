"""Shared generators for the test suite.

Everything here is seeded by the caller, so the sweeps below are fixed
case lists, not fresh randomness per run.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from qimem.markov import (EpsilonMachine, ReducibleChainError,
                          TransitionMatrix, induced_chain, stationary)


def random_chain(rng: np.random.Generator, n: int) -> TransitionMatrix:
    """Strictly positive rows, hence irreducible and aperiodic."""
    rows = rng.dirichlet(np.ones(n), size=n)
    rows = np.maximum(rows, 1e-9)
    rows /= rows.sum(axis=1, keepdims=True)
    return TransitionMatrix([[float(v) for v in row] for row in rows])


def random_rational_chain(rng: np.random.Generator, n: int) -> TransitionMatrix:
    """Positive rational rows that sum to one exactly."""
    rows = []
    for _ in range(n):
        ks = rng.integers(1, 10, size=n)
        s = int(ks.sum())
        rows.append([Fraction(int(k), s) for k in ks])
    return TransitionMatrix(rows)


def random_machine(rng: np.random.Generator, n_states: int,
                   n_symbols: int) -> EpsilonMachine:
    """Random unifilar machine whose state chain is irreducible."""
    while True:
        emit, succ = [], []
        for _ in range(n_states):
            k = int(rng.integers(1, n_symbols + 1))
            syms = rng.choice(n_symbols, size=k, replace=False)
            probs = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
            probs /= probs.sum()
            emit.append({int(x): float(w) for x, w in zip(syms, probs)})
            succ.append({int(x): int(rng.integers(0, n_states)) for x in syms})
        machine = EpsilonMachine(emit=tuple(emit), succ=tuple(succ),
                                 symbols=tuple(range(n_symbols)))
        try:
            stationary(induced_chain(machine))
        except ReducibleChainError:
            continue
        return machine


def exact_coin_trajectory(p: float, steps: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Direct coin sampler: flip the previous symbol with probability p.

    Independent of the library's samplers, so statistics checked against
    it are a genuine calibration and not a self-comparison.
    """
    flips = rng.random(steps) < p
    first = rng.random() < 0.5
    return ((first + np.cumsum(flips)) % 2).astype(np.int64)


def reference_edge_walk(rows, start: int, steps: int,
                        rng: np.random.Generator):
    """The per-step walk that ``markov.sample_edges`` must reproduce.

    One ``searchsorted`` per step on the current state's CDF: the plainest
    form of the walk, slow but easy to trust.  Returns the symbols and the
    final state.
    """
    syms = [np.array([x for x, _, _ in row]) for row in rows]
    cums = []
    nxts = []
    for row in rows:
        c = np.cumsum([float(pr) for _, pr, _ in row])
        c[-1] = 1.0
        cums.append(c)
        nxts.append(np.array([nx for _, _, nx in row]))
    out = np.empty(steps, dtype=np.int64)
    u = rng.random(steps)
    state = start
    for t in range(steps):
        k = int(np.searchsorted(cums[state], u[t], side="right"))
        out[t] = syms[state][k]
        state = int(nxts[state][k])
    return out, state


def reference_compare_transitions(prev, nxt, law, h: int):
    """The mask-per-context comparison that ``stats.compare_transitions``
    on a ``transition_counts`` matrix must reproduce.

    Context c of ``h`` symbols over the m columns of ``law`` is the c-th
    tuple of ``itertools.product`` and is labelled by its symbols.  Bins
    the next values of every context that occurs and scores each entry
    with scalar arithmetic.  Returns ({label: (max |z|, tv)} over the
    contexts that occur, hard failures).
    """
    prev = np.asarray(prev).ravel()
    nxt = np.asarray(nxt).ravel()
    m = len(law[0])
    rows, hard = {}, []
    for code, context in enumerate(itertools.product(range(m), repeat=h)):
        mask = prev == code
        if not mask.any():
            continue
        label = "".join(str(x) for x in context)
        binned = np.bincount(nxt[mask], minlength=m).tolist()
        n = sum(binned)
        max_z = tv = 0.0
        for y, (c, p) in enumerate(zip(binned, map(float, law[code]))):
            tv += abs(c / n - p)
            if p in (0.0, 1.0):
                if c != (n if p else 0):
                    hard.append(f"{label}>{y}")
            else:
                max_z = max(max_z, abs((c - n * p) / math.sqrt(n * p * (1.0 - p))))
        rows[label] = (max_z, 0.5 * tv)
    return rows, hard
