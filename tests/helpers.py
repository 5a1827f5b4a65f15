"""Shared generators for the test suite.

Everything here is seeded by the caller, so the sweeps below are fixed
case lists, not fresh randomness per run.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from qimem import markov
from qimem.markov import (EpsilonMachine, ReducibleChainError,
                          TransitionMatrix, as_cdf, induced_chain, stationary)
from qimem.samplers import RerouteTables


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
        edges = []
        for _ in range(n_states):
            k = int(rng.integers(1, n_symbols + 1))
            syms = rng.choice(n_symbols, size=k, replace=False)
            probs = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
            probs /= probs.sum()
            nexts = [int(rng.integers(0, n_states)) for _ in syms]
            edges.append(tuple(sorted(
                (int(x), float(w), nx)
                for x, w, nx in zip(syms, probs, nexts))))
        machine = EpsilonMachine(tuple(edges), n_symbols)
        try:
            stationary(induced_chain(machine))
        except ReducibleChainError:
            continue
        return machine


def reference_stationary(T: TransitionMatrix) -> np.ndarray:
    """The float power iteration that ``markov.stationary`` must reproduce
    byte for byte: one iterate at a time, with a fresh array for every
    product, difference and average.  Reads ``MAX_POWER_ITER`` at call
    time and raises ``ConvergenceError`` after that many iterates."""
    A = np.array([[float(v) for v in row] for row in T.rows])
    pi = np.full(T.n, 1.0 / T.n)
    for _ in range(markov.MAX_POWER_ITER):
        step = pi @ A
        if np.max(np.abs(step - pi)) < markov.STATIONARY_TOL:
            return pi
        pi = 0.5 * (step + pi)
        pi /= pi.sum()
    raise markov.ConvergenceError("reference power iteration did not converge")


def reference_strongly_connected(T: TransitionMatrix) -> bool:
    """Depth-first search over the positive entries of T, forward and
    backward from state 0: the plainest irreducibility test."""
    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            j = stack.pop()
            for i in adj[j]:
                if i not in seen:
                    seen.add(i)
                    stack.append(i)
        return seen

    n = T.n
    fwd = [[i for i in range(n) if T[j][i] > 0] for j in range(n)]
    bwd = [[j for j in range(n) if T[j][i] > 0] for i in range(n)]
    return len(reach(fwd)) == n and len(reach(bwd)) == n


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


def reference_ensemble_csv(steps) -> bytes:
    """The ensemble ``--out`` file for the values of steps 0, 1, ...: the
    header, then one ``f"{t},{i},{v}\\n"`` line per sample of each step."""
    lines = ["step,sample,value\n"]
    for t, values in enumerate(steps):
        lines += [f"{t},{i},{v}\n" for i, v in enumerate(values.tolist())]
    return "".join(lines).encode()


def reference_trajectory_text(symbols) -> bytes:
    """The trajectory ``--out`` file of a run: one ``f"{x}\\n"`` line per
    emitted symbol."""
    return "".join(f"{x}\n" for x in symbols).encode()


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


def reference_uniforms(seed: int, step: int, substream: int,
                       count: int) -> np.ndarray:
    """The uniforms in [0, 1) of the ensembles' Philox streams, drawn by
    numpy's own float conversion rather than from the raw words."""
    key = np.array([seed, (step << 3) | substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


class ReferenceQISampler:
    """The save/reroute ensemble on float uniforms and float CDFs, which
    ``samplers.GeneralQISampler`` must reproduce on integer thresholds:
    same streams, same tables, one chunk."""

    def __init__(self, chain: TransitionMatrix, n_samples: int, seed: int):
        tables = RerouteTables.from_chain(chain)
        n = tables.n
        self.n_samples, self.seed = n_samples, seed
        self.pi_cdf = as_cdf(tables.pi)
        self.f = np.array([float(v) for v in tables.f])
        self.rminus = np.array([[float(v) for v in row]
                                for row in tables.rminus])
        self.rplus_cdf = np.ones((n, n))
        for j in range(n):
            if tables.f[j] != 0:
                self.rplus_cdf[j] = as_cdf(tables.rplus[j])
        self.step_index = 0
        self.values = np.searchsorted(
            self.pi_cdf, reference_uniforms(seed, 0, 0, n_samples),
            side="right").astype(np.int64)
        self.flags = reference_uniforms(seed, 0, 3, n_samples) < self.f[self.values]
        self.saved_counts = [int(self.flags.sum())]

    def step(self) -> np.ndarray:
        t = self.step_index = self.step_index + 1
        u_draw, u_accept, u_pick, u_save = (
            reference_uniforms(self.seed, t, s, self.n_samples)
            for s in range(4))
        i = np.searchsorted(self.pi_cdf, u_draw, side="right").astype(np.int64)
        j = self.values
        reroute = self.flags & (u_accept < self.rminus[j, i])
        if reroute.any():
            rows = self.rplus_cdf[j[reroute]]
            i[reroute] = (u_pick[reroute, None] < rows).argmax(axis=1)
        self.values = i
        self.flags = u_save < self.f[i]
        self.saved_counts.append(int(self.flags.sum()))
        return self.values
