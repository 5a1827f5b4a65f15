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


def floored_chain(rows) -> TransitionMatrix:
    """Float rows, each entry raised to at least 1e-12 and each row then
    divided by its sum: a Dirichlet draw with small alpha stays
    irreducible."""
    rows = np.maximum(rows, 1e-12)
    return TransitionMatrix((rows / rows.sum(axis=1, keepdims=True)).tolist())


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
        probs = np.zeros((n_states, n_symbols))
        succ = np.zeros((n_states, n_symbols), dtype=np.int64)
        for i in range(n_states):
            k = int(rng.integers(1, n_symbols + 1))
            syms = rng.choice(n_symbols, size=k, replace=False)
            w = np.maximum(rng.dirichlet(np.ones(k)), 1e-6)
            probs[i, syms] = w / w.sum()
            succ[i, syms] = [int(rng.integers(0, n_states)) for _ in syms]
        machine = EpsilonMachine(probs, succ)
        try:
            stationary(induced_chain(machine))
        except ReducibleChainError:
            continue
        return machine


def machine_edges(machine: EpsilonMachine) -> list:
    """A machine's edges as tuple rows, the form the oracles read: row s
    lists ``(symbol, probability, next_state)`` for each symbol that state
    s emits with probability above 0, in symbol order."""
    return [[(x, pr, nx) for x, (pr, nx) in enumerate(zip(probs, succ))
             if pr > 0]
            for probs, succ in zip(machine.probs.tolist(),
                                   machine.succ.tolist())]


def reference_stationary(T: TransitionMatrix) -> np.ndarray:
    """The float power iteration that ``markov.stationary`` must reproduce
    byte for byte: one iterate at a time, with a fresh array for every
    product, difference and average.  Reads ``MAX_POWER_ITER`` at call
    time and raises ``ConvergenceError`` after that many iterates."""
    A = np.array([[float(v) for v in row] for row in T.array])
    pi = np.full(T.n, 1.0 / T.n)
    for _ in range(markov.MAX_POWER_ITER):
        step = pi @ A
        if np.max(np.abs(step - pi)) < markov.STATIONARY_TOL:
            return pi
        pi = 0.5 * (step + pi)
        pi /= pi.sum()
    raise markov.ConvergenceError("reference power iteration did not converge")


def reference_density_spectrum(machine: EpsilonMachine,
                               weights=None) -> np.ndarray:
    """The memory spectrum by the dense route that ``quantum.memory_spectrum``
    replaces: each state as a unit vector with amplitude sqrt(P(x|i)) at
    flat index nxt * n_symbols + x of the state x output space, their
    weighted mixture as an (n * a) x (n * a) matrix, and all of its
    eigenvalues, descending and clipped at 0.  Its cost grows as (n * a)^2,
    so keep it to small machines."""
    if weights is None:
        weights = stationary(induced_chain(machine))
    a = machine.n_symbols
    rho = np.zeros((machine.n * a, machine.n * a))
    for w, edges in zip(weights, machine_edges(machine)):
        vec = np.zeros(machine.n * a)
        for x, pr, nxt in edges:
            vec[nxt * a + x] = math.sqrt(float(pr))
        rho += float(w) * np.outer(vec, vec)
    return np.clip(np.linalg.eigvalsh(rho)[::-1], 0.0, None)


def reference_reroute_tables(chain: TransitionMatrix) -> tuple:
    """The save/reroute tables that ``RerouteTables.from_chain`` must
    reproduce, (pi, Delta, f, r_minus, r_plus) as tuples, each entry
    computed on its own and each sum taken left to right by ``sum``."""
    pi = tuple(stationary(chain))
    n = chain.n
    rows = chain.array.tolist()
    delta = tuple(tuple(rows[j][i] - pi[i] for i in range(n))
                  for j in range(n))
    zero = 0 * pi[0]
    f = []
    for row in delta:
        # a float row within the tolerance of pi needs no saves
        noise = (not all(isinstance(d, Fraction) for d in row)
                 and all(abs(d) <= markov.ROW_SUM_TOL for d in row))
        negs = [] if noise else [(-d, w) for d, w in zip(row, pi) if d < 0]
        f.append(max(d / w for d, w in negs) if negs else zero)
    rminus = [[zero] * n for _ in range(n)]
    rplus = [[zero] * n for _ in range(n)]
    for j, row in enumerate(delta):
        if f[j] == 0:
            continue
        surplus = sum(d for d in row if d > 0)
        for i, d in enumerate(row):
            if d < 0:
                rminus[j][i] = -d / (f[j] * pi[i])
            elif d > 0:
                rplus[j][i] = d / surplus
    return (pi, delta, tuple(f), tuple(map(tuple, rminus)),
            tuple(map(tuple, rplus)))


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
    fwd = [[i for i in range(n) if T.array[j, i] > 0] for j in range(n)]
    bwd = [[j for j in range(n) if T.array[j, i] > 0] for i in range(n)]
    return len(reach(fwd)) == n and len(reach(bwd)) == n


MAX_KGRAM = 8


def exact_kgram_distribution(machine: EpsilonMachine, k: int,
                             start: int | None = None) -> dict:
    """Exact probability of every length-k output word.

    With ``start=None`` the hidden state is drawn from the stationary
    distribution; otherwise the word law is conditioned on starting in
    ``start``.  Keys are tuples of the emitted symbols ((2, 0, 1) for the
    word 2,0,1).  Words of probability zero are omitted.  Probabilities
    are exact rationals when the machine is exact and its stationary state
    is not needed in float form.
    """
    if not 1 <= k <= MAX_KGRAM:
        raise ValueError(f"k must be in 1..{MAX_KGRAM}, got {k}")
    if start is None:
        weights = stationary(induced_chain(machine))
        initial = list(enumerate(weights))
    else:
        if not 0 <= start < machine.n:
            raise ValueError(f"start state {start} out of range")
        initial = [(start, Fraction(1) if machine.exact else 1.0)]
    out: dict = {}
    rows = machine_edges(machine)
    frontier = {((), i): w for i, w in initial if w != 0}
    for _ in range(k):
        nxt: dict = {}
        for (word, i), w in frontier.items():
            for x, pr, after in rows[i]:
                key = (word + (x,), after)
                nxt[key] = nxt.get(key, 0) + w * pr
        frontier = nxt
    for (word, _), w in frontier.items():
        out[word] = out.get(word, 0) + w
    return {word: w for word, w in sorted(out.items()) if w != 0}


def context_law(chain, h: int) -> np.ndarray:
    """Dense law of the next symbol after every h-symbol context of a walk
    of ``chain``, the oracle of ``stats.compare_transitions``: row c codes
    its context in base n, most significant symbol first, and is the chain
    row of the context's last state, or zeros if the context takes a step
    of probability 0; for h = 0 it is the stationary law.  For h > 0,
    ``chain`` may also be a square array of entries in [0, 1].  The n ** h
    rows are all built, so keep n ** h small."""
    if h == 0:
        return np.array([stationary(chain)], dtype=float)
    rows = (chain.to_numpy() if isinstance(chain, TransitionMatrix)
            else np.asarray(chain, dtype=float))
    n, positive = len(rows), rows > 0
    emitted = np.ones(n, dtype=bool)
    for _ in range(h - 1):
        emitted = (emitted.reshape(-1, n, 1) & positive).ravel()
    return np.tile(rows, (n ** (h - 1), 1)) * emitted[:, None]


def matrix_words(counts) -> tuple:
    """The words and tallies of a count matrix as ``simulate`` passes an
    ensemble's counts to ``stats.compare_transitions``: the flat indices
    of the nonzero cells and their counts."""
    counts = np.asarray(counts).ravel()
    words = np.flatnonzero(counts)
    return words, counts[words]


def exact_coin_trajectory(p: float, steps: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Direct coin sampler: flip the previous symbol with probability p.

    Independent of the library's samplers, so statistics checked against
    it are a genuine calibration and not a self-comparison.
    """
    flips = rng.random(steps) < p
    first = rng.random() < 0.5
    return ((first + np.cumsum(flips)) % 2).astype(np.int64)


def walk(chain: TransitionMatrix, start: int, steps: int,
         rng: np.random.Generator) -> np.ndarray:
    """The states entered by a whole ``markov.walk_chain`` walk of
    ``chain``, its blocks laid end to end."""
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *markov.walk_chain(chain, start, steps, rng)])


def reference_walk(chain: TransitionMatrix, start: int, steps: int,
                   rng: np.random.Generator) -> np.ndarray:
    """The per-step walk that ``markov.walk_chain`` must reproduce.

    One ``searchsorted`` per step on the CDF of the current row's positive
    entries, its last pinned to 1: the plainest form of the walk, slow but
    easy to trust.  Returns the states entered.
    """
    nxts, cums = [], []
    for row in chain.array:
        nxt = np.flatnonzero(row > 0)
        c = np.cumsum([float(row[i]) for i in nxt])
        c[-1] = 1.0
        nxts.append(nxt)
        cums.append(c)
    out = np.empty(steps, dtype=np.int64)
    state = start
    for t, u in enumerate(rng.random(steps)):
        k = int(np.searchsorted(cums[state], u, side="right"))
        state = out[t] = nxts[state][k]
    return out


def single_bit_chain(p, q) -> tuple[TransitionMatrix, np.ndarray]:
    """The single-bit sampler written out by hand, the reference that
    ``samplers.factor_chain`` of the post-processed coin's factors must
    walk alike: a chain over the pairs (symbol just emitted, bit now held),
    (2, 1), (0, 0), (1, 0) and (1, 1) in that order, and their symbols.

    With bit 0: emit 2 and set the bit with probability p, else emit 0 and
    clear it.  With bit 1: emit 1, then clear the bit with probability q.
    """
    p, q = float(p), float(q)
    markov._check_unit_interval(p, "p")
    markov._check_unit_interval(q, "q")
    bit0, bit1 = [p, 1 - p, 0.0, 0.0], [0.0, 0.0, q, 1 - q]
    return TransitionMatrix([bit1, bit0, bit0, bit1]), np.array([2, 0, 1, 1])


def single_bit_start(start: int, q, rng: np.random.Generator) -> int:
    """The pair of ``single_bit_chain`` that stands for machine state
    ``start``: (0, 0) for the quiet state, (2, 1) for state 2, and for the
    middle state (1, 0) or (1, 1), by a draw that clears the bit with
    probability q, the only case that consumes a uniform."""
    if start == 0:
        return 1
    if start == 2:
        return 0
    if start == 1:
        return 2 if rng.random() < float(q) else 3
    raise ValueError(f"start state must be 0, 1 or 2, got {start}")


def post_processed_rows(p, q) -> list:
    """The post-processed coin's rows written out by hand."""
    return [[1 - p, 0, p], [q * (1 - p), 1 - q, q * p], [0, 1, 0]]


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
    must reproduce on the words ``prev * m + nxt``.

    Context c of ``h`` symbols over the m columns of ``law`` is the c-th
    tuple of ``itertools.product``, is labelled by its symbols and is
    judged on row c of ``law``, which holds one row per context, as
    ``context_law`` builds them.  Bins the next values of every context
    that occurs and scores each entry with scalar arithmetic.  Returns ({label: (max |z|, tv)} over the
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


def reference_row_search(rows: np.ndarray, j: np.ndarray,
                         pick: np.ndarray) -> np.ndarray:
    """The reroute destination that ``samplers._RowSearch`` must give: for
    each pair, the first index k with ``pick < rows[j][k]``, by comparing
    the pick with the whole of its row, a k x n array for k pairs."""
    return (pick[:, None] < rows[j]).argmax(axis=1)


class ReferenceQISampler:
    """The save/reroute ensemble on float uniforms and float CDFs, which
    ``samplers.GeneralQISampler`` must reproduce on integer thresholds:
    same streams, same tables, one chunk."""

    def __init__(self, chain: TransitionMatrix, n_samples: int, seed: int):
        tables = RerouteTables.from_chain(chain)
        n = tables.n
        self.n_samples, self.seed = n_samples, seed
        self.pi_cdf = as_cdf(tables.pi.astype(float))
        self.f = np.array([float(v) for v in tables.f])
        self.rminus = np.array([[float(v) for v in row]
                                for row in tables.rminus])
        self.rplus_cdf = np.ones((n, n))
        for j in range(n):
            if tables.f[j] != 0:
                self.rplus_cdf[j] = as_cdf(tables.rplus[j].astype(float))
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


def reference_bp(graph) -> dict:
    """One state's belief propagation the per-state way, on a graph of
    matrices (``CycleFactorGraph.state(j)``): 1-D messages from the unit
    vector at variable 0, each cut product multiplied out in full from the
    identity, marginals normalized by their own sums.  The shared graph's
    messages, cut diagonals and marginals must match it bit for bit."""
    factors, L = graph.factors, graph.n_vars
    init = np.zeros(graph.dims[0])
    init[0] = 1.0
    forward = [init]
    for factor in factors:
        forward.append(factor @ forward[-1])
    backward = [init] + [None] * L
    current = init
    for ell in range(L - 1, -1, -1):
        current = current @ factors[ell]
        backward[ell if ell > 0 else L] = current
    marginals = []
    for mu, nu in zip(forward[:L], backward[:L]):
        prod = mu * nu
        marginals.append(prod / prod.sum())
    return {"forward": forward, "backward": backward, "marginals": marginals,
            "diagonals": [diagonal_distribution(probability_matrix(graph, v))
                          for v in range(L)]}


def probability_matrix(graph, var: int) -> np.ndarray:
    """Cyclic product of all factors of a graph of matrices cut open at
    ``var``: P_var = F_{var-1} ... F_0 F_{L-1} ... F_var."""
    L = graph.n_vars
    if not 0 <= var < L:
        raise ValueError(f"variable {var} out of range")
    P = np.eye(graph.dims[var])
    for k in range(L):
        P = graph.factors[(var + k) % L] @ P
    return P


def diagonal_distribution(P: np.ndarray) -> np.ndarray:
    z = np.trace(P)
    if z == 0:
        raise ValueError("zero normalizer")
    return np.diag(P) / z
