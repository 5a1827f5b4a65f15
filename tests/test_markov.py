"""Chains, machines, stationary states and exact word laws.

Pinned constants were derived independently before being frozen here:
stationary vectors by exact elimination done by hand, entropies from
their closed-form arguments.
"""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qimem import markov
from qimem.markov import (EpsilonMachine, ReducibleChainError,
                          TransitionMatrix, binary_entropy,
                          coin_mutual_info_bound, context_law, entropy_bits,
                          exact_kgram_distribution, induced_chain,
                          machine_from_chain, perturbed_coin,
                          post_processed_coin, sample_edges, stationary,
                          statistical_memory, topological_memory)
from qimem.quantum import circuit_step_table
from qimem.samplers import single_bit_table, three_state_demo_chain

from helpers import (random_chain, random_machine, random_rational_chain,
                     reference_edge_walk, reference_stationary,
                     reference_strongly_connected)

DEMO = three_state_demo_chain(F(1, 9), F(2, 3))
DEMO_PI = (F(2, 9), F(1, 2), F(5, 18))


def test_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix([[0.5, 0.5]])
    with pytest.raises(ValueError):
        TransitionMatrix([])
    with pytest.raises(ValueError):
        TransitionMatrix([[0.5, 0.6], [0.5, 0.4]])
    with pytest.raises(ValueError):
        TransitionMatrix([[-0.1, 1.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        TransitionMatrix([[F(1, 3), F(1, 3)], [F(1, 2), F(1, 2)]])


def test_exact_flag():
    assert TransitionMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]).exact
    assert not TransitionMatrix([[0.5, 0.5], [0.25, 0.75]]).exact
    assert DEMO.exact


def test_matrix_numpy_roundtrip():
    A = DEMO.to_numpy()
    assert A.shape == (3, 3)
    assert A[1, 0] == pytest.approx(float(F(1, 9)), abs=0)
    assert TransitionMatrix(A.tolist()) == TransitionMatrix(A.tolist())


TINY = F(1, 2**1100)  # positive, but 0.0 as a float


@pytest.mark.parametrize("rows", [
    random_chain(np.random.default_rng(4), 5).rows,
    DEMO.rows,
    [[0, 1], [0.25, 0.75]],
    [[1 - TINY, TINY], [F(1, 2), F(1, 2)]],
    [[F(10**400 + 1, 10**400 + 3), F(2, 10**400 + 3)], [1, 0]],
])
def test_matrix_numpy_is_each_entry_as_float(rows):
    A = TransitionMatrix(rows).to_numpy()
    entrywise = np.array([[float(v) for v in row] for row in rows])
    assert A.dtype == np.float64 and A.shape == entrywise.shape
    assert A.tobytes() == entrywise.tobytes()


def test_coin_machine():
    m = perturbed_coin(F(1, 4))
    assert m.exact and m.n == 2 and m.n_symbols == 2
    assert m.edges == (((0, F(3, 4), 0), (1, F(1, 4), 1)),
                       ((0, F(1, 4), 0), (1, F(3, 4), 1)))
    chain = induced_chain(m)
    assert chain[0][1] == F(1, 4) and chain[1][1] == F(3, 4)


def test_coin_degenerate_ends():
    # zero-probability emissions are dropped from the support
    frozen = perturbed_coin(0)
    assert frozen.edges == (((0, 1, 0),), ((1, 1, 1),))
    hot = perturbed_coin(1)
    assert hot.edges == (((1, 1, 1),), ((0, 1, 0),))
    with pytest.raises(ValueError):
        perturbed_coin(1.2)


def test_postproc_machine():
    m = post_processed_coin(F(1, 9), F(2, 3))
    assert m.exact and m.n == 3 and m.n_symbols == 3
    # emitted symbol names the successor state
    assert m.edges == (((0, F(8, 9), 0), (2, F(1, 9), 2)),
                       ((0, F(16, 27), 0), (1, F(1, 3), 1),
                        (2, F(2, 27), 2)),
                       ((1, 1, 1),))


def test_machine_validation():
    nan = float("nan")
    for edges, n_symbols, reason in [
        ((((0, 1.0, 5),),), 1, "successor"),           # past the states
        ((((0, 1.0, -1),),), 1, "successor"),          # negative
        ((((0, 0.5, 0),),), 1, "sum"),
        ((((3, 1.0, 0),),), 2, "symbol 3"),            # past n_symbols
        ((((1, 0.5, 0), (0, 0.5, 0)),), 2, "symbol 0"),  # decreasing
        # one symbol twice: not unifilar
        ((((0, 0.5, 0), (0, 0.5, 1)), ((0, 1.0, 0),)), 2, "symbol 0"),
        ((((0, nan, 0), (1, 1.0, 0)),), 2, "sum"),
        ((((0, 1.0, 0),), ()), 1, "state 1 has no outputs"),
        ((), 1, "at least one state"),
    ]:
        with pytest.raises(ValueError, match=reason):
            EpsilonMachine(edges, n_symbols)


def test_nan_and_inf_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError):
            TransitionMatrix([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            TransitionMatrix([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError):
            EpsilonMachine((((0, bad, 0), (1, 0.5, 0)),), 2)
        with pytest.raises(ValueError):
            perturbed_coin(bad)
        with pytest.raises(ValueError):
            post_processed_coin(0.3, bad)
        with pytest.raises(ValueError):
            coin_mutual_info_bound(bad)
    # the endpoints stay valid
    for p in (0, 1, 0.0, 1.0, F(0), F(1)):
        perturbed_coin(p)
        post_processed_coin(p, p)


def test_machine_chain_roundtrip():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        T = random_chain(rng, n)
        back = induced_chain(machine_from_chain(T))
        assert np.max(np.abs(back.to_numpy() - T.to_numpy())) == 0.0
    Tq = random_rational_chain(rng, 4)
    assert induced_chain(machine_from_chain(Tq)) == Tq


def test_stationary_exact_demo():
    assert stationary(DEMO) == DEMO_PI


def test_stationary_exact_postproc():
    chain = induced_chain(post_processed_coin(F(1, 9), F(2, 3)))
    assert stationary(chain) == (F(16, 21), F(1, 7), F(2, 21))


def test_stationary_float_matches_exact():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        Tq = random_rational_chain(rng, n)
        exact = stationary(Tq)
        approx = stationary(TransitionMatrix(
            [[float(v) for v in row] for row in Tq.rows]))
        assert np.max(np.abs(np.asarray(approx)
                             - [float(v) for v in exact])) < 1e-10


def test_stationary_random_sweep():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        T = random_chain(rng, n)
        pi = np.asarray(stationary(T))
        assert np.all(pi >= 0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(pi @ T.to_numpy() - pi)) < 1e-10


def test_stationary_periodic():
    # the bare kernel oscillates here; the averaged iteration must not
    swap = TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(stationary(swap), [0.5, 0.5], atol=1e-10)
    assert stationary(TransitionMatrix([[F(0), F(1)], [F(1), F(0)]])) \
        == (F(1, 2), F(1, 2))


def test_stationary_reducible_raises():
    with pytest.raises(ReducibleChainError):
        stationary(TransitionMatrix([[1.0, 0.0], [0.0, 1.0]]))
    block = TransitionMatrix([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                              [0.0, 0.5, 0.5]])
    with pytest.raises(ReducibleChainError):
        stationary(block)


def test_stationary_iteration_budget(monkeypatch):
    slow = TransitionMatrix([[0.999, 0.001], [0.003, 0.997]])
    monkeypatch.setattr(markov, "MAX_POWER_ITER", 10)
    with pytest.raises(markov.ConvergenceError):
        stationary(slow)


# bench/workloads.py's slow-mixing chain: gap 1e-3, 43,269 iterates
SLOW_MATRIX = [[0.99975, 0.00025], [0.00075, 0.99925]]


def test_stationary_slow_chain_pinned():
    pi = stationary(TransitionMatrix(SLOW_MATRIX))
    assert pi.tolist() == [0.7499999999000511, 0.2500000000999489]


def _floored_chain(rows) -> TransitionMatrix:
    rows = np.maximum(rows, 1e-12)
    return TransitionMatrix((rows / rows.sum(axis=1, keepdims=True)).tolist())


@st.composite
def dirichlet_chains(draw):
    """Dense chains of 2 to 64 states: rows longer than numpy's 8-element
    pairwise-sum unroll sum in another order than short ones."""
    n = draw(st.integers(2, 64))
    alpha = draw(st.sampled_from((0.3, 1.0, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _floored_chain(rng.dirichlet(np.full(n, alpha), n))


@st.composite
def rotation_chains(draw):
    """Near-periodic chains (1 - eps) roll(I) + eps R with R random."""
    n = draw(st.integers(2, 24))
    eps = 10.0 ** draw(st.floats(-3, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation = np.roll(np.eye(n), 1, axis=1)
    return _floored_chain((1 - eps) * rotation
                          + eps * rng.dirichlet(np.ones(n), n))


@st.composite
def two_state_chains(draw):
    """Slow-mixing two-state chains: spectral gap a + b from 1e-2 to 1e-4."""
    gap = 10.0 ** draw(st.floats(-4, -2))
    a = gap * draw(st.floats(0.05, 0.95))
    return TransitionMatrix([[1 - a, a], [gap - a, 1 - (gap - a)]])


@settings(max_examples=120, deadline=None)
@given(chain=st.one_of(dirichlet_chains(), rotation_chains()))
def test_stationary_bytes_match_reference(chain):
    assert stationary(chain).tobytes() == reference_stationary(chain).tobytes()


# each gap-1e-4 chain, which Hypothesis always tries, takes ~390,000 iterates
@settings(max_examples=2, deadline=None)
@given(chain=two_state_chains())
@example(chain=TransitionMatrix(SLOW_MATRIX))
def test_stationary_bytes_match_reference_slow_mixing(chain):
    assert stationary(chain).tobytes() == reference_stationary(chain).tobytes()


def _within_budget(solve, chain, budget, monkeypatch):
    monkeypatch.setattr(markov, "MAX_POWER_ITER", budget)
    try:
        return solve(chain).tobytes()
    except markov.ConvergenceError:
        return None


def test_stationary_budget_counts_every_iterate(monkeypatch):
    # find the least budget that converges, then check the solver against
    # the reference on both sides of it and around block boundaries
    chain = TransitionMatrix([[0.97, 0.03], [0.02, 0.98]])
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        if _within_budget(reference_stationary, chain, mid, monkeypatch):
            hi = mid
        else:
            lo = mid + 1
    assert 256 < lo < 4096
    for budget in (1, 255, 256, 257, lo - 1, lo, lo + 1, 4096):
        assert (_within_budget(stationary, chain, budget, monkeypatch)
                == _within_budget(reference_stationary, chain, budget,
                                  monkeypatch)), budget


# numpy warns when the positivity test meets the NaN
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stationary_nan_residual_never_converges(monkeypatch):
    # a NaN smuggled past validation: the first residuals are (0, NaN, 0),
    # which a max that skips NaN would take for convergence
    chain = TransitionMatrix([[1 / 3] * 3] * 3)
    chain.rows = (chain.rows[0], (1 / 3, math.nan, 1 / 3), chain.rows[2])
    monkeypatch.setattr(markov, "MAX_POWER_ITER", 10)
    for solve in (stationary, reference_stationary):
        with pytest.raises(markov.ConvergenceError):
            solve(chain)


@st.composite
def sparse_digraph_chains(draw):
    """Chains on random sparse digraphs, each row uniform on its edges.
    In half of them every state also steps to the next one, so the chain
    is irreducible until an edge is taken out."""
    n = draw(st.integers(1, 12))
    edges = set(draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=2 * n)))
    if draw(st.booleans()):
        edges |= {(j, (j + 1) % n) for j in range(n)}
    return n, edges


def _digraph_chain(n, edges) -> TransitionMatrix:
    out = [[i for j2, i in edges if j2 == j] or [j] for j in range(n)]
    return TransitionMatrix([[1.0 / len(out[j]) if i in out[j] else 0.0
                              for i in range(n)] for j in range(n)])


@settings(max_examples=150, deadline=None)
@given(graph=sparse_digraph_chains())
def test_strongly_connected_matches_dfs(graph):
    n, edges = graph
    # the graph and every graph one edge short of it; a state left without
    # edges loops on itself
    chains = [_digraph_chain(n, edges)]
    chains += [_digraph_chain(n, edges - {e}) for e in edges]
    for chain in chains:
        assert (markov._strongly_connected(chain)
                == reference_strongly_connected(chain))


def test_strongly_connected_one_edge_short_of_a_cycle():
    for n in (2, 3, 10, 50):
        cycle = {(j, (j + 1) % n) for j in range(n)}
        assert markov._strongly_connected(_digraph_chain(n, cycle))
        # the last state loops on itself instead of closing the cycle
        assert not markov._strongly_connected(
            _digraph_chain(n, cycle - {(n - 1, 0)}))


def test_tiny_exact_entry_is_an_edge():
    chain = TransitionMatrix([[1 - TINY, TINY], [F(1, 2), F(1, 2)]])
    assert chain.to_numpy()[0, 1] == 0.0
    assert markov._strongly_connected(chain)
    assert stationary(chain) == (1 / (1 + 2 * TINY), 2 * TINY / (1 + 2 * TINY))


def test_entropy_units():
    assert entropy_bits((0.5, 0.5)) == 1.0
    assert entropy_bits((1.0, 0.0)) == 0.0
    assert entropy_bits((0.25,) * 4) == pytest.approx(2.0, abs=1e-15)
    assert binary_entropy(0) == 0.0 and binary_entropy(1) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)


def test_memory_measures_demo():
    m = machine_from_chain(DEMO)
    assert topological_memory(m) == pytest.approx(math.log2(3), abs=0)
    assert statistical_memory(m) == pytest.approx(1.495538029919111,
                                                  abs=1e-12)


def test_mutual_info_bound():
    assert coin_mutual_info_bound(0.25) == pytest.approx(
        0.18872187554086717, abs=1e-15)
    assert coin_mutual_info_bound(0) == 1.0
    assert coin_mutual_info_bound(1) == 1.0
    assert coin_mutual_info_bound(0.5) == 0.0
    for p in np.linspace(0, 1, 21):
        assert -1e-15 <= coin_mutual_info_bound(p) <= 1.0


def test_machine_table_walk_basics():
    rows = perturbed_coin(0.3).edges
    assert rows == (((0, 0.7, 0), (1, 0.3, 1)), ((0, 0.3, 0), (1, 0.7, 1)))
    a, _ = sample_edges(rows, 0, 500, np.random.default_rng(42))
    b, _ = sample_edges(rows, 0, 500, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert len(a) == 500 and set(np.unique(a)) <= {0, 1}
    frozen, _ = sample_edges(perturbed_coin(0.0).edges, 0, 100,
                             np.random.default_rng(1))
    assert not frozen.any()
    with pytest.raises(ValueError):
        sample_edges(rows, 2, 10, np.random.default_rng(0))


def edge_tables():
    """Machine, circuit and single-bit tables: the kernel's three callers."""
    rng = np.random.default_rng(11)
    tables = [random_machine(rng, n, a).edges
              for n, a in ((1, 2), (2, 2), (3, 3), (4, 3), (5, 4))]
    tables += [circuit_step_table("coin", 0.3),
               circuit_step_table("postproc", F(1, 9), F(2, 3)),
               circuit_step_table("postproc", 0.37, 0.25)]
    tables += [single_bit_table(p, q)
               for p, q in ((1 / 9, 2 / 3), (0.37, 0.25), (0.0, 1.0),
                            (1.0, 0.0))]
    return tables


def assert_walks_agree(rows, start, steps, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    out, final = sample_edges(rows, start, steps, rng_a)
    ref, ref_final = reference_edge_walk(rows, start, steps, rng_b)
    assert out.dtype == np.int64
    assert np.array_equal(out, ref) and final == ref_final
    # both consumed exactly ``steps`` uniforms
    assert rng_a.random() == rng_b.random()


def test_sample_edges_matches_reference():
    for seed, rows in enumerate(edge_tables()):
        for start in range(len(rows)):
            for steps in (0, 1, 6, 7, 8, 50):
                assert_walks_agree(rows, start, steps, seed)


def test_sample_edges_across_a_full_block():
    """A trajectory simulate walks a long run one TRAJECTORY_BLOCK per call,
    passing the final state on: that equals one walk of the whole run.  So
    does one call of the whole run, whose draws cross a slice boundary."""
    block = markov.TRAJECTORY_BLOCK
    for rows in (circuit_step_table("postproc", F(1, 9), F(2, 3)),
                 single_bit_table(0.37, 0.25)):
        for start in range(len(rows)):
            rng_a = np.random.default_rng(1584306215)
            rng_b = np.random.default_rng(1584306215)
            rng_c = np.random.default_rng(1584306215)
            head, state = sample_edges(rows, start, block, rng_a)
            tail, final = sample_edges(rows, state, 1, rng_a)
            whole, whole_final = sample_edges(rows, start, block + 1, rng_c)
            ref, ref_final = reference_edge_walk(rows, start, block + 1, rng_b)
            assert np.array_equal(np.concatenate([head, tail]), ref)
            assert np.array_equal(whole, ref)
            assert final == whole_final == ref_final
            assert rng_a.random() == rng_b.random() == rng_c.random()


def test_sample_edges_memory_bounded_by_slices():
    """A direct call holds its draws as Python floats one TRAJECTORY_BLOCK
    at a time.  At 1e6 steps the whole run as one list peaked at 40.5 MB,
    the sliced walk at about 18.7 MB: the draws and symbols as arrays."""
    rows = circuit_step_table("postproc", F(1, 9), F(2, 3))
    sample_edges(rows, 0, 10, np.random.default_rng(0))  # one-time allocations
    tracemalloc.start()
    try:
        symbols, _ = sample_edges(rows, 0, 10**6, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert symbols.size == 10**6
    assert peak < 25_000_000, peak


@st.composite
def random_rows(draw):
    """Random table whose symbols number the edges, so a trajectory names
    the edges it took.  Rows may hold zero-probability edges, and some are
    endpoint rows: one sure edge among impossible ones."""
    n = draw(st.integers(1, 4))
    rows, symbol = [], 0
    for _ in range(n):
        size = draw(st.integers(1, 4))
        if draw(st.booleans()):
            weights = [0] * size
            weights[draw(st.integers(0, size - 1))] = 1
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=size,
                                    max_size=size).filter(any))
        row = []
        for w in weights:
            row.append((symbol, w / sum(weights), draw(st.integers(0, n - 1))))
            symbol += 1
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=random_rows(), steps=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sample_edges_property(rows, steps, seed, data):
    start = data.draw(st.integers(0, len(rows) - 1))
    assert_walks_agree(rows, start, steps, seed)
    out, final = sample_edges(rows, start, steps, np.random.default_rng(seed))
    edges = {x: (state, pr, nxt) for state, row in enumerate(rows)
             for x, pr, nxt in row}
    state = start
    for x in out:
        source, pr, nxt = edges[int(x)]
        assert source == state and pr > 0
        state = nxt
    assert final == state


def test_sample_edges_validation():
    rows = circuit_step_table("coin", 0.3)
    rng = np.random.default_rng(0)
    for start, steps in ((2, 5), (-1, 5), (0, -1)):
        with pytest.raises(ValueError):
            sample_edges(rows, start, steps, rng)
    with pytest.raises(ValueError):
        sample_edges([[(0, 1.0, 1)]], 0, 5, rng)
    with pytest.raises(ValueError):
        sample_edges([[(0, 1.0, 0)], []], 0, 5, rng)


def test_kgram_coin_values():
    d = exact_kgram_distribution(perturbed_coin(0.25), 2)
    assert d == pytest.approx({(0, 0): 0.375, (0, 1): 0.125,
                               (1, 0): 0.125, (1, 1): 0.375}, abs=1e-15)


def test_kgram_exact_fractions():
    m = post_processed_coin(F(1, 9), F(2, 3))
    d2 = exact_kgram_distribution(m, 2)
    assert d2[2, 1] == F(2, 21)
    assert sum(d2.values()) == 1
    assert all(isinstance(v, F) for v in d2.values())
    # symbol 2 hands control to the state that only says 1; symbol 0
    # hands it to the state that never says 1 first
    assert (2, 0) not in d2 and (2, 2) not in d2 and (0, 1) not in d2
    d3 = exact_kgram_distribution(m, 3)
    assert d3[2, 1, 1] == F(2, 63)
    assert sum(d3.values()) == 1


def test_kgram_marginalization():
    for m in (perturbed_coin(0.3), post_processed_coin(0.2, 0.6)):
        d3 = exact_kgram_distribution(m, 3)
        d2 = exact_kgram_distribution(m, 2)
        for w, pw in d2.items():
            tail = sum(p for g, p in d3.items() if g[:2] == w)
            head = sum(p for g, p in d3.items() if g[1:] == w)
            assert tail == pytest.approx(pw, abs=1e-13)
            assert head == pytest.approx(pw, abs=1e-13)


def test_kgram_start_conditioning():
    m = perturbed_coin(0.25)
    d = exact_kgram_distribution(m, 2, start=0)
    assert d == pytest.approx({(0, 0): 0.5625, (0, 1): 0.1875,
                               (1, 0): 0.0625, (1, 1): 0.1875}, abs=1e-15)
    assert sum(exact_kgram_distribution(m, 3, start=1).values()) \
        == pytest.approx(1.0, abs=1e-14)


def test_kgram_words_of_many_symbols():
    # keyed by symbol tuples, (10, 1, 0) and (1, 0, 10) stay two words
    m = machine_from_chain(TransitionMatrix([[F(1, 11)] * 11] * 11))
    d3 = exact_kgram_distribution(m, 3)
    assert len(d3) == 1331
    assert d3[10, 1, 0] == d3[1, 0, 10] == F(1, 1331)
    law = context_law(m, 2)
    assert law.shape == (121, 11)
    assert np.all(law == 1 / 11)


def test_context_law_of_postproc():
    m = post_processed_coin(F(1, 9), F(2, 3))
    # row c of the law is P(c y) / P(c); the context 2,1 hands control to
    # the middle state, the never-emitted context 2,0 keeps a zero row
    law = context_law(m, 2)
    d3 = exact_kgram_distribution(m, 3)
    d2 = exact_kgram_distribution(m, 2)
    for y in range(3):
        assert law[7, y] == float(d3.get((2, 1, y), 0) / d2[2, 1])
    assert law[6].tolist() == [0.0, 0.0, 0.0]
    assert law[2].tolist() == [0.0, 1.0, 0.0]
    d1 = exact_kgram_distribution(m, 1)
    assert context_law(m, 0).tolist() == [[float(d1[x, ]) for x in range(3)]]


def test_kgram_range_errors():
    m = perturbed_coin(0.3)
    with pytest.raises(ValueError):
        exact_kgram_distribution(m, 0)
    with pytest.raises(ValueError):
        exact_kgram_distribution(m, 9)
    with pytest.raises(ValueError):
        exact_kgram_distribution(m, 2, start=5)
