"""Chains, machines, stationary states and exact word laws.

Pinned constants were derived independently before being frozen here:
stationary vectors by exact elimination done by hand, entropies from
their closed-form arguments.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qimem import markov
from qimem.markov import (EpsilonMachine, ReducibleChainError,
                          TransitionMatrix, binary_entropy,
                          coin_mutual_info_bound, context_law, entropy_bits,
                          exact_kgram_distribution, induced_chain,
                          machine_from_chain, perturbed_coin,
                          post_processed_coin, sample_edges,
                          sample_trajectory, stationary, statistical_memory,
                          topological_memory)
from qimem.quantum import circuit_step_table
from qimem.samplers import StochasticBitMachine, three_state_demo_chain

from helpers import (random_chain, random_machine, random_rational_chain,
                     reference_edge_walk)

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


def test_coin_machine():
    m = perturbed_coin(F(1, 4))
    assert m.exact and m.n == 2 and m.symbols == (0, 1)
    assert m.emit[0] == {0: F(3, 4), 1: F(1, 4)}
    assert m.emit[1] == {0: F(1, 4), 1: F(3, 4)}
    assert m.succ[0] == {0: 0, 1: 1} and m.succ[1] == {0: 0, 1: 1}
    chain = induced_chain(m)
    assert chain[0][1] == F(1, 4) and chain[1][1] == F(3, 4)


def test_coin_degenerate_ends():
    # zero-probability emissions are dropped from the support
    frozen = perturbed_coin(0)
    assert frozen.emit[0] == {0: 1} and frozen.emit[1] == {1: 1}
    hot = perturbed_coin(1)
    assert hot.emit[0] == {1: 1} and hot.emit[1] == {0: 1}
    with pytest.raises(ValueError):
        perturbed_coin(1.2)


def test_postproc_machine():
    m = post_processed_coin(F(1, 9), F(2, 3))
    assert m.exact and m.n == 3 and m.symbols == (0, 1, 2)
    assert m.emit[0] == {0: F(8, 9), 2: F(1, 9)}
    assert m.emit[1] == {0: F(16, 27), 1: F(1, 3), 2: F(2, 27)}
    assert m.emit[2] == {1: 1}
    # emitted symbol names the successor state
    for i in range(3):
        assert m.succ[i] == {x: x for x in m.emit[i]}


def test_machine_validation():
    with pytest.raises(ValueError):
        EpsilonMachine(emit=({0: 1.0},), succ=({0: 5},), symbols=(0,))
    with pytest.raises(ValueError):
        EpsilonMachine(emit=({0: 0.5},), succ=({0: 0},), symbols=(0,))
    with pytest.raises(ValueError):
        EpsilonMachine(emit=({3: 1.0},), succ=({3: 0},), symbols=(0, 1))


def test_nan_and_inf_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError):
            TransitionMatrix([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            TransitionMatrix([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError):
            EpsilonMachine(emit=({0: bad, 1: 0.5},), succ=({0: 0, 1: 0},),
                           symbols=(0, 1))
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


def test_sample_trajectory_basics():
    m = perturbed_coin(0.3)
    a = sample_trajectory(m, 0, 500, np.random.default_rng(42))
    b = sample_trajectory(m, 0, 500, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert len(a) == 500 and set(np.unique(a)) <= {0, 1}
    frozen = sample_trajectory(perturbed_coin(0.0), 0, 100,
                               np.random.default_rng(1))
    assert not frozen.any()
    with pytest.raises(ValueError):
        sample_trajectory(m, 2, 10, np.random.default_rng(0))


def machine_rows(machine):
    return [[(x, pr, machine.succ[i][x]) for x, pr in sorted(dist.items())]
            for i, dist in enumerate(machine.emit)]


def edge_tables():
    """Machine, circuit and single-bit tables: the kernel's three callers."""
    rng = np.random.default_rng(11)
    tables = [machine_rows(random_machine(rng, n, a))
              for n, a in ((1, 2), (2, 2), (3, 3), (4, 3), (5, 4))]
    tables += [circuit_step_table("coin", 0.3),
               circuit_step_table("postproc", F(1, 9), F(2, 3)),
               circuit_step_table("postproc", 0.37, 0.25)]
    tables += [StochasticBitMachine(p, q, 0, rng).rows
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


def test_sample_edges_matches_reference(monkeypatch):
    # a short block puts many block boundaries inside short runs
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 7)
    for seed, rows in enumerate(edge_tables()):
        for start in range(len(rows)):
            for steps in (0, 1, 6, 7, 8, 50):
                assert_walks_agree(rows, start, steps, seed)


def test_sample_edges_across_a_full_block():
    steps = markov.TRAJECTORY_BLOCK + 1
    for rows in (circuit_step_table("postproc", F(1, 9), F(2, 3)),
                 StochasticBitMachine(0.37, 0.25, 0,
                                      np.random.default_rng(0)).rows):
        for start in range(len(rows)):
            assert_walks_agree(rows, start, steps, 1584306215)


@st.composite
def edge_table(draw):
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
@given(rows=edge_table(), steps=st.integers(0, 40),
       block=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_sample_edges_property(rows, steps, block, seed, data):
    start = data.draw(st.integers(0, len(rows) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov, "TRAJECTORY_BLOCK", block)
        assert_walks_agree(rows, start, steps, seed)
        out, final = sample_edges(rows, start, steps,
                                  np.random.default_rng(seed))
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
