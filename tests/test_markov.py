"""Chains, machines, stationary states and exact word laws.

Pinned constants were derived independently before being frozen here:
stationary vectors by exact elimination done by hand, entropies from
their closed-form arguments.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qimem import markov
from qimem.markov import (EpsilonMachine, ReducibleChainError,
                          TransitionMatrix, binary_entropy,
                          coin_mutual_info_bound, entropy_bits,
                          induced_chain, machine_from_chain, perturbed_coin,
                          post_processed_coin, post_processed_factors,
                          stationary, statistical_memory, topological_memory,
                          walk_chain)
from qimem.quantum import circuit_step_table
from qimem.samplers import factor_chain, three_state_demo_chain

from helpers import (context_law, exact_kgram_distribution, floored_chain,
                     machine_edges, post_processed_rows, random_chain,
                     random_machine, random_rational_chain,
                     reference_stationary, reference_strongly_connected,
                     reference_walk, walk)

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


def test_to_numpy_is_the_float_view():
    """A float chain's view is its own array, and a Fraction chain's is a
    float64 array of its own that leaves the Fractions as they are."""
    chain = random_chain(np.random.default_rng(4), 5)
    assert np.shares_memory(chain.to_numpy(), chain.array)
    A = DEMO.to_numpy()
    assert A.dtype == np.float64 and not np.shares_memory(A, DEMO.array)
    assert DEMO.array.dtype == object
    assert DEMO.array[1].tolist() == [F(1, 9), F(2, 3), F(2, 9)]


TINY = F(1, 2**1100)  # positive, but 0.0 as a float


@pytest.mark.parametrize("rows", [
    random_chain(np.random.default_rng(4), 5).array.tolist(),
    DEMO.array.tolist(),
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
    assert m.probs.tolist() == [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]
    assert m.succ.tolist() == [[0, 1], [0, 1]]
    chain = induced_chain(m)
    assert chain.array[0, 1] == F(1, 4) and chain.array[1, 1] == F(3, 4)


def test_coin_degenerate_ends():
    # zero-probability emissions are no edges
    frozen = perturbed_coin(0)
    assert machine_edges(frozen) == [[(0, 1, 0)], [(1, 1, 1)]]
    hot = perturbed_coin(1)
    assert machine_edges(hot) == [[(1, 1, 1)], [(0, 1, 0)]]
    with pytest.raises(ValueError):
        perturbed_coin(1.2)


def test_postproc_machine():
    m = post_processed_coin(F(1, 9), F(2, 3))
    assert m.exact and m.n == 3 and m.n_symbols == 3
    # emitted symbol names the successor state
    assert machine_edges(m) == [
        [(0, F(8, 9), 0), (2, F(1, 9), 2)],
        [(0, F(16, 27), 0), (1, F(1, 3), 1), (2, F(2, 27), 2)],
        [(1, 1, 1)]]


def test_postproc_factors_multiply_to_the_machine():
    """A @ B is the machine's probs and its hand-written rows exactly, in
    Fractions, floats and a mix of the two; B holds the rows of the
    sources, whose bit is certain."""
    values = (0, 1, F(1, 9), F(2, 3), 0.2, 0.35, 1e-9, 1.0)
    for p, q in itertools.product(values, values):
        A, B, sources = post_processed_factors(p, q)
        probs = post_processed_coin(p, q).probs
        hand = EpsilonMachine(post_processed_rows(p, q), np.arange(3)).probs
        assert probs.dtype == hand.dtype
        assert (A @ B).tolist() == probs.tolist() == hand.tolist(), (p, q)
        assert sources == (0, 2)
        assert B.astype(probs.dtype).tolist() == probs[list(sources)].tolist()
        assert A[list(sources)].tolist() == [[1, 0], [0, 1]]
    for bad in (float("nan"), -0.5, 1.5):
        for pq in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError):
                post_processed_factors(*pq)


def test_exact_rows_sum_to_exactly_one():
    """A float row may miss 1 by rounding; a rational row has none to miss
    by, so 1e-15 off is refused for chains and machines alike."""
    off = F(1, 10**15)
    with pytest.raises(ValueError, match="row 1 sums to 1000000000000001/"):
        TransitionMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2) + off]])
    with pytest.raises(ValueError, match="row 0 sums to 999999999999999/"):
        EpsilonMachine(((F(1, 2), F(1, 2) - off),), ((0, 0),))
    assert not TransitionMatrix([[0.5, 0.5], [0.5, 0.5 + 1e-15]]).exact
    EpsilonMachine(((0.5, 0.5 - 1e-15),), ((0, 0),))


def test_machine_validation():
    """A machine is checked by the chain's row validator, and its
    successors on its edges; one column per symbol makes it unifilar, so
    no order or repeated-symbol check is left to fail."""
    nan = float("nan")
    for probs, succ, reason in [
        ([[1.0]], [[5]], "successor"),               # past the states
        ([[1.0]], [[-1]], "successor"),              # negative
        ([[1.0]], [[0.0]], "successor"),             # not an integer
        ([[0.5]], [[0]], "row 0 sums to 0.5"),
        ([[nan, 1.0]], [[0, 0]], "outside"),
        ([[1.0], [0.0]], [[0], [0]], "row 1 sums to 0.0"),  # no edge
        ([[0.5, 0.5]], [0, 0, 0], "broadcast"),      # shapes disagree
        ([], [], "non-empty"),
        ([1.0], [0], "2-D"),
    ]:
        with pytest.raises(ValueError, match=reason):
            EpsilonMachine(probs, succ)
    # a successor off the edges is never read
    assert EpsilonMachine([[1.0, 0.0]], [[0, 7]]).succ.tolist() == [[0, 7]]


def test_nan_and_inf_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError):
            TransitionMatrix([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            TransitionMatrix([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError):
            EpsilonMachine(((bad, 0.5), (0.5, 0.5)), np.arange(2))
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
    """A chain's machine holds the chain's own array, and gives the chain
    back."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        T = random_chain(rng, n)
        assert machine_from_chain(T).probs is T.array
        back = induced_chain(machine_from_chain(T))
        assert np.max(np.abs(back.to_numpy() - T.to_numpy())) == 0.0
    Tq = random_rational_chain(rng, 4)
    assert machine_from_chain(Tq).probs is Tq.array
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
            [[float(v) for v in row] for row in Tq.array]))
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


@st.composite
def dirichlet_chains(draw):
    """Dense chains of 2 to 64 states: rows longer than numpy's 8-element
    pairwise-sum unroll sum in another order than short ones."""
    n = draw(st.integers(2, 64))
    alpha = draw(st.sampled_from((0.3, 1.0, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return floored_chain(rng.dirichlet(np.full(n, alpha), n))


@st.composite
def rotation_chains(draw):
    """Near-periodic chains (1 - eps) roll(I) + eps R with R random."""
    n = draw(st.integers(2, 24))
    eps = 10.0 ** draw(st.floats(-3, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation = np.roll(np.eye(n), 1, axis=1)
    return floored_chain((1 - eps) * rotation
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
    chain.array[1, 1] = math.nan
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


def test_entropy_refuses_nan_and_negative_weights():
    # NaN compares False both ways, so it must be refused explicitly
    for bad in (float("nan"), -0.1):
        with pytest.raises(ValueError):
            entropy_bits((bad, 1.0))
        with pytest.raises(ValueError):
            binary_entropy(bad)


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
    """A walk of the coin's chain: the same states from the same seed, and
    none off the chain's support."""
    chain = induced_chain(perturbed_coin(0.3))
    a = walk(chain, 0, 500, np.random.default_rng(42))
    b = walk(chain, 0, 500, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert len(a) == 500 and set(np.unique(a)) <= {0, 1}
    frozen = walk(induced_chain(perturbed_coin(0.0)), 0, 100,
                  np.random.default_rng(1))
    assert not frozen.any()
    with pytest.raises(ValueError):
        walk(chain, 2, 10, np.random.default_rng(0))


def walked_chains():
    """Random chains, with zeros and without, and the circuit and
    single-bit chains: the walks ``simulate`` takes."""
    rng = np.random.default_rng(11)
    chains = [induced_chain(random_machine(rng, n, a))
              for n, a in ((1, 2), (2, 2), (3, 3), (4, 3), (5, 4))]
    chains += [random_chain(rng, 6),
               circuit_step_table("coin", 0.3),
               circuit_step_table("postproc", F(1, 9), F(2, 3)),
               circuit_step_table("postproc", 0.37, 0.25)]
    chains += [factor_chain(*post_processed_factors(p, q))[0]
               for p, q in ((1 / 9, 2 / 3), (0.37, 0.25), (0.0, 1.0),
                            (1.0, 0.0))]
    return chains


def assert_walks_agree(chain, start, steps, seed):
    """The walk of the chain is the reference walk of its rows."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    out = walk(chain, start, steps, rng_a)
    ref = reference_walk(chain, start, steps, rng_b)
    assert out.dtype == np.int64
    assert np.array_equal(out, ref)
    # both consumed exactly ``steps`` uniforms
    assert rng_a.random() == rng_b.random()


def test_walk_chain_matches_reference():
    for seed, chain in enumerate(walked_chains()):
        for start in range(chain.n):
            for steps in (0, 1, 6, 7, 8, 50):
                assert_walks_agree(chain, start, steps, seed)


def test_walk_chain_across_a_full_block():
    """A run one step longer than TRAJECTORY_BLOCK comes as a full block
    and a block of one step, which laid end to end are one walk of the
    whole run."""
    block = markov.TRAJECTORY_BLOCK
    for chain in (circuit_step_table("postproc", F(1, 9), F(2, 3)),
                  factor_chain(*post_processed_factors(0.37, 0.25))[0]):
        for start in range(chain.n):
            rng_a = np.random.default_rng(1584306215)
            rng_b = np.random.default_rng(1584306215)
            blocks = list(walk_chain(chain, start, block + 1, rng_a))
            ref = reference_walk(chain, start, block + 1, rng_b)
            assert [states.size for states in blocks] == [block, 1]
            assert np.array_equal(np.concatenate(blocks), ref)
            assert rng_a.random() == rng_b.random()


def test_walk_chain_yields_the_state_after_each_block(monkeypatch):
    """Each block ends with the state the walk has reached after it."""
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 7)
    for seed, chain in enumerate(walked_chains()):
        blocks = list(walk_chain(chain, 0, 50, np.random.default_rng(seed)))
        assert [states.size for states in blocks] == [7] * 7 + [1]
        for k, states in enumerate(blocks):
            assert states[-1] == reference_walk(
                chain, 0, min(7 * k + 7, 50), np.random.default_rng(seed))[-1]


def test_walk_chain_memory_bounded_by_slices():
    """A walk holds one TRAJECTORY_BLOCK of draws, as Python floats, and of
    states at a time.  At 1e6 steps the whole run as one list peaked at
    40.5 MB, the draws and symbols of the run as arrays at about 18.7 MB,
    and a walk whose blocks are dropped as they come at about 3.2 MB."""
    chain = circuit_step_table("postproc", F(1, 9), F(2, 3))
    walk(chain, 0, 10, np.random.default_rng(0))  # one-time allocations
    tracemalloc.start()
    try:
        steps = sum(states.size for states in
                    walk_chain(chain, 0, 10**6, np.random.default_rng(5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == 10**6
    assert peak < 5_000_000, peak


def test_walker_setup_memory_bounded_by_the_chain():
    """A walk of a 500-state float chain reads the chain's own array and
    holds one float CDF of its size, 2 MB, clamped in place.  The tuple
    form built 250 000 edge tuples and then per-state CDF and edge lists,
    51.6 MB traced, and an edge table with a successor array and a second
    clamped CDF about 4.5 MB."""
    chain = random_chain(np.random.default_rng(500), 500)
    tracemalloc.start()
    try:
        next(walk_chain(chain, 0, 1, np.random.default_rng(0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_500_000, peak



@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_row_sums_add_left_to_right(scale):
    """``_row_sums`` makes the additions of a left-to-right cumulative sum,
    in its order: the same bits for floats of any width and magnitude, and
    the same Fractions."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 8, 9, 17, 100, 1000):
        array = rng.dirichlet(np.full(n, 0.3), 5) * scale
        array[0, -1] = -0.0
        assert (markov._row_sums(array).tobytes()
                == np.cumsum(array, axis=1)[:, -1].tobytes()), n
    exact = random_rational_chain(rng, 4).array
    assert list(markov._row_sums(exact)) == list(np.cumsum(exact, axis=1)[:, -1])


def test_row_sums_make_no_square_temporary():
    """A 1000-state chain's row sums hold one vector of 8 kB, where a
    cumulative sum of every row traced 8.00 MB."""
    array = np.random.default_rng(3).dirichlet(np.full(1000, 0.3), 1000)
    tracemalloc.start()
    try:
        markov._row_sums(array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak

class TopDraws:
    """A stub generator whose every uniform is the largest below 1."""

    def random(self, size):
        return np.full(size, 1 - 2**-53)


def test_walk_never_takes_a_zero_probability_edge(monkeypatch):
    """Rows whose entries sum to 1 - 1 ulp, with entries of probability 0
    after them: at the largest draw below 1 a CDF pinned only at its last
    entry would take the zero entry.  Each step, yielded as a block of one,
    must enter a state of probability above 0."""
    short = 0.5 - 2**-53  # 0.5 + short == 1 - 2**-53
    chains = [TransitionMatrix([[0.5, short, 0.0, 0.0],
                                [0.0, 0.5, short, 0.0],
                                [0.0, 0.0, 0.5, short],
                                [short, 0.0, 0.5, 0.0]]),
              factor_chain(*post_processed_factors(1.0, 0.0))[0]]
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 1)
    for chain in chains:
        for start in range(chain.n):
            state = start
            for (after,) in walk_chain(chain, start, 12, TopDraws()):
                assert chain.array[state, after] > 0
                state = after
            assert np.array_equal(walk(chain, start, 12, TopDraws()),
                                  reference_walk(chain, start, 12, TopDraws()))


@st.composite
def random_table(draw):
    """Random chain of one to four states whose entries of probability 0
    fall anywhere, the last column too; some rows are endpoint rows, one
    sure entry among impossible ones."""
    n = draw(st.integers(1, 4))
    probs = np.zeros((n, n))
    for row in probs:
        if draw(st.booleans()):
            row[draw(st.integers(0, n - 1))] = 1
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n).filter(any))
            row[:] = [w / sum(weights) for w in weights]
    return TransitionMatrix(probs)


@settings(max_examples=150, deadline=None)
@given(chain=random_table(), steps=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_walk_chain_property(chain, steps, seed, data):
    start = data.draw(st.integers(0, chain.n - 1))
    assert_walks_agree(chain, start, steps, seed)
    state = start
    for after in walk(chain, start, steps, np.random.default_rng(seed)):
        assert chain.array[state, after] > 0
        state = after


@pytest.mark.parametrize("weights", [DEMO_PI, [0.2, 0.0, 0.8, 0.0],
                                     [0.0, 1.0, 0.0], [0.1] * 10])
def test_draw_spends_one_uniform_on_the_cdf(weights):
    """``draw`` takes the entry that one uniform picks on ``as_cdf`` of the
    float weights, Fractions included, and spends that uniform also when
    one entry is certain."""
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    cdf = markov.as_cdf(np.array(weights, dtype=float))
    for _ in range(200):
        got = markov.draw(weights, rng)
        assert type(got) is int
        assert got == np.searchsorted(cdf, ref.random(), side="right")
    assert rng.random() == ref.random()


def test_walk_chain_validation():
    """A walk checks its start and step count on the first ``next``, even
    of no steps, before it draws a uniform."""
    chain = circuit_step_table("coin", 0.3)
    rng = np.random.default_rng(0)
    for start, steps in ((2, 5), (-1, 5), (0, -1), (2, 0)):
        with pytest.raises(ValueError):
            next(walk_chain(chain, start, steps, rng))
    assert rng.random() == np.random.default_rng(0).random()


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
    law = context_law(induced_chain(m), 2)
    assert law.shape == (121, 11)
    assert np.all(law == 1 / 11)


def test_context_law_of_postproc():
    """Row c of the dense oracle law, which the verdict's per-context rows
    are tested against, is P(c y) / P(c) from the word law, to the last bit
    on exact chains, and zero exactly where P(c) = 0; on a float chain the
    rounded word probabilities meet it to a few ulp, and the stationary
    law of h = 0 to the solver's residual."""
    m = post_processed_coin(F(1, 9), F(2, 3))
    chain = induced_chain(m)
    # the context 2,1 hands control to the middle state, the never-emitted
    # context 2,0 keeps a zero row
    law = context_law(chain, 2)
    d3 = exact_kgram_distribution(m, 3)
    d2 = exact_kgram_distribution(m, 2)
    for y in range(3):
        assert law[7, y] == float(d3.get((2, 1, y), 0) / d2[2, 1])
    assert law[6].tolist() == [0.0, 0.0, 0.0]
    assert law[2].tolist() == [0.0, 1.0, 0.0]
    d1 = exact_kgram_distribution(m, 1)
    assert context_law(chain, 0).tolist() == [[float(d1[x, ])
                                               for x in range(3)]]
    for exact in (chain, random_rational_chain(np.random.default_rng(4), 4),
                  random_rational_chain(np.random.default_rng(5), 5)):
        for h in (0, 1, 2):
            rows = _word_law_rows(exact, h)
            assert context_law(exact, h).tolist() == [
                [0.0] * exact.n if row is None else [float(w) for w in row]
                for row in rows]
    floats = random_chain(np.random.default_rng(12), 12)
    for h in (1, 2):
        law, rows = context_law(floats, h), _word_law_rows(floats, h)
        assert law.shape == (12 ** h, 12) and None not in rows
        assert np.allclose(law, rows, rtol=1e-15, atol=0)
    assert np.allclose(context_law(floats, 0), _word_law_rows(floats, 0),
                       rtol=0, atol=markov.STATIONARY_TOL)


def _word_law_rows(chain: TransitionMatrix, h: int) -> list:
    """Row c of P(c y) / P(c) from the exact (h + 1)-word law of the walk
    of ``chain``, contexts coded as ``word_counts`` codes them; None
    for a context of probability 0."""
    n = chain.n
    words = exact_kgram_distribution(machine_from_chain(chain), h + 1)
    rows = []
    for context in itertools.product(range(n), repeat=h):
        row = [words.get(context + (y,), 0) for y in range(n)]
        total = sum(row)
        rows.append([w / total for w in row] if total else None)
    return rows


def test_kgram_range_errors():
    m = perturbed_coin(0.3)
    with pytest.raises(ValueError):
        exact_kgram_distribution(m, 0)
    with pytest.raises(ValueError):
        exact_kgram_distribution(m, 9)
    with pytest.raises(ValueError):
        exact_kgram_distribution(m, 2, start=5)
