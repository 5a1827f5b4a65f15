"""State-vector circuits, encoded memory states and memory spectra.

The circuit outputs are always compared against the machine route, and
spectra against an independently assembled Gram matrix or the dense
density matrix of the state x output space, so every check here crosses
two computation paths.
"""

import math
import time
import tracemalloc
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qimem import quantum
from qimem.bp import expected_messages, prep_factor, protocol_graph
from qimem.markov import (EpsilonMachine, binary_entropy, induced_chain,
                          machine_from_chain, perturbed_coin,
                          post_processed_coin, stationary,
                          statistical_memory, topological_memory)
from qimem.quantum import (check_orthogonal, check_unit, circuit_step_table,
                           coin_quantum_memory, controlled_u, kron,
                           measure, memory_qubits, memory_spectrum, n_qubits,
                           protocol_states, quantum_statistical_memory,
                           quantum_topological_memory, u_x)
from qimem.stats import compare_transitions, word_counts

from helpers import (exact_kgram_distribution, machine_edges, random_chain,
                     random_machine, reference_density_spectrum, walk)

P_GRID = [i / 10 for i in range(11)]


def gram_from_machine(machine) -> np.ndarray:
    """Overlap matrix of the encoded memory states, straight from the edges:
    a pair of edges overlaps where symbol and successor agree."""
    n = machine.n
    rows = machine_edges(machine)
    G = np.eye(n)
    for i in range(n):
        for k in range(i + 1, n):
            s = sum(math.sqrt(float(a) * float(b))
                    for x, a, nx in rows[i]
                    for y, b, ny in rows[k] if (x, nx) == (y, ny))
            G[i, k] = G[k, i] = s
    return G


def spectrum_from_gram(machine, weights) -> np.ndarray:
    # rho = A A^T with columns sqrt(pi_i) |xi_i>, so the nonzero spectrum
    # equals that of A^T A = D G D
    D = np.diag(np.sqrt(np.asarray([float(w) for w in weights])))
    return np.linalg.eigvalsh(D @ gram_from_machine(machine) @ D)[::-1]


def test_n_qubits():
    assert n_qubits(1) == 0 and n_qubits(2) == 1 and n_qubits(8) == 3
    with pytest.raises(ValueError):
        n_qubits(6)
    with pytest.raises(ValueError):
        n_qubits(0)


def test_u_x_columns():
    for x in P_GRID:
        u = u_x(x)
        assert np.allclose(u[:, 0], [math.sqrt(1 - x), math.sqrt(x)], atol=0)
        check_orthogonal(u)
    stretched = u_x(0.3)
    stretched[:, 1] *= 1 + 1e-9
    with pytest.raises(ValueError):
        check_orthogonal(stretched)
    with pytest.raises(ValueError):
        u_x(-0.1)


def test_nan_probabilities_rejected():
    for bad in (float("nan"), float("inf"), -0.1, 1.1):
        with pytest.raises(ValueError):
            u_x(bad)
        with pytest.raises(ValueError):
            coin_quantum_memory(bad)
        with pytest.raises(ValueError):
            memory_qubits("postproc", 0.5, bad)
    for x in (0, 1):
        u_x(x)
        coin_quantum_memory(x)
        memory_qubits("postproc", 0.5, x)


KRON_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-4.0, 4.0))


def kron_chains(ndim: int):
    """Two or three operands of ``ndim`` axes, each axis of length 1 to 4."""
    shapes = st.tuples(*[st.integers(1, 4)] * ndim)
    operand = shapes.flatmap(lambda s: arrays(float, s, elements=KRON_VALUES))
    return st.lists(operand, min_size=2, max_size=3)


@settings(max_examples=200, deadline=None)
@given(ops=st.sampled_from([1, 2]).flatmap(kron_chains))
@example(ops=[np.eye(4), np.array([[math.sqrt(0.7)], [math.sqrt(0.3)]])])
@example(ops=[np.array([-0.0, math.nan]), np.array([math.inf, -1.0]),
              np.array([0.5, -0.0])])
@example(ops=[np.array([[-0.0, math.inf]]), np.array([[math.nan], [-2.0]])])
def test_kron_matches_numpy_bytes(ops):
    """Every entry is np.kron's product a_ij * b_kl, signed zeros, infinities
    and NaNs included; the (4, 4) x (2, 1) chain is the coin's ancilla."""
    with np.errstate(invalid="ignore"):  # inf * 0 is a NaN here too
        expected = reduce(np.kron, ops)
        got = kron(*ops)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_kron_refuses_mixed_operands():
    with pytest.raises(ValueError):
        kron(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        kron(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


def test_gate_orthogonality():
    for x in P_GRID:
        check_orthogonal(controlled_u(3, 1, 3, u_x(x), control_value=0))
        check_orthogonal(controlled_u(3, 1, 2, u_x(x)))
    check_orthogonal(controlled_u(2, 1, 2, quantum.X))
    check_orthogonal(controlled_u(3, 3, 2, quantum.X))
    with pytest.raises(ValueError):
        controlled_u(2, 1, 1, u_x(0.5))
    with pytest.raises(ValueError):
        controlled_u(2, 0, 1, quantum.X)


@pytest.mark.parametrize("u", [u_x(0.3), prep_factor(0.3)])
def test_controlled_u_matches_full_width_products(u):
    """Built on its span and padded, every gate is entry for entry the sum
    of two full-width Kronecker products: each ordered (control, target)
    pair of 4 qubits, both control values, a rotation and a BP factor."""
    for control in range(1, 5):
        for target in set(range(1, 5)) - {control}:
            for value in (0, 1):
                on, off = [np.eye(2)] * 4, [np.eye(2)] * 4
                on[control - 1] = np.diag([1.0 - value, value])
                off[control - 1] = np.diag([value, 1.0 - value])
                on[target - 1] = u
                want = reduce(np.kron, on) + reduce(np.kron, off)
                assert np.array_equal(
                    controlled_u(4, control, target, u, value), want), \
                    (control, target, value)


def test_cnot_action():
    # qubit 1 is the most significant bit of the index
    g = controlled_u(2, 1, 2, quantum.X)
    basis = np.eye(4)
    assert np.array_equal(g @ basis[0], basis[0])
    assert np.array_equal(g @ basis[1], basis[1])
    assert np.array_equal(g @ basis[2], basis[3])
    assert np.array_equal(g @ basis[3], basis[2])


def test_measure_uniform():
    psi = np.full(4, 0.5)
    outcomes = measure(psi, (1, 2))
    assert [o for o, _, _ in outcomes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(pr == pytest.approx(0.25, abs=1e-15) for _, pr, _ in outcomes)
    partial = measure(psi, (1,))
    assert all(np.allclose(post, np.full(2, math.sqrt(0.5)), atol=1e-15)
               for _, pr, post in partial)
    with pytest.raises(ValueError):
        measure(psi, (3,))
    with pytest.raises(ValueError):
        measure(np.array([1.0, 1.0]), (1,))  # not normalized


def test_coin_memory_qubits():
    for p in P_GRID:
        xi0, xi1 = memory_qubits("coin", p)
        check_unit(xi0), check_unit(xi1)
        assert xi0 @ xi1 == pytest.approx(2 * math.sqrt(p * (1 - p)),
                                          abs=1e-14)
    xi0, xi1 = memory_qubits("coin", 0.25)
    assert xi0 @ xi1 == pytest.approx(0.8660254037844386, abs=1e-15)
    # UNIT_TOL is 1e-12: rounding passes, a real norm error does not
    check_unit(xi0 * (1 + 1e-14))
    with pytest.raises(ValueError):
        check_unit(xi0 * (1 + 1e-9))


def test_encoded_states_match_single_qubit_overlaps():
    # the edge-table encoding and the one-qubit representation must give
    # one memory state: its spectrum is that of sum_i pi_i |xi_i><xi_i|
    q = F(2, 3)
    machine = post_processed_coin(F(1, 9), q)
    pi = stationary(induced_chain(machine))
    xi = memory_qubits("postproc", F(1, 9), q)
    rho = sum(float(w) * np.outer(v, v) for w, v in zip(pi, xi))
    lams = memory_spectrum(machine)
    assert lams.shape == (3,)
    assert np.allclose(lams[:2], np.linalg.eigvalsh(rho)[::-1], rtol=0,
                       atol=1e-14)
    assert lams[2] == pytest.approx(0.0, abs=1e-14)
    G = gram_from_machine(machine)
    assert G[0, 1] == pytest.approx(math.sqrt(float(q)), abs=1e-14)
    assert G[0, 2] == 0.0


def test_memory_qubits_of_each_model():
    """The post-processed coin's middle state is (sqrt(q), sqrt(1 - q))
    itself: at q = 0.2, 1 - (1 - q) is not q in floats, so the first
    column of u_x(1 - q) differs in its last bit.  A model without a
    circuit, and the post-processed coin without q, are refused."""
    q = 0.2
    assert 1 - (1 - q) != q
    e0, xi, e1 = memory_qubits("postproc", 0.3, q)
    assert e0.tolist() == [1.0, 0.0] and e1.tolist() == [0.0, 1.0]
    assert xi.tolist() == [math.sqrt(q), math.sqrt(1 - q)]
    assert xi.tolist() != u_x(1 - q)[:, 0].tolist()
    xi0, xi1 = memory_qubits("coin", 0.3, q)  # the coin reads no q
    assert xi0.tolist() == u_x(0.3)[:, 0].tolist()
    assert xi1.tolist() == u_x(1 - 0.3)[:, 0].tolist()
    with pytest.raises(ValueError, match="needs q"):
        memory_qubits("postproc", 0.3)
    with pytest.raises(ValueError, match="unknown circuit model"):
        memory_qubits("custom", 0.3, q)


def test_coin_step_matches_machine():
    for p in P_GRID:
        chain = circuit_step_table("coin", p)
        assert np.allclose(chain.array, perturbed_coin(p).probs.astype(float),
                           rtol=0, atol=1e-13)


def test_postproc_step_matches_machine():
    grid = [(F(1, 9), F(2, 3)), (0.3, 0.6), (0.0, 0.5), (1.0, 0.5),
            (0.3, 0.0), (0.3, 1.0)]
    for p, q in grid:
        chain = circuit_step_table("postproc", p, q)
        assert np.allclose(chain.array,
                           post_processed_coin(p, q).probs.astype(float),
                           rtol=0, atol=1e-13)


def test_step_table_refuses_a_branch_off_its_causal_state(monkeypatch):
    """A populated branch must leave its own symbol's causal state: a coin
    circuit with its memory qubit flipped leaves xi_1 after symbol 0, the
    other causal state, and a postproc register read as (y1, y3) = (1, 1)
    names no causal state."""
    states = quantum.protocol_states

    def flipped(*args, **kwargs):
        up = states(*args, **kwargs)
        return up[:-1] + [up[-1] @ kron(quantum.I2, quantum.X).T]

    monkeypatch.setattr(quantum, "protocol_states", flipped)
    with pytest.raises(ValueError, match="branch \\(0,\\) from causal state 0"):
        circuit_step_table("coin", 0.3)

    def dead_branch(*args, **kwargs):
        return [np.tile(kron(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                             np.array([0.0, 1.0])), (3, 1))]

    monkeypatch.setattr(quantum, "protocol_states", dead_branch)
    with pytest.raises(ValueError, match="branch \\(1, 1\\)"):
        circuit_step_table("postproc", 0.3, 0.6)


def assert_states_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def raw_coin_states(p, j, steps):
    e0 = np.array([1.0, 0.0])
    xi = [u_x(p)[:, 0], u_x(1 - float(p))[:, 0]]
    states = [kron(e0, e0), kron(xi[j], xi[0])]
    states.append(controlled_u(2, 1, 2, quantum.X) @ states[-1])
    for m in range(2, steps + 1):
        states.append(kron(states[-1], xi[0]))
        states.append(controlled_u(m + 1, m, m + 1, quantum.X) @ states[-1])
    return states


def raw_postproc_states(p, q, j):
    e0, e1 = np.eye(2)
    xi = [e0, np.array([math.sqrt(float(q)), math.sqrt(1 - float(q))]), e1]
    states = [kron(e0, e0, e0), kron(xi[j], e0, e0)]
    for gate in (controlled_u(3, 1, 3, u_x(p), control_value=0),
                 controlled_u(3, 1, 2, u_x(1 - float(q))),
                 controlled_u(3, 3, 2, quantum.X)):
        states.append(gate @ states[-1])
    return states


def test_postproc_conflicting_branch_is_structurally_dead():
    # rebuilt from raw gates: the ancilla pair can never read (1, 1),
    # whatever the parameters, because each control kills one writer
    for p in (0.0, 0.2, 0.7, 1.0):
        for q in (0.0, 0.4, 1.0):
            for j in range(3):
                psi = raw_postproc_states(p, q, j)[-1]
                probs = dict((o, pr) for o, pr, _ in measure(psi, (1, 3)))
                assert probs[(1, 1)] == 0.0


@pytest.mark.parametrize("p", [F(1, 9), F(1, 2), 0.3, 0.0, 1.0])
def test_protocol_states_match_raw_gates(p):
    # each protocol rebuilt gate by gate; the BP messages are those states
    # followed by their mirror image, bit for bit
    for steps in (1, 2, 3):
        got = protocol_states("coin", p, steps=steps)
        messages = expected_messages("coin", p, steps=steps)
        for j in (0, 1):
            want = raw_coin_states(p, j, steps)
            assert_states_equal([s[j] for s in got], want)
            assert_states_equal([m[j] for m in messages],
                                want + want[-2::-1])
    for q in (F(2, 3), 0.25, 0.0, 1.0):
        got = protocol_states("postproc", p, q)
        messages = expected_messages("postproc", p, q=q)
        for j in (0, 1, 2):
            want = raw_postproc_states(p, q, j)
            assert_states_equal([s[j] for s in got], want)
            assert_states_equal([m[j] for m in messages],
                                want + want[-2::-1])


def test_protocol_validation():
    # a causal state out of range is refused by the graph that has one
    # row per causal state
    coin = protocol_graph("coin", 0.3)
    for graph, j in ((coin, 2), (coin, -1),
                     (protocol_graph("postproc", 0.3, 0.5), 3)):
        with pytest.raises(ValueError):
            graph.state(j)
    assert [len(s) for s in protocol_states("postproc", 0.3, q=0.5)] == [3] * 5
    # a chained postproc step appends its two ancillas, then runs its gates
    assert [s.shape for s in protocol_states("postproc", 0.3, q=0.5,
                                             steps=2)] \
        == [(3, 8)] * 5 + [(3, 32)] * 4
    for model, q in (("coin", None), ("postproc", 0.5)):
        with pytest.raises(ValueError):
            protocol_states(model, 0.3, q, steps=0)
        with pytest.raises(ValueError):
            protocol_graph(model, 0.3, q, steps=0)
    with pytest.raises(ValueError):
        protocol_states("postproc", 0.3)
    with pytest.raises(ValueError):
        protocol_states("bogus", 0.3)
    with pytest.raises(ValueError, match="unknown circuit model"):
        protocol_graph("bogus", 0.3)


def test_coin_density_spectrum():
    for p in P_GRID[1:-1]:
        lams = memory_spectrum(perturbed_coin(p))
        root = math.sqrt(p * (1 - p))
        assert lams[0] == pytest.approx(0.5 + root, abs=1e-13)
        assert lams[1] == pytest.approx(0.5 - root, abs=1e-13)


def test_coin_quantum_memory_closed_form():
    # Gram route against the closed form, including the endpoint chains
    # whose stationary state must be supplied by hand
    for p in P_GRID[1:-1]:
        assert quantum_statistical_memory(perturbed_coin(p)) == pytest.approx(
            coin_quantum_memory(p), abs=1e-12)
    for p in (0, 1):
        assert quantum_statistical_memory(perturbed_coin(p), (0.5, 0.5)) \
            == pytest.approx(coin_quantum_memory(p), abs=1e-12)
    assert coin_quantum_memory(0.25) == pytest.approx(0.35457890266527003,
                                                      abs=1e-15)
    assert coin_quantum_memory(0.5) == 0.0
    assert coin_quantum_memory(0) == 1.0


def test_memory_hierarchy_on_coin():
    for p in (0.1, 0.25, 0.4):
        m = perturbed_coin(p)
        assert coin_quantum_memory(p) < statistical_memory(m)
        bound = 1 - binary_entropy(p)
        assert bound <= coin_quantum_memory(p) + 1e-12


def test_postproc_density_rank_deficient():
    p, q = F(1, 9), F(2, 3)
    machine = post_processed_coin(p, q)
    assert quantum_topological_memory(machine) == 1.0
    assert topological_memory(machine) == pytest.approx(math.log2(3), abs=0)
    sq = quantum_statistical_memory(machine)
    assert sq == pytest.approx(0.5751673966589481, abs=1e-12)
    assert sq < statistical_memory(machine)
    # independent spectrum from the Gram matrix of the encoded states
    pi = stationary(induced_chain(machine))
    lams = spectrum_from_gram(machine, pi)
    assert np.allclose(memory_spectrum(machine), lams, atol=1e-12)
    assert abs(lams[2]) < 1e-14


def test_random_machines_never_beat_classical_memory():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        machine = random_machine(rng, int(rng.integers(2, 6)),
                                 int(rng.integers(2, 5)))
        lams = memory_spectrum(machine)
        sq = quantum_statistical_memory(machine)
        hc = statistical_memory(machine)
        assert sq <= hc + 1e-9
        assert quantum_topological_memory(machine) \
            <= topological_memory(machine) + 1e-9
        # the per-pair Gram loop and the dense state x output density
        assert np.allclose(lams, spectrum_from_gram(
            machine, stationary(induced_chain(machine))), rtol=0, atol=1e-12)
        dense = reference_density_spectrum(machine)
        assert np.allclose(lams, dense[:machine.n], rtol=0, atol=1e-12)
        assert np.all(dense[machine.n:] <= 1e-12)


def test_density_validation():
    # the weights of the memory state: one per state, each >= 0, summing
    # to 1; and every encoded state of unit norm
    coin = perturbed_coin(0.3)
    memory_spectrum(coin, (0.5, 0.5))
    for weights in ((1.0,), (0.5, 0.25, 0.25), (1.1, -0.1),
                    (float("nan"), 1.0), (0.45, 0.45)):
        with pytest.raises(ValueError):
            memory_spectrum(coin, weights)
        with pytest.raises(ValueError):
            quantum_statistical_memory(coin, weights)
    # a table that skipped the machine's own checks: P(0|0) = 0.5 alone
    short = object.__new__(EpsilonMachine)
    object.__setattr__(short, "probs", np.array([[0.5]]))
    object.__setattr__(short, "succ", np.array([[0]]))
    with pytest.raises(ValueError, match="norm"):
        memory_spectrum(short, (1.0,))


def test_large_chain_memory_without_the_dense_route():
    # 400 states and 400 symbols: the dense state x output density would
    # be 160000 x 160000, and the amplitudes over every (symbol, successor)
    # pair 400 x 160000, 488 MiB; the Gram matrix is 400 x 400, and the
    # memory calls peaked at 9.9 MiB traced
    t0 = time.perf_counter()
    machine = machine_from_chain(random_chain(np.random.default_rng(400), 400))
    tracemalloc.start()
    try:
        lams = memory_spectrum(machine)
        sq = quantum_statistical_memory(machine)
        dq = quantum_topological_memory(machine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sq <= statistical_memory(machine) + 1e-9
    assert np.sum(lams > 1e-10) <= machine.n
    assert dq <= topological_memory(machine) + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"400-state memory took {elapsed:.3f}s"
    assert peak < 32 * 2**20, peak


def test_circuit_step_table_successors():
    """Each row of a circuit's chain is its measured symbol law, and the
    symbol is the next state."""
    table = circuit_step_table("coin", 0.3)
    chain = induced_chain(perturbed_coin(0.3))
    assert table.array.dtype == np.float64
    assert np.allclose(table.array, chain.to_numpy(), rtol=0, atol=1e-13)
    table = circuit_step_table("postproc", F(1, 9), F(2, 3))
    assert [np.flatnonzero(row).tolist() for row in table.array] \
        == [[0, 2], [0, 1, 2], [1]]
    with pytest.raises(ValueError):
        circuit_step_table("postproc", 0.3)
    with pytest.raises(ValueError):
        circuit_step_table("bogus", 0.3)


def test_circuit_trajectory_statistics():
    chain = circuit_step_table("postproc", F(1, 9), F(2, 3))
    machine = post_processed_coin(F(1, 9), F(2, 3))
    rng = np.random.default_rng(90)
    traj = walk(chain, 0, 20000, rng)
    report = compare_transitions(*word_counts(traj, 3, 3),
                                 induced_chain(machine).to_numpy(), context=2)
    assert report.passed, report
    assert not report.hard_failures
    a = walk(chain, 1, 50, np.random.default_rng(3))
    b = walk(chain, 1, 50, np.random.default_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        walk(chain, 9, 5, rng)


# The output qubits of each chained step, least significant first: the coin
# emits its memory qubit, and the post-processed coin its memory qubit and
# second ancilla, while the first ancilla carries the memory on.
CHAINED_OUTPUTS = {"coin": [(1,), (2,), (3,), (4,), (5,), (6,)],
                   "postproc": [(1, 3), (2, 5), (4, 7), (6, 9)]}


@pytest.mark.parametrize("model,p,q,steps",
                         [("coin", p, None, k) for p in (F(3, 10), 0.37)
                          for k in range(1, 7)]
                         + [("postproc", p, q, k)
                            for p, q in ((F(1, 9), F(2, 3)), (0.2, 0.35))
                            for k in range(1, 5)])
def test_chained_outputs_follow_word_law(model, p, q, steps):
    """Measuring the outputs of k chained steps from causal state j gives
    the machine's law of k-symbol words started in j."""
    machine = (perturbed_coin(p) if model == "coin"
               else post_processed_coin(p, q))
    outputs = CHAINED_OUTPUTS[model][:steps]
    width = len(outputs[0])
    qubits = tuple(qubit for step in outputs for qubit in step)
    for j, psi in enumerate(protocol_states(model, p, q, steps)[-1]):
        law = exact_kgram_distribution(machine, steps, start=j)
        dist = {}
        for bits, pr, _ in measure(psi, qubits):
            symbols = [bits[m:m + width] for m in range(0, len(bits), width)]
            dist[tuple(sum(bit << i for i, bit in enumerate(y))
                       for y in symbols)] = pr
        for word in set(dist) | set(law):
            assert abs(dist.get(word, 0.0) - float(law.get(word, 0))) \
                <= 1e-12, (j, word)


def test_two_step_state_matches_word_law():
    for p in P_GRID:
        machine = perturbed_coin(p)
        for j in range(2):
            theta = protocol_states("coin", p, steps=2)[-1][j]
            assert theta.shape == (8,)
            check_unit(theta)
            dist = {word: pr for word, pr, _ in measure(theta, (1, 2))
                    if pr > 0}
            law = exact_kgram_distribution(machine, 2, start=j)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-14)
            for word in set(dist) | set(law):
                assert dist.get(word, 0.0) == pytest.approx(
                    float(law.get(word, 0)), abs=1e-13)
