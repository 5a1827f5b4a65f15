"""State-vector circuits, encoded memory states and density spectra.

The circuit outputs are always compared against the machine route, and
spectra against an independently assembled Gram matrix, so every check
here crosses two computation paths.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from qimem import quantum
from qimem.bp import expected_messages
from qimem.markov import (binary_entropy, context_law,
                          exact_kgram_distribution, induced_chain, perturbed_coin, post_processed_coin,
                          sample_edges, statistical_memory,
                          topological_memory)
from qimem.quantum import (check_density, check_orthogonal, check_unit,
                           circuit_step_table, cnot, coin_memory_qubits,
                           coin_quantum_memory, coin_two_step_distribution,
                           controlled_u, density_spectrum, kron, measure,
                           n_qubits, postproc_memory_qubits, protocol_states,
                           protocol_step, quantum_causal_states,
                           quantum_statistical_memory,
                           quantum_topological_memory, stationary_density,
                           u_x)
from qimem.stats import compare_transitions, context_counts

from helpers import random_machine

P_GRID = [i / 10 for i in range(11)]


def gram_from_machine(machine) -> np.ndarray:
    """Overlap matrix of the encoded memory states, straight from emit/succ."""
    n = machine.n
    G = np.eye(n)
    for i in range(n):
        for k in range(i + 1, n):
            s = sum(math.sqrt(float(machine.emit[i][x]) * float(machine.emit[k][x]))
                    for x in machine.emit[i]
                    if x in machine.emit[k]
                    and machine.succ[i][x] == machine.succ[k][x])
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
        check_orthogonal(u_x(x, completion="reflection"))
    assert np.allclose(u_x(0.36, "reflection")[:, 1], [0.6, -0.8], atol=1e-15)
    with pytest.raises(ValueError):
        u_x(-0.1)
    with pytest.raises(ValueError):
        u_x(0.5, completion="bogus")


def test_nan_probabilities_rejected():
    for bad in (float("nan"), float("inf"), -0.1, 1.1):
        with pytest.raises(ValueError):
            u_x(bad)
        with pytest.raises(ValueError):
            coin_quantum_memory(bad)
        with pytest.raises(ValueError):
            postproc_memory_qubits(bad)
    for x in (0, 1):
        u_x(x)
        coin_quantum_memory(x)
        postproc_memory_qubits(x)


def test_gate_orthogonality():
    for x in P_GRID:
        check_orthogonal(controlled_u(3, 1, 3, u_x(x), control_value=0))
        check_orthogonal(controlled_u(3, 1, 2, u_x(x)))
    check_orthogonal(cnot(2, 1, 2))
    check_orthogonal(cnot(3, 3, 2))
    with pytest.raises(ValueError):
        controlled_u(2, 1, 1, u_x(0.5))
    with pytest.raises(ValueError):
        cnot(2, 0, 1)


def test_cnot_action():
    # qubit 1 is the most significant bit of the index
    g = cnot(2, 1, 2)
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
        xi0, xi1 = coin_memory_qubits(p)
        check_unit(xi0), check_unit(xi1)
        assert xi0 @ xi1 == pytest.approx(2 * math.sqrt(p * (1 - p)),
                                          abs=1e-14)
    xi0, xi1 = coin_memory_qubits(0.25)
    assert xi0 @ xi1 == pytest.approx(0.8660254037844386, abs=1e-15)


def test_encoded_states_match_single_qubit_overlaps():
    # the full state-output encoding and the one-qubit representation
    # must agree on every pairwise overlap
    q = F(2, 3)
    machine = post_processed_coin(F(1, 9), q)
    enc = quantum_causal_states(machine)
    assert all(v.shape == (9,) for v in enc)
    xi = postproc_memory_qubits(q)
    for i in range(3):
        check_unit(enc[i])
        for k in range(3):
            assert enc[i] @ enc[k] == pytest.approx(xi[i] @ xi[k], abs=1e-14)
    assert enc[0] @ enc[1] == pytest.approx(math.sqrt(float(q)), abs=1e-14)
    assert enc[0] @ enc[2] == 0.0


def test_coin_step_matches_machine():
    for p in P_GRID:
        machine = perturbed_coin(p)
        refs = coin_memory_qubits(p)
        for j in range(2):
            outcomes = protocol_step("coin", j, p)
            assert sum(pr for _, pr, _ in outcomes) == pytest.approx(1.0, abs=1e-14)
            for x, pr, post in outcomes:
                assert pr == pytest.approx(float(machine.emit[j].get(x, 0)),
                                           abs=1e-13)
                if pr > 0:
                    assert np.allclose(post, refs[x], atol=1e-13)


def test_coin_step_completion_invariance():
    for p in (0.1, 0.5, 0.9):
        for j in range(2):
            a = protocol_step("coin", j, p, completion="rotation")
            b = protocol_step("coin", j, p, completion="reflection")
            for (xa, pa, va), (xb, pb, vb) in zip(a, b):
                assert xa == xb and pa == pb
                if va is not None:
                    assert np.array_equal(va, vb)


def test_postproc_step_matches_machine():
    grid = [(F(1, 9), F(2, 3)), (0.3, 0.6), (0.0, 0.5), (1.0, 0.5),
            (0.3, 0.0), (0.3, 1.0)]
    for p, q in grid:
        machine = post_processed_coin(p, q)
        refs = postproc_memory_qubits(q)
        for j in range(3):
            outcomes = protocol_step("postproc", j, p, q)
            assert sum(pr for _, pr, _ in outcomes) == pytest.approx(1.0, abs=1e-14)
            for x, pr, post in outcomes:
                assert pr == pytest.approx(float(machine.emit[j].get(x, 0)),
                                           abs=1e-13)
                if pr > 0:
                    assert np.allclose(post, refs[x], atol=1e-13)
            b = protocol_step("postproc", j, p, q,
                              completion="reflection")
            assert [(x, pr) for x, pr, _ in b] == [(x, pr) for x, pr, _ in outcomes]


def assert_states_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def raw_coin_states(p, j, steps, completion):
    e0 = np.array([1.0, 0.0])
    xi = [u_x(p, completion)[:, 0], u_x(1 - float(p), completion)[:, 0]]
    states = [kron(e0, e0), kron(xi[j], xi[0])]
    states.append(cnot(2, 1, 2) @ states[-1])
    for m in range(2, steps + 1):
        states.append(kron(states[-1], xi[0]))
        states.append(cnot(m + 1, m, m + 1) @ states[-1])
    return states


def raw_postproc_states(p, q, j, completion):
    e0, e1 = np.eye(2)
    xi = [e0, np.array([math.sqrt(float(q)), math.sqrt(1 - float(q))]), e1]
    states = [kron(e0, e0, e0), kron(xi[j], e0, e0)]
    for gate in (controlled_u(3, 1, 3, u_x(p, completion), control_value=0),
                 controlled_u(3, 1, 2, u_x(1 - float(q), completion)),
                 cnot(3, 3, 2)):
        states.append(gate @ states[-1])
    return states


def test_postproc_conflicting_branch_is_structurally_dead():
    # rebuilt from raw gates: the ancilla pair can never read (1, 1),
    # whatever the parameters, because each control kills one writer
    for p in (0.0, 0.2, 0.7, 1.0):
        for q in (0.0, 0.4, 1.0):
            for j in range(3):
                psi = raw_postproc_states(p, q, j, "rotation")[-1]
                probs = dict((o, pr) for o, pr, _ in measure(psi, (1, 3)))
                assert probs[(1, 1)] == 0.0


@pytest.mark.parametrize("completion", ["rotation", "reflection"])
@pytest.mark.parametrize("p", [F(1, 9), F(1, 2), 0.3, 0.0, 1.0])
def test_protocol_states_match_raw_gates(p, completion):
    # each protocol rebuilt gate by gate; the BP messages are the rotation
    # states followed by their mirror image, bit for bit
    for j in (0, 1):
        for steps in (1, 2, 3):
            assert_states_equal(
                protocol_states("coin", p, j, steps=steps,
                                completion=completion),
                raw_coin_states(p, j, steps, completion))
            want = raw_coin_states(p, j, steps, "rotation")
            assert_states_equal(expected_messages("coin", p, j, steps=steps),
                                want + want[-2::-1])
    for q in (F(2, 3), 0.25, 0.0, 1.0):
        for j in (0, 1, 2):
            assert_states_equal(
                protocol_states("postproc", p, j, q, completion=completion),
                raw_postproc_states(p, q, j, completion))
            want = raw_postproc_states(p, q, j, "rotation")
            assert_states_equal(expected_messages("postproc", p, j, q=q),
                                want + want[-2::-1])


def test_protocol_validation():
    for model, j in (("coin", 2), ("coin", -1), ("postproc", 3)):
        with pytest.raises(ValueError):
            protocol_states(model, 0.3, j, q=0.5)
    with pytest.raises(ValueError):
        protocol_states("coin", 0.3, 0, steps=0)
    with pytest.raises(ValueError):
        protocol_states("postproc", 0.3, 0, q=0.5, steps=2)
    with pytest.raises(ValueError):
        protocol_states("postproc", 0.3, 0)
    with pytest.raises(ValueError):
        protocol_states("bogus", 0.3, 0)
    with pytest.raises(ValueError):
        protocol_states("postproc", 0.3, 0, q=0.5, completion="bogus")
    with pytest.raises(ValueError):
        protocol_step("coin", 0, 0.3, completion="bogus")


def test_coin_density_spectrum():
    for p in P_GRID[1:-1]:
        rho = stationary_density(perturbed_coin(p))
        check_density(rho)
        lams = density_spectrum(rho)
        root = math.sqrt(p * (1 - p))
        assert lams[0] == pytest.approx(0.5 + root, abs=1e-13)
        assert lams[1] == pytest.approx(0.5 - root, abs=1e-13)


def test_coin_quantum_memory_closed_form():
    # eigen route against the closed form, including the endpoint chains
    # whose stationary state must be supplied by hand
    for p in P_GRID[1:-1]:
        rho = stationary_density(perturbed_coin(p))
        assert quantum_statistical_memory(rho) == pytest.approx(
            coin_quantum_memory(p), abs=1e-12)
    for p in (0, 1):
        rho = stationary_density(perturbed_coin(p), weights=(0.5, 0.5))
        assert quantum_statistical_memory(rho) == pytest.approx(
            coin_quantum_memory(p), abs=1e-12)
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
    rho = stationary_density(machine)
    check_density(rho)
    assert quantum_topological_memory(rho) == 1.0
    assert topological_memory(machine) == pytest.approx(math.log2(3), abs=0)
    sq = quantum_statistical_memory(rho)
    assert sq == pytest.approx(0.5751673966589481, abs=1e-12)
    assert sq < statistical_memory(machine)
    # independent spectrum from the Gram matrix of the encoded states
    from qimem.markov import stationary
    pi = stationary(induced_chain(machine))
    lams = spectrum_from_gram(machine, pi)
    assert np.allclose(density_spectrum(rho)[:3], lams, atol=1e-12)
    assert abs(lams[2]) < 1e-14


def test_random_machines_never_beat_classical_memory():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        machine = random_machine(rng, int(rng.integers(2, 6)),
                                 int(rng.integers(2, 5)))
        rho = stationary_density(machine)
        sq = quantum_statistical_memory(rho)
        hc = statistical_memory(machine)
        assert sq <= hc + 1e-9
        assert quantum_topological_memory(rho) <= topological_memory(machine) + 1e-9
        from qimem.markov import stationary
        pi = stationary(induced_chain(machine))
        ref = spectrum_from_gram(machine, pi)
        assert np.allclose(density_spectrum(rho)[:machine.n], ref, atol=1e-10)


def test_density_validation():
    with pytest.raises(ValueError):
        check_density(np.array([[0.5, 0.1], [0.2, 0.5]]))   # not symmetric
    with pytest.raises(ValueError):
        check_density(np.array([[0.7, 0.0], [0.0, 0.7]]))   # trace off
    with pytest.raises(ValueError):
        check_density(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative weight


def test_circuit_step_table_successors():
    table = circuit_step_table("coin", 0.3)
    chain = induced_chain(perturbed_coin(0.3))
    for j, row in enumerate(table):
        for x, pr, nxt in row:
            assert nxt == x
            assert pr == pytest.approx(float(chain[j][nxt]), abs=1e-13)
    table = circuit_step_table("postproc", F(1, 9), F(2, 3))
    assert [[nxt for _, _, nxt in row] for row in table] \
        == [[0, 2], [0, 1, 2], [1]]
    with pytest.raises(ValueError):
        circuit_step_table("postproc", 0.3)
    with pytest.raises(ValueError):
        circuit_step_table("bogus", 0.3)


def test_circuit_trajectory_statistics():
    table = circuit_step_table("postproc", F(1, 9), F(2, 3))
    machine = post_processed_coin(F(1, 9), F(2, 3))
    rng = np.random.default_rng(90)
    traj, _ = sample_edges(table, 0, 20000, rng)
    report = compare_transitions(context_counts(traj, 2, 3),
                                 context_law(machine, 2), context=2)
    assert report.passed, report
    assert not report.hard_failures
    a, _ = sample_edges(table, 1, 50, np.random.default_rng(3))
    b, _ = sample_edges(table, 1, 50, np.random.default_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_edges(table, 9, 5, rng)


def test_two_step_state_matches_word_law():
    for p in P_GRID:
        machine = perturbed_coin(p)
        for j in range(2):
            theta = protocol_states("coin", p, j, steps=2)[-1]
            assert theta.shape == (8,)
            check_unit(theta)
            dist = coin_two_step_distribution(j, p)
            law = exact_kgram_distribution(machine, 2, start=j)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-14)
            for word in set(dist) | set(law):
                assert dist.get(word, 0.0) == pytest.approx(
                    float(law.get(word, 0)), abs=1e-13)
