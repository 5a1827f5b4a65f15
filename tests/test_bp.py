"""Message passing on cyclic factor graphs versus the circuit route.

Every graph here is the mirrored kind whose loop product is a rank-one
projector, so one lap around the cycle must reproduce the boundary
message exactly; that closure is asserted everywhere alongside the
per-edge comparison with states built from raw gates.
"""

import numpy as np
import pytest

from qimem import bp
from qimem.bp import (AnnihilatingFactorError, CycleFactorGraph, Message,
                      backward_pass, brute_marginals, coin_graph,
                      diagonal_distribution, expected_messages, forward_pass,
                      marginal, message_phase_decompose, postproc_graph,
                      prep_factor, probability_matrix)
from qimem.markov import exact_kgram_distribution, perturbed_coin
from qimem.quantum import protocol_states

P_SWEEP = [0.0, 0.3, 1 / 9, 1.0]


def unit_init(graph: CycleFactorGraph) -> np.ndarray:
    init = np.zeros(graph.dims[0])
    init[0] = 1.0
    return init


def full_battery(graph, model, p, j, q=None, steps=1, tol=1e-12):
    """All five equivalence checks on one graph; returns worst deviation."""
    init = unit_init(graph)
    mu = forward_pass(graph, init)
    nu = backward_pass(graph, init)
    L = graph.n_vars
    expected = expected_messages(model, p, j, q=q, steps=steps)
    dev = max(np.max(np.abs(mu[ell].values - expected[ell]))
              for ell in range(L + 1))
    dev = max(dev, np.max(np.abs(mu[L].values - init)))
    dev = max(dev, max(np.max(np.abs(nu[ell].values - mu[ell].values))
                       for ell in range(L)))
    for ell in range(L):
        point = marginal(mu[ell], nu[ell])
        assert point.sum() == pytest.approx(1.0, abs=1e-13)
        diag = diagonal_distribution(probability_matrix(graph, ell))
        dev = max(dev, float(np.max(np.abs(point - diag))))
    enum_marg, z = brute_marginals(graph)
    assert z == pytest.approx(1.0, abs=1e-12)
    dev = max(dev, max(float(np.max(np.abs(marginal(mu[ell], nu[ell]) - m)))
                       for ell, m in enumerate(enum_marg)))
    assert dev < tol, f"{model} p={p} j={j}: deviation {dev}"
    return dev


def test_graph_validation():
    with pytest.raises(ValueError):
        CycleFactorGraph([])
    good = coin_graph(0.3, 0)
    assert good.n_vars == 4 and good.dims == [4, 4, 4, 4]
    broken = [np.eye(4), np.zeros((8, 4)), np.eye(4)]  # 8 does not chain back
    with pytest.raises(ValueError):
        CycleFactorGraph(broken)


def test_prep_factor():
    f = prep_factor(0.36)
    assert np.allclose(f[:, 0], [0.8, 0.6], atol=1e-15)
    assert not f[:, 1].any()
    assert np.allclose(f.T @ f, [[1, 0], [0, 0]], atol=1e-15)
    with pytest.raises(ValueError):
        prep_factor(1.01)
    with pytest.raises(ValueError):
        prep_factor(float("nan"))


def test_coin_graph_battery():
    for p in P_SWEEP:
        for j in (0, 1):
            full_battery(coin_graph(p, j), "coin", p, j)
    with pytest.raises(ValueError):
        coin_graph(0.3, 2)
    with pytest.raises(ValueError):
        coin_graph(0.3, 0, steps=0)


def test_coin_graph_deterministic_point():
    # p = 0 from the quiet state: every message is a basis vector
    mu = forward_pass(coin_graph(0.0, 0), np.array([1.0, 0, 0, 0]))
    for msg in mu:
        assert np.count_nonzero(msg.values) == 1
        assert np.linalg.norm(msg.values) == 1.0


def test_postproc_graph_battery():
    for p in P_SWEEP:
        for j in (0, 1, 2):
            full_battery(postproc_graph(p, 2 / 3, j), "postproc", p, j,
                         q=2 / 3)
    for q in (0.0, 1.0):
        full_battery(postproc_graph(0.3, q, 1), "postproc", 0.3, 1, q=q)
    with pytest.raises(ValueError):
        postproc_graph(0.3, 0.5, 3)


def test_prep_side_closes_into_projector():
    g = coin_graph(0.7, 1)
    G = g.factors[1] @ g.factors[0]
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    assert np.allclose(G.T @ G, target, atol=1e-12)
    for j in range(3):
        g = postproc_graph(0.2, 0.6, j)
        G = np.eye(8)
        for f in g.factors[:4]:
            G = f @ G
        target = np.zeros((8, 8))
        target[0, 0] = 1.0
        assert np.allclose(G.T @ G, target, atol=1e-12)


def test_two_step_graph():
    p = 0.3
    for j in (0, 1):
        graph = coin_graph(p, j, steps=2)
        assert graph.dims == [4, 4, 4, 8, 8, 8, 4, 4]
        full_battery(graph, "coin", p, j, steps=2)
        mu = forward_pass(graph, unit_init(graph))
        # the fully entangled edge carries the two-step circuit state
        theta = protocol_states("coin", p, j, steps=2)[-1]
        assert np.max(np.abs(mu[4].values - theta)) < 1e-12
        # reading both output slots off that edge gives the word law;
        # the final memory qubit is the last axis and is traced out
        diag = diagonal_distribution(probability_matrix(graph, 4))
        joint = diag.reshape(2, 2, 2).sum(axis=2)
        law = exact_kgram_distribution(perturbed_coin(p), 2, start=j)
        for (b1, b2), pr in np.ndenumerate(joint):
            assert pr == pytest.approx(float(law.get((b1, b2), 0)),
                                       abs=1e-13)


def test_three_step_graph_spliced():
    graph = coin_graph(0.4, 1, steps=3)
    assert graph.n_vars == 12
    assert graph.dims[5] == 16
    init = unit_init(graph)
    mu = forward_pass(graph, init)
    expected = expected_messages("coin", 0.4, 1, steps=3)
    assert max(np.max(np.abs(m.values - e))
               for m, e in zip(mu, expected)) < 1e-12
    assert np.max(np.abs(mu[-1].values - init)) < 1e-12
    # 34 bits of joint state is past the enumeration guard
    with pytest.raises(ValueError):
        brute_marginals(graph)


def test_annihilating_factor():
    graph = CycleFactorGraph([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(AnnihilatingFactorError):
        forward_pass(graph, np.array([1.0, 0.0]))
    with pytest.raises(AnnihilatingFactorError):
        backward_pass(graph, np.array([1.0, 0.0]))


def test_brute_zero_normalizer():
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    graph = CycleFactorGraph([shift, shift])
    with pytest.raises(ValueError):
        brute_marginals(graph)


def test_forward_init_validation():
    graph = coin_graph(0.3, 0)
    with pytest.raises(ValueError):
        forward_pass(graph, np.ones(8))
    with pytest.raises(ValueError):
        backward_pass(graph, np.ones(8))


def test_marginal_validation():
    mu = Message(variable=1, direction="forward", values=np.array([1.0, 0.0]))
    nu = Message(variable=1, direction="backward", values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        marginal(mu, nu)  # disjoint supports, zero normalizer
    with pytest.raises(ValueError):
        marginal(mu, Message(2, "backward", np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        marginal(mu, mu)  # two forward messages
    with pytest.raises(ValueError):
        probability_matrix(coin_graph(0.3, 0), 4)


def test_message_phase_decompose():
    probs = np.array([0.2, 0.3, 0.5])
    phase = np.array([0.1, -0.2, 0.4])
    mu = Message(0, "forward", 2.7 * np.sqrt(probs) * np.exp(phase))
    nu = Message(0, "backward", 0.9 * np.sqrt(probs) * np.exp(-phase))
    got_p, got_phi = message_phase_decompose(mu, nu)
    assert np.allclose(got_p, probs, atol=1e-13)
    # the phase field is recovered up to one overall constant
    assert np.allclose(got_phi - got_phi[0], phase - phase[0], atol=1e-13)

    padded = Message(0, "forward", np.array([0.5, 0.0, 0.5]))
    matched = Message(0, "backward", np.array([0.5, 0.0, 0.5]))
    got_p, got_phi = message_phase_decompose(padded, matched)
    assert got_p[1] == 0.0 and got_phi[1] == 0.0
    with pytest.raises(ValueError):
        message_phase_decompose(padded, nu)  # support mismatch
    with pytest.raises(ValueError):
        message_phase_decompose(
            Message(0, "forward", np.array([-1.0, 1.0])),
            Message(0, "backward", np.array([-1.0, 1.0])))
