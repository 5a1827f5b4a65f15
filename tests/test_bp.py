"""Message passing on cyclic factor graphs versus the circuit route.

Every graph here is the mirrored kind whose loop product is a rank-one
projector, so one lap around the cycle must reproduce the boundary
message exactly; that closure is asserted everywhere alongside the
per-edge comparison with states built from raw gates.
"""

import numpy as np
import pytest

from fractions import Fraction

from qimem.bp import (AnnihilatingFactorError, CycleFactorGraph, backward_pass,
                      brute_marginals, cut_distribution, expected_messages,
                      forward_pass, marginal, prep_factor, protocol_graph)
from qimem.markov import perturbed_coin
from qimem.quantum import protocol_states

from helpers import exact_kgram_distribution, reference_bp

P_SWEEP = [0.0, 0.3, 1 / 9, 1.0]


def unit_init(graph: CycleFactorGraph) -> np.ndarray:
    init = np.zeros(graph.dims[0])
    init[0] = 1.0
    return init


def full_battery(graph, model, p, q=None, steps=1, tol=1e-12):
    """All five equivalence checks on every state of one graph; returns the
    worst deviation."""
    init = unit_init(graph)
    mu = forward_pass(graph, init)
    nu = backward_pass(graph, init)
    L = graph.n_vars
    expected = expected_messages(model, p, q=q, steps=steps)
    dev = max(np.max(np.abs(mu[ell] - expected[ell]))
              for ell in range(L + 1))
    dev = max(dev, np.max(np.abs(mu[L] - init)))
    dev = max(dev, max(np.max(np.abs(nu[ell] - mu[ell]))
                       for ell in range(L)))
    for ell in range(L):
        point = marginal(mu[ell], nu[ell])
        assert point.sum(axis=-1) == pytest.approx(1.0, abs=1e-13)
        diag = cut_distribution(graph, ell)
        dev = max(dev, float(np.max(np.abs(point - diag))))
    for j in range(graph.state_shape[0]):
        enum_marg, z = brute_marginals(graph.state(j))
        assert z == pytest.approx(1.0, abs=1e-12)
        dev = max(dev, max(float(np.max(np.abs(
            marginal(mu[ell][j], nu[ell][j]) - m)))
            for ell, m in enumerate(enum_marg)))
    assert dev < tol, f"{model} p={p}: deviation {dev}"
    return dev


def test_graph_validation():
    with pytest.raises(ValueError):
        CycleFactorGraph([])
    good = protocol_graph("coin", 0.3)
    assert good.n_vars == 4 and good.dims == [4, 4, 4, 4]
    assert good.state_shape == (2,)
    assert protocol_graph("postproc", 0.3, 0.5).state_shape == (3,)
    broken = [np.eye(4), np.zeros((8, 4)), np.eye(4)]  # 8 does not chain back
    with pytest.raises(ValueError):
        CycleFactorGraph(broken)
    with pytest.raises(ValueError):  # two and three states
        CycleFactorGraph([np.zeros((2, 4, 4)), np.zeros((3, 4, 4))])
    with pytest.raises(ValueError):
        CycleFactorGraph([np.zeros((1, 2, 4, 4)), np.eye(4)])
    plain = CycleFactorGraph([np.eye(2), np.eye(2)])
    assert plain.state_shape == ()
    with pytest.raises(ValueError):
        plain.state(0)
    with pytest.raises(ValueError):
        good.state(-1)


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
        full_battery(protocol_graph("coin", p), "coin", p)
    with pytest.raises(ValueError):
        protocol_graph("coin", 0.3).state(2)
    with pytest.raises(ValueError):
        protocol_graph("coin", 0.3, steps=0)


def test_coin_graph_deterministic_point():
    # p = 0 from the quiet state: every message is a basis vector
    mu = forward_pass(protocol_graph("coin", 0.0),
                      np.array([1.0, 0, 0, 0]))
    for msg in mu:
        assert np.count_nonzero(msg[0]) == 1
        assert np.linalg.norm(msg[0]) == 1.0


def test_postproc_graph_battery():
    for p in P_SWEEP:
        full_battery(protocol_graph("postproc", p, 2 / 3), "postproc", p,
                     q=2 / 3)
    for q in (0.0, 1.0):
        full_battery(protocol_graph("postproc", 0.3, q), "postproc", 0.3,
                     q=q)
    with pytest.raises(ValueError):
        protocol_graph("postproc", 0.3, 0.5).state(3)


def test_prep_side_closes_into_projector():
    g = protocol_graph("coin", 0.7).state(1)
    G = g.factors[1] @ g.factors[0]
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    assert np.allclose(G.T @ G, target, atol=1e-12)
    for j in range(3):
        g = protocol_graph("postproc", 0.2, 0.6).state(j)
        G = np.eye(8)
        for f in g.factors[:4]:
            G = f @ G
        target = np.zeros((8, 8))
        target[0, 0] = 1.0
        assert np.allclose(G.T @ G, target, atol=1e-12)


def test_two_step_graph():
    p = 0.3
    graph = protocol_graph("coin", p, steps=2)
    assert graph.dims == [4, 4, 4, 8, 8, 8, 4, 4]
    full_battery(graph, "coin", p, steps=2)
    mu = forward_pass(graph, unit_init(graph))
    for j in (0, 1):
        # the fully entangled edge carries the two-step circuit state
        theta = protocol_states("coin", p, steps=2)[-1][j]
        assert np.max(np.abs(mu[4][j] - theta)) < 1e-12
        # reading both output slots off that edge gives the word law;
        # the final memory qubit is the last axis and is traced out
        diag = cut_distribution(graph, 4)[j]
        joint = diag.reshape(2, 2, 2).sum(axis=2)
        law = exact_kgram_distribution(perturbed_coin(p), 2, start=j)
        for (b1, b2), pr in np.ndenumerate(joint):
            assert pr == pytest.approx(float(law.get((b1, b2), 0)),
                                       abs=1e-13)


def test_three_step_graph_spliced():
    graph = protocol_graph("coin", 0.4, steps=3)
    assert graph.n_vars == 12
    assert graph.dims[5] == 16
    init = unit_init(graph)
    mu = forward_pass(graph, init)
    expected = expected_messages("coin", 0.4, steps=3)
    assert max(np.max(np.abs(m - e))
               for m, e in zip(mu, expected)) < 1e-12
    assert np.max(np.abs(mu[-1] - init)) < 1e-12
    # 34 bits of joint state is past the enumeration guard
    with pytest.raises(ValueError):
        brute_marginals(graph.state(1))


def test_annihilating_factor():
    graph = CycleFactorGraph([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(AnnihilatingFactorError):
        forward_pass(graph, np.array([1.0, 0.0]))
    with pytest.raises(AnnihilatingFactorError):
        backward_pass(graph, np.array([1.0, 0.0]))
    # one state of two is enough
    graph = CycleFactorGraph([np.stack([np.eye(2), np.zeros((2, 2))]),
                              np.eye(2)])
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
    graph = protocol_graph("coin", 0.3)
    with pytest.raises(ValueError):
        forward_pass(graph, np.ones(8))
    with pytest.raises(ValueError):
        backward_pass(graph, np.ones(8))


def test_marginal_validation():
    with pytest.raises(ValueError):  # disjoint supports, zero normalizer
        marginal(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):  # one state of two
        marginal(np.array([[1.0, 0.0], [1.0, 0.0]]),
                 np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cut_distribution(protocol_graph("coin", 0.3), 4)
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):  # state 1's loop product has no trace
        cut_distribution(CycleFactorGraph([np.stack([np.eye(2), shift]),
                                           shift.T]), 0)


SHARED_GRID = [0, 1, Fraction(2, 3), 0.37]


@pytest.mark.parametrize("model,p,q,steps",
                         [("coin", p, None, s) for s in range(1, 6)
                          for p in SHARED_GRID]
                         + [("postproc", p, q, 1) for p in SHARED_GRID
                            for q in SHARED_GRID]
                         + [("postproc", p, q, s) for s in (2, 3)
                            for p, q in ((Fraction(1, 9), Fraction(2, 3)),
                                         (0.2, 0.35))])
def test_shared_graph_matches_per_state_route(model, p, q, steps):
    """The graph of all causal states at once gives every state the bytes
    of its own graph run the per-state way."""
    graph = protocol_graph(model, p, q, steps)
    init = unit_init(graph)
    mu = forward_pass(graph, init)
    nu = backward_pass(graph, init)
    shared = {"forward": mu, "backward": nu,
              "marginals": [marginal(mu[ell], nu[ell])
                            for ell in range(graph.n_vars)],
              "diagonals": [cut_distribution(graph, ell)
                            for ell in range(graph.n_vars)]}
    for j in range(graph.state_shape[0]):
        for name, arrays in reference_bp(graph.state(j)).items():
            assert len(arrays) == len(shared[name]), name
            for ell, want in enumerate(arrays):
                got = shared[name][ell][j]
                assert got.tobytes() == want.tobytes(), (name, j, ell)


@pytest.mark.parametrize("p,q", [(Fraction(1, 9), Fraction(2, 3)),
                                 (0.2, 0.35)])
def test_chained_postproc_graph(p, q):
    """Two chained postproc steps: the second step's expansion appends two
    ancillas, the forward messages are the circuit's states and the loop
    closes."""
    graph = protocol_graph("postproc", p, q, steps=2)
    assert graph.dims == [8] * 5 + [32] * 7 + [8] * 4
    init = unit_init(graph)
    mu = forward_pass(graph, init)
    expected = expected_messages("postproc", p, q=q, steps=2)
    assert max(np.max(np.abs(m - e)) for m, e in zip(mu, expected)) < 1e-12
    assert np.max(np.abs(mu[-1] - init)) < 1e-12
