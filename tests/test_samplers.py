"""Save/reroute tables, ensemble samplers and the single-bit machine.

The worked three-state chain at p = 1/9, q = 2/3 is used as the exact
fixture throughout; its tables below were derived by hand from the
decomposition and frozen.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qimem import samplers
from qimem.markov import (TransitionMatrix, induced_chain, perturbed_coin,
                          post_processed_coin, stationary)
from qimem.samplers import (CoinEnsemble, DegenerateSupportError,
                            GeneralQISampler, RerouteTables,
                            StochasticBitMachine, coin_signed_decomposition,
                            decompose, effective_kernel, expected_memory,
                            reroute_ratios, save_fractions,
                            stochastic_causal_dimension,
                            three_state_demo_chain)
from qimem.stats import (compare_transitions, context_counts,
                         transition_counts)
from qimem.markov import context_law

from helpers import random_chain

DEMO = three_state_demo_chain(F(1, 9), F(2, 3))
DEMO_TABLES = RerouteTables.from_chain(DEMO)


def test_demo_chain_rows():
    assert DEMO[0] == (F(1, 3), F(1, 3), F(1, 3))
    assert DEMO[1] == (F(1, 9), F(2, 3), F(2, 9))
    assert DEMO[2] == DEMO[0]
    with pytest.raises(ValueError):
        three_state_demo_chain(0.7, 0.5)
    with pytest.raises(ValueError):
        three_state_demo_chain(-0.1, 0.5)


def test_decompose_exact():
    pi, delta = decompose(DEMO)
    assert pi == (F(2, 9), F(1, 2), F(5, 18))
    assert delta[0] == (F(1, 9), F(-1, 6), F(1, 18))
    assert delta[1] == (F(-1, 9), F(1, 6), F(-1, 18))
    assert delta[2] == delta[0]
    for j in range(3):
        assert sum(delta[j]) == 0
        for i in range(3):
            assert pi[i] + delta[j][i] == DEMO[j][i]


def test_decompose_float():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        T = random_chain(rng, n)
        pi, delta = decompose(T)
        A = np.asarray(pi)[None, :] + np.asarray(delta)
        assert np.max(np.abs(A - T.to_numpy())) < 1e-12
        assert np.max(np.abs(np.asarray(delta).sum(axis=1))) < 1e-12


def test_degenerate_support_rejected():
    with pytest.raises(DegenerateSupportError):
        decompose(DEMO, pi=(F(1, 2), F(1, 2), F(0)))


def test_decompose_rejects_pi_off_the_simplex():
    # Delta rows would sum to -0.1; this must not hinge on assert
    with pytest.raises(ValueError):
        decompose(induced_chain(perturbed_coin(0.3)), pi=(0.5, 0.6))


def test_nan_probabilities_rejected():
    nan = float("nan")
    rng = np.random.default_rng(0)
    for bad in (nan, float("inf"), -0.5, 1.5):
        with pytest.raises(ValueError):
            CoinEnsemble(bad, 10, seed=0)
        with pytest.raises(ValueError):
            coin_signed_decomposition(bad)
        with pytest.raises(ValueError):
            StochasticBitMachine(bad, 0.5, 0, rng)
        with pytest.raises(ValueError):
            StochasticBitMachine(0.5, bad, 0, rng)
        with pytest.raises(ValueError):
            three_state_demo_chain(bad, 0.1)
    for p in (0.0, 1.0):
        CoinEnsemble(p, 10, seed=0)
        coin_signed_decomposition(p)
        StochasticBitMachine(p, p, 0, rng)


def test_save_fractions_frozen():
    assert DEMO_TABLES.f == (F(1, 3), F(1, 2), F(1, 3))


def test_reroute_ratios_frozen():
    assert DEMO_TABLES.rminus == ((F(0), F(1), F(0)),
                                  (F(1), F(0), F(2, 5)),
                                  (F(0), F(1), F(0)))
    assert DEMO_TABLES.rplus == ((F(2, 3), F(0), F(1, 3)),
                                 (F(0), F(1), F(0)),
                                 (F(2, 3), F(0), F(1, 3)))
    # ratios are probabilities
    for table in (DEMO_TABLES.rminus, DEMO_TABLES.rplus):
        assert all(0 <= v <= 1 for row in table for v in row)


def test_effective_kernel_exact():
    kernel = effective_kernel(DEMO_TABLES)
    for j in range(3):
        for i in range(3):
            assert kernel[j][i] == DEMO[j][i]


def test_effective_kernel_float_sweep():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        T = random_chain(rng, n)
        kernel = effective_kernel(RerouteTables.from_chain(T))
        dev = max(abs(kernel[j][i] - T[j][i])
                  for j in range(n) for i in range(n))
        assert dev < 1e-12


def test_expected_memory():
    fraction, bits = expected_memory(DEMO_TABLES)
    assert fraction == F(5, 12) and bits == F(5, 6)
    assert expected_memory(DEMO_TABLES, n_samples=4)[1] == F(10, 3)


def test_coin_tables_specialize_to_flip_rule():
    # p > 1/2 saves with probability 2p - 1 and flips on a match,
    # p < 1/2 with probability 1 - 2p flipping on a mismatch
    t = RerouteTables.from_chain(induced_chain(perturbed_coin(0.75)))
    assert np.allclose(t.f, [0.5, 0.5], atol=1e-12)
    assert np.allclose(t.rminus, [[1, 0], [0, 1]], atol=1e-12)
    assert np.allclose(t.rplus, [[0, 1], [1, 0]], atol=1e-12)
    t = RerouteTables.from_chain(induced_chain(perturbed_coin(0.3)))
    assert np.allclose(t.f, [0.4, 0.4], atol=1e-12)
    assert np.allclose(t.rminus, [[0, 1], [1, 0]], atol=1e-12)
    assert np.allclose(t.rplus, [[1, 0], [0, 1]], atol=1e-12)


def test_signed_decomposition():
    base, signed = coin_signed_decomposition(F(3, 10))
    assert base == (F(1, 2), F(1, 2))
    assert signed == (F(1, 5), F(-1, 5))
    assert (base[0] + signed[0], base[1] + signed[1]) == (F(7, 10), F(3, 10))
    base, signed = coin_signed_decomposition(0.8)
    assert base[0] + signed[0] == pytest.approx(0.2, abs=1e-15)
    assert signed[0] + signed[1] == 0.0
    assert abs(signed[0]) + abs(signed[1]) == pytest.approx(0.6, abs=1e-15)


def test_general_sampler_reproducible():
    sampler = GeneralQISampler(DEMO, 500, seed=77)
    again = GeneralQISampler(DEMO, 500, seed=77)
    assert np.array_equal(sampler.values, again.values)
    assert np.array_equal(sampler.flags, again.flags)
    for _ in range(5):
        assert np.array_equal(sampler.step(), again.step())
    assert sampler.saved_counts == again.saved_counts
    other = GeneralQISampler(DEMO, 500, seed=78)
    assert not np.array_equal(sampler.values, other.values)


def test_general_sampler_threads_identical():
    runs = []
    for threads in (1, 4):
        sampler = GeneralQISampler(DEMO, 3000, seed=9)
        history = [sampler.values.copy()]
        for _ in range(4):
            history.append(sampler.step(threads=threads).copy())
        runs.append((np.concatenate(history).tobytes(),
                     sampler.flags.tobytes(), tuple(sampler.saved_counts)))
    assert runs[0] == runs[1]


def test_general_sampler_reproduces_chain():
    chain = TransitionMatrix([[float(v) for v in row] for row in DEMO.rows])
    sampler = GeneralQISampler(chain, 20000, seed=12)
    counts = np.zeros((3, 3), dtype=np.int64)
    prev = sampler.values
    for _ in range(30):
        nxt = sampler.step()
        counts += transition_counts(prev, nxt, 3)
        prev = nxt
    report = compare_transitions(counts, chain.to_numpy(), sigma=5.0)
    assert list(report.z) == ["0", "1", "2"]
    assert report.passed, report
    assert report.max_tv < 0.02
    saved = np.mean(sampler.saved_counts) / sampler.n_samples
    assert saved == pytest.approx(5 / 12, abs=5 * math.sqrt(5 / 12 * 7 / 12
                                                            / (31 * 20000)))


def test_coin_ensemble_reproduces_coin():
    for p in (0.1, 0.75):
        chain = induced_chain(perturbed_coin(p))
        ensemble = CoinEnsemble(p, 20000, seed=4)
        counts = np.zeros((2, 2), dtype=np.int64)
        prev = ensemble.values
        for _ in range(30):
            nxt = ensemble.step()
            counts += transition_counts(prev, nxt, 2)
            prev = nxt
        report = compare_transitions(counts, chain.to_numpy(), sigma=5.0)
        assert report.passed, f"p={p}: {report}"
        saved = np.mean(ensemble.saved_counts) / ensemble.n_samples
        expect = abs(2 * p - 1)
        assert saved == pytest.approx(
            expect, abs=5 * math.sqrt(expect * (1 - expect) / (31 * 20000)))


def test_coin_ensemble_threads_identical():
    runs = []
    for threads in (1, 3):
        ensemble = CoinEnsemble(0.3, 2000, seed=21)
        history = [ensemble.values.copy()]
        for _ in range(4):
            history.append(ensemble.step(threads=threads).copy())
        runs.append(np.concatenate(history).tobytes())
    assert runs[0] == runs[1]


def test_coin_ensemble_fair_coin_never_saves():
    ensemble = CoinEnsemble(0.5, 5000, seed=8)
    for _ in range(10):
        ensemble.step()
    assert all(c == 0 for c in ensemble.saved_counts)
    values = ensemble.values
    assert abs(values.mean() - 0.5) < 5 * math.sqrt(0.25 / 5000)
    with pytest.raises(ValueError):
        CoinEnsemble(1.5, 10, seed=0)


# thresholds where u < x is decided by the last bit of u or by an endpoint
EDGE_THRESHOLDS = [0.0, 0.5, 1.0, math.nextafter(0.5, 0),
                   math.nextafter(0.5, 1), math.nextafter(1.0, 0),
                   math.nextafter(0.0, 1), 2.0 ** -53]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), step=st.integers(0, 2**40),
       substream=st.integers(0, 7), count=st.integers(0, 300),
       data=st.data())
def test_raw_words_match_uniforms(seed, step, substream, count, data):
    words = samplers._words(seed, step, substream, count)
    u = samplers._uniforms(seed, step, substream, count)
    assert words.dtype == np.uint64
    assert np.array_equal(u, (words >> np.uint64(11)) * 2.0 ** -53)
    x = data.draw(st.one_of(st.sampled_from(EDGE_THRESHOLDS), st.floats(0, 1)))
    below = samplers._below(words, x)
    assert below.dtype == bool
    assert np.array_equal(below, u < x)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.one_of(
           st.integers(0, 2**64 - 1),
           st.integers(0, 2**53 - 1).map(lambda k: k << 11)), max_size=20),
       data=st.data())
def test_below_is_exact_on_any_word(words, data):
    # words whose low 11 bits are zero sit exactly on a threshold, which
    # Philox streams almost never show; a threshold equal to one of the
    # uniforms, or one ulp off it, is the sharpest test of the comparison
    words = np.array(words, dtype=np.uint64)
    u = (words >> np.uint64(11)) * 2.0 ** -53
    thresholds = [st.sampled_from(EDGE_THRESHOLDS), st.floats(0, 1)]
    if words.size:
        thresholds.append(st.sampled_from(u.tolist()).flatmap(
            lambda v: st.sampled_from([v, math.nextafter(v, 0),
                                       math.nextafter(v, 1)])))
    x = data.draw(st.one_of(*thresholds))
    assert np.array_equal(samplers._below(words, x), u < x)


def test_coin_ensemble_state_is_boolean():
    ensemble = CoinEnsemble(0.7, 1000, seed=3)
    for values in (ensemble.values, ensemble.step()):
        assert values.dtype == np.uint8
        assert set(values.tolist()) <= {0, 1}
    assert ensemble.flags.dtype == bool


def test_bit_machine_initial_law():
    rng = np.random.default_rng(14)
    assert StochasticBitMachine(0.2, 0.7, 0, rng).bit == 0
    assert StochasticBitMachine(0.2, 0.7, 2, rng).bit == 1
    bits = [StochasticBitMachine(0.2, 0.7, 1, rng).bit for _ in range(4000)]
    zeros = bits.count(0)
    assert abs(zeros - 4000 * 0.7) < 5 * math.sqrt(4000 * 0.7 * 0.3)
    with pytest.raises(ValueError):
        StochasticBitMachine(0.2, 0.7, 3, rng)
    with pytest.raises(ValueError):
        StochasticBitMachine(1.2, 0.7, 0, rng)


def test_bit_machine_deterministic_edges():
    quiet = StochasticBitMachine(0.0, 0.5, 0, np.random.default_rng(0))
    assert not quiet.run(50).any()
    metronome = StochasticBitMachine(1.0, 1.0, 0, np.random.default_rng(0))
    assert np.array_equal(metronome.run(6), [2, 1, 2, 1, 2, 1])


def test_bit_machine_step_equals_run():
    """N calls to step() consume the same uniforms as run(N): same symbols,
    same final bit, same next draw."""
    for p, q, start, seed in ((1 / 9, 2 / 3, 1, 33), (0.37, 0.25, 0, 1),
                              (0.0, 0.5, 2, 5), (1.0, 1.0, 0, 7),
                              (0.5, 0.0, 1, 9)):
        a = StochasticBitMachine(p, q, start, np.random.default_rng(seed))
        b = StochasticBitMachine(p, q, start, np.random.default_rng(seed))
        assert np.array_equal(np.array([a.step() for _ in range(5000)]),
                              b.run(5000))
        assert a.bit == b.bit
        assert a.rng.random() == b.rng.random()


def test_bit_machine_statistics():
    machine = post_processed_coin(F(1, 9), F(2, 3))
    sampler = StochasticBitMachine(1 / 9, 2 / 3, 0, np.random.default_rng(5))
    traj = sampler.run(200_000)
    # the symbol after each 2-symbol context follows the conditional law
    report = compare_transitions(context_counts(traj, 2, 3),
                                 context_law(machine, 2), context=2)
    assert report.passed, report
    assert not report.hard_failures
    assert report.max_tv < 0.01
    counts = context_counts(traj, 1, 3)
    assert counts[0, 1] == counts[2, 0] == counts[2, 2] == 0


def test_bit_machine_matches_chain_rows():
    chain = induced_chain(post_processed_coin(1 / 9, 2 / 3))
    traj = StochasticBitMachine(1 / 9, 2 / 3, 0,
                                np.random.default_rng(17)).run(100_000)
    report = compare_transitions(transition_counts(traj[:-1], traj[1:], 3),
                                 chain.to_numpy(), sigma=5.0)
    assert report.passed, report
    assert list(report.z) == ["0", "1", "2"]
    assert report.max_tv < 0.02


def test_stochastic_causal_dimension():
    assert stochastic_causal_dimension(post_processed_coin(F(1, 9), F(2, 3))) == 2
    assert stochastic_causal_dimension(post_processed_coin(0.3, 0.6)) == 2
    assert stochastic_causal_dimension(perturbed_coin(0.3)) == 2
    # the demo chain has two identical rows, so its machine drops rank too
    from qimem.markov import machine_from_chain
    assert stochastic_causal_dimension(machine_from_chain(DEMO)) == 2
    rng = np.random.default_rng(3)
    assert stochastic_causal_dimension(
        machine_from_chain(random_chain(rng, 3))) == 3
