"""Counting, the next-symbol z test and the calibration of the battery."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qimem.markov import (as_cdf, context_law, induced_chain, perturbed_coin,
                          post_processed_coin, sample_edges, sample_trajectory,
                          stationary)
from qimem.quantum import circuit_step_table
from qimem.samplers import StochasticBitMachine
from qimem.stats import compare_transitions, context_counts, transition_counts

from helpers import exact_coin_trajectory, reference_compare_transitions

HALF = [[0.5, 0.5]]


def test_context_counts_basic():
    assert context_counts([0, 1, 0, 1], 1, 2).tolist() == [[0, 2], [1, 0]]
    assert context_counts([0, 1, 0, 1], 0, 2).tolist() == [[2, 2]]
    # contexts are coded most significant symbol first: 2,1 is row 7
    counts = context_counts(np.array([2, 1, 1, 0]), 2, 3)
    assert counts.shape == (9, 3)
    assert counts[7].tolist() == [0, 1, 0] and counts[4].tolist() == [1, 0, 0]
    assert counts.sum() == 2
    assert context_counts(np.zeros(50, dtype=int), 2, 2).sum() == 48
    assert context_counts([], 0, 3).tolist() == [[0, 0, 0]]


def test_context_counts_errors():
    with pytest.raises(ValueError):
        context_counts([0, 1], 3, 2)
    with pytest.raises(ValueError):
        context_counts([0, 1], -1, 2)
    with pytest.raises(ValueError):
        context_counts([[0, 1]], 1, 2)
    # a bad symbol is caught in a context position too, not only as a next
    for seq in ([0, 3, 1], [0, -1], [3, 0, 1]):
        with pytest.raises(ValueError):
            context_counts(seq, 2, 3)


def test_compare_z_values():
    report = compare_transitions([[60, 40]], HALF, sigma=5.0, context=0)
    assert report.windows == 100
    assert report.z[""] == pytest.approx([2.0, -2.0], abs=1e-12)
    assert report.max_abs_z == pytest.approx(2.0, abs=1e-12)
    assert report.passed
    assert not compare_transitions([[60, 40]], HALF, sigma=1.5,
                                   context=0).passed


def test_compare_forbidden_gram_is_always_fatal():
    # rows 0 and 2 each see a symbol their law forbids: both are fatal,
    # named source > target, and score z = 0
    law = [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
    counts = [[10, 10, 1], [0, 9, 0], [5, 5, 2]]
    report = compare_transitions(counts, law, sigma=1e9)
    assert report.hard_failures == ["0>2", "2>2"]
    assert not report.passed
    assert report.z["2"][2] == 0.0
    # a context row names its whole context
    law = np.zeros((9, 3))
    law[:, :2] = 0.5
    counts = np.zeros((9, 3), dtype=np.int64)
    counts[7] = [4, 0, 1]
    assert compare_transitions(counts, law, context=2).hard_failures \
        == ["21>2"]


def test_compare_sure_gram():
    assert compare_transitions([[100, 0]], [[1.0, 0.0]], context=0).passed
    # a sure symbol that comes up short is fatal, as is what came instead
    assert compare_transitions([[99, 1]], [[1.0, 0.0]],
                               context=0).hard_failures == [">0", ">1"]


def test_compare_missing_gram_counts_as_zero():
    report = compare_transitions([[100, 0]], HALF, sigma=5.0, context=0)
    assert report.z[""][1] == pytest.approx(-10.0, abs=1e-12)
    assert not report.passed


def test_compare_empty_counts():
    report = compare_transitions(np.zeros((2, 2), dtype=np.int64),
                                 [[0.5, 0.5], [0.0, 1.0]])
    assert report.windows == 0 and report.passed
    assert report.z == {} and report.max_abs_z == report.max_tv == 0.0
    with pytest.raises(ValueError):
        compare_transitions([[1, 0]], [[0.5, 0.5]])  # 1 row, context 1
    with pytest.raises(ValueError):
        compare_transitions([[1, 0]], [[0.5, 0.5, 0.0]], context=0)
    with pytest.raises(ValueError):
        compare_transitions([[1, 0]], [[float("nan"), 1.0]], context=0)


def test_tv_distance():
    law = [[0.5, 0.5], [0.25, 0.75]]
    report = compare_transitions([[5, 5], [0, 4]], law)
    assert report.tv == {"0": 0.0, "1": 0.25}
    assert report.max_tv == 0.25
    assert compare_transitions([[0, 3]], [[1.0, 0.0]], context=0).tv \
        == {"": 1.0}


def test_report_serialization():
    # row labels spell the context; past ten symbols they need separators
    def labels(rows, h, m):
        counts = np.zeros((m ** h, m), dtype=np.int64)
        counts[rows, 0] = 1
        return list(compare_transitions(counts, np.full(counts.shape, 1 / m),
                                        context=h).row_max_abs_z)

    assert labels([0, 5, 7], 2, 3) == ["00", "12", "21"]
    assert labels([3], 1, 10) == ["3"] and labels([0], 0, 4) == [""]
    assert labels([1 * 11 + 10, 10 * 11 + 1], 2, 11) == ["1.10", "10.1"]
    report = compare_transitions([[3, 7], [0, 0]], [[0.3, 0.7], HALF[0]])
    assert list(report.row_max_abs_z) == ["0"]


def test_transition_counts():
    counts = transition_counts([0, 0, 1, 1, 0], [0, 1, 1, 0, 0], 2)
    assert counts.dtype == np.int64
    assert counts.tolist() == [[2, 1], [1, 1]]
    empty = np.array([], dtype=np.int64)
    assert transition_counts(empty, empty, 3).tolist() == [[0] * 3] * 3
    assert transition_counts([0, 3], [1, 1], 4, 2).tolist() \
        == [[0, 1], [0, 0], [0, 0], [0, 1]]
    with pytest.raises(ValueError):
        transition_counts([0, 1], [0], 2)
    for prev, nxt in (([0, 2], [0, 1]), ([0, 1], [0, 2]), ([0, -1], [0, 1]),
                      ([0, 1], [-1, 0])):
        with pytest.raises(ValueError):
            transition_counts(prev, nxt, 2)
    with pytest.raises(ValueError):
        transition_counts([0, 3], [1, 2], 4, 2)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=80),
       dtypes=st.tuples(*[st.sampled_from([bool, np.uint8, np.int64])] * 2),
       data=st.data())
def test_two_state_transition_counts_match_bincount(pairs, dtypes, data):
    prev = np.array([a for a, _ in pairs], dtype=dtypes[0])
    nxt = np.array([b for _, b in pairs], dtype=dtypes[1])
    codes = prev.astype(np.int64) * 2 + nxt.astype(np.int64)
    counts = transition_counts(prev, nxt, 2)
    assert counts.dtype == np.int64
    assert np.array_equal(counts,
                          np.bincount(codes, minlength=4).reshape(2, 2))
    if pairs:
        bad = prev.astype(np.uint8)
        bad[data.draw(st.integers(0, len(pairs) - 1))] = 2
        with pytest.raises(ValueError):
            transition_counts(bad, nxt, 2)
        with pytest.raises(ValueError):
            transition_counts(nxt, bad, 2)


def test_compare_transitions_alignment():
    chain = induced_chain(perturbed_coin(0.3))
    report = compare_transitions(
        transition_counts([0, 0, 1, 1, 0], [0, 1, 1, 0, 0], 2),
        chain.to_numpy(), sigma=5.0)
    assert list(report.z) == ["0", "1"] and report.windows == 5
    assert 0.0 <= report.max_tv <= 1.0
    only_zero = compare_transitions(transition_counts([0, 0], [0, 1], 2),
                                    chain.to_numpy())
    assert list(only_zero.z) == ["0"]
    with pytest.raises(ValueError):
        compare_transitions(np.zeros((3, 3), dtype=np.int64),
                            chain.to_numpy())


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 4), h=st.integers(0, 2), length=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compare_transitions_matches_reference(m, h, length, seed, data):
    rng = np.random.default_rng(seed)
    rows = m ** h
    # zero entries make some observed symbols hard failures, zero rows
    # whole contexts, and single-entry rows sure symbols
    weights = rng.random((rows, m)) * (rng.random((rows, m)) < 0.7)
    weights[np.arange(rows), rng.integers(0, m, size=rows)] += 0.1
    weights[rng.random(rows) < 0.2] = 0.0
    totals = weights.sum(axis=1, keepdims=True)
    law = np.divide(weights, totals, out=np.zeros_like(weights),
                    where=totals > 0)
    # drawing from a random subset leaves some contexts and symbols out
    contexts = data.draw(st.lists(st.integers(0, rows - 1), min_size=1,
                                  max_size=rows, unique=True))
    symbols = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=m, unique=True))
    prev = rng.choice(contexts, size=length)
    nxt = rng.choice(symbols, size=length)
    sigma = data.draw(st.sampled_from([0.5, 5.0]))
    report = compare_transitions(transition_counts(prev, nxt, rows, m), law,
                                 sigma, context=h)
    expected = reference_compare_transitions(prev, nxt, law, h)
    assert report.row_max_abs_z == {c: z for c, (z, _) in expected[0].items()}
    assert report.tv == {c: tv for c, (_, tv) in expected[0].items()}
    assert report.hard_failures == expected[1]
    assert report.windows == length
    assert report.passed == (not expected[1] and max(
        z for z, _ in expected[0].values()) <= sigma)


def test_exact_sampler_calibrates_at_five_sigma():
    """Over 200 seeds, a perfect sampler never trips the transition test.

    Conditioned on the source-state counts the next-state counts are
    exactly binomial, so the z threshold needs no slack for window
    overlap; 5 sigma leaves per-seed false-alarm odds around 1e-6.
    """
    law = induced_chain(perturbed_coin(0.3)).to_numpy()
    failures = 0
    for seed in range(200):
        traj = exact_coin_trajectory(0.3, 20000, np.random.default_rng(seed))
        report = compare_transitions(
            transition_counts(traj[:-1], traj[1:], 2), law, sigma=5.0)
        failures += not report.passed
    assert failures == 0


def test_trajectory_samplers_calibrate_at_five_sigma():
    """150 seeds of each trajectory algorithm on the post-processed coin,
    each sampled and tested as ``simulate`` does: a stationary start, 2e4
    symbols, next-symbol counts per 2-symbol context at 5 sigma."""
    p, q = F(1, 9), F(2, 3)
    machine = post_processed_coin(p, q)
    cdf = as_cdf(stationary(induced_chain(machine)))
    law = context_law(machine, 2)
    table = circuit_step_table("postproc", p, q)
    algos = {
        "baseline": lambda s, rng: sample_trajectory(machine, s, 20000, rng),
        "quantum": lambda s, rng: sample_edges(table, s, 20000, rng)[0],
        "single-bit": lambda s, rng: StochasticBitMachine(
            p, q, s, rng).run(20000),
    }
    failed = []
    for algo, sample in algos.items():
        for seed in range(150):
            rng = np.random.default_rng(seed)
            start = int(np.searchsorted(cdf, rng.random(), side="right"))
            report = compare_transitions(
                context_counts(sample(start, rng), 2, 3), law, context=2)
            if not report.passed:
                failed.append((algo, seed))
    assert failed == []


def test_exact_sampler_word_law_at_fixed_seed():
    law = context_law(perturbed_coin(0.3), 2)
    traj = exact_coin_trajectory(0.3, 20000, np.random.default_rng(424))
    report = compare_transitions(context_counts(traj, 2, 2), law, context=2)
    assert report.passed, report
    assert list(report.z) == ["00", "01", "10", "11"]
    assert report.max_tv < 0.02
    # with one symbol of context the rows are the chain's own rows
    # the coin's state is its last symbol, so each context row is the
    # chain row of that symbol
    chain = induced_chain(perturbed_coin(0.3)).to_numpy()
    assert np.allclose(law, np.tile(chain, (2, 1)), rtol=0, atol=1e-15)
