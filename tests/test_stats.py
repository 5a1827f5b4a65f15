"""Counting, the next-symbol z test and the calibration of the battery."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qimem.markov import (as_cdf, induced_chain, perturbed_coin,
                          post_processed_coin, post_processed_factors,
                          stationary)
from qimem.quantum import circuit_step_table
from qimem.samplers import factor_chain, factor_start
from qimem.stats import compare_transitions, transition_counts, word_counts

from helpers import (context_law, exact_coin_trajectory, matrix_words,
                     reference_compare_transitions, walk)

HALF = [[0.5, 0.5]]


def test_word_counts_basic():
    assert [w.tolist() for w in word_counts([0, 1, 0, 1], 2, 2)] \
        == [[1, 2], [2, 1]]
    assert [w.tolist() for w in word_counts([0, 1, 0, 1], 1, 2)] \
        == [[0, 1], [2, 2]]
    # words are coded most significant symbol first: 2,1,1 is 22, 1,1,0 is 12
    words, tallies = word_counts(np.array([2, 1, 1, 0]), 3, 3)
    assert words.tolist() == [12, 22] and tallies.tolist() == [1, 1]
    assert words.dtype == tallies.dtype == np.int64
    words, tallies = word_counts(np.zeros(50, dtype=int), 3, 2)
    assert words.tolist() == [0] and tallies.tolist() == [48]
    # a sequence shorter than a word has none
    for seq, k in (([], 1), ([0, 1], 3)):
        assert [w.size for w in word_counts(seq, k, 3)] == [0, 0]
    # codes of many symbols: 11 symbols, 10,1,0 is 10 * 121 + 11
    assert word_counts([10, 1, 0], 3, 11)[0].tolist() == [1221]


def test_word_counts_errors():
    with pytest.raises(ValueError):
        word_counts([0, 1], 0, 2)
    with pytest.raises(ValueError):
        word_counts([[0, 1]], 1, 2)
    # a bad symbol is caught in a context position too, not only as a next
    for seq in ([0, 3, 1], [0, -1], [3, 0, 1]):
        with pytest.raises(ValueError):
            word_counts(seq, 3, 3)


def test_compare_z_values():
    report = compare_transitions([0, 1], [60, 40], HALF, sigma=5.0,
                                 context=0)
    assert report.windows == 100
    assert report.row_max_abs_z == {"": pytest.approx(2.0, abs=1e-12)}
    assert report.max_abs_z == pytest.approx(2.0, abs=1e-12)
    assert report.passed
    assert not compare_transitions([0, 1], [60, 40], HALF, sigma=1.5,
                                   context=0).passed


def test_compare_forbidden_gram_is_always_fatal():
    # rows 0 and 2 each see a symbol their law forbids: both are fatal,
    # named source > target, and score z = 0, so row 2's largest |z| is
    # that of its two allowed symbols, (5 - 6) / sqrt(3)
    law = [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]
    counts = [[10, 10, 1], [0, 9, 0], [5, 5, 2]]
    report = compare_transitions(*matrix_words(counts), law, sigma=1e9)
    assert report.hard_failures == ["0>2", "2>2"]
    assert not report.passed
    assert report.row_max_abs_z == pytest.approx(
        {"0": 0.5 / np.sqrt(5.25), "1": 0.0, "2": 1.0 / np.sqrt(3.0)},
        rel=1e-15, abs=0)
    # a context row names its whole context; 2,1 is a step the law allows
    law = [[0.5, 0.5, 0.0]] * 3
    assert compare_transitions([21, 23], [4, 1], law,
                               context=2).hard_failures == ["21>2"]


def test_forbidden_first_pair_is_fatal():
    """A run may open on a pair its process never emits: 2,0 on the
    post-processed coin.  Its context row is zero, not the row of state 0,
    so the symbol after it is a hard failure."""
    chain = induced_chain(post_processed_coin(F(1, 9), F(2, 3)))
    report = compare_transitions(*word_counts([2, 0, 0], 3, 3),
                                 chain.to_numpy(), context=2)
    assert report.hard_failures == ["20>0"]
    assert not report.passed
    # the pair 0,2 is allowed: the symbol after it is judged on row 2
    assert compare_transitions(*word_counts([0, 2, 1], 3, 3),
                               chain.to_numpy(), context=2).passed


def test_compare_sure_gram():
    assert compare_transitions([0], [100], [[1.0, 0.0]], context=0).passed
    # a sure symbol that comes up short is fatal, as is what came instead
    assert compare_transitions([0, 1], [99, 1], [[1.0, 0.0]],
                               context=0).hard_failures == [">0", ">1"]


def test_compare_missing_gram_counts_as_zero():
    report = compare_transitions([0], [100], HALF, sigma=5.0, context=0)
    assert report.row_max_abs_z == {"": pytest.approx(10.0, abs=1e-12)}
    assert report.tv == {"": 0.5}
    assert not report.passed


def test_compare_empty_counts():
    law = [[0.5, 0.5], [0.0, 1.0]]
    empty = np.array([], dtype=np.int64)
    report = compare_transitions(empty, empty, law)
    assert report.windows == 0 and report.passed
    assert report.row_max_abs_z == {} and report.tv == {}
    assert report.max_abs_z == report.max_tv == 0.0
    with pytest.raises(ValueError):
        compare_transitions([0], [1], HALF)  # 1 row, context 1
    with pytest.raises(ValueError):
        compare_transitions([0], [1], [[0.5, 0.5]] * 3)  # not square
    with pytest.raises(ValueError):
        compare_transitions([0], [1], [[0.5, 0.5, 0.0]] * 2)
    with pytest.raises(ValueError):
        compare_transitions([0], [1], [[float("nan"), 1.0]], context=0)
    for words in ([4], [-1]):  # not a code of two symbols over 0..1
        with pytest.raises(ValueError):
            compare_transitions(words, [1], law)
    with pytest.raises(ValueError):
        compare_transitions([0, 1], [1], law)
    # out of order, one word twice, a word seen no times
    for words, tallies in (([1, 0], [1, 1]), ([1, 1], [1, 1]),
                           ([0, 3], [0, 2])):
        with pytest.raises(ValueError):
            compare_transitions(words, tallies, law)


def test_tv_distance():
    law = [[0.5, 0.5], [0.25, 0.75]]
    report = compare_transitions([0, 1, 3], [5, 5, 4], law)
    assert report.tv == {"0": 0.0, "1": 0.25}
    assert report.max_tv == 0.25
    assert compare_transitions([1], [3], [[1.0, 0.0]], context=0).tv \
        == {"": 1.0}


def test_report_serialization():
    # row labels spell the context; past ten symbols they need separators
    def labels(contexts, h, m):
        return list(compare_transitions(
            [c * m for c in contexts], [1] * len(contexts),
            np.full((m if h else 1, m), 1 / m), context=h).row_max_abs_z)

    assert labels([0, 5, 7], 2, 3) == ["00", "12", "21"]
    assert labels([3], 1, 10) == ["3"] and labels([0], 0, 4) == [""]
    assert labels([1 * 11 + 10, 10 * 11 + 1], 2, 11) == ["1.10", "10.1"]
    report = compare_transitions([0, 1], [3, 7], [[0.3, 0.7], HALF[0]])
    assert list(report.row_max_abs_z) == ["0"]


def test_transition_counts():
    counts = transition_counts([0, 0, 1, 1, 0], [0, 1, 1, 0, 0], 2)
    assert counts.dtype == np.int64
    assert counts.tolist() == [[2, 1], [1, 1]]
    empty = np.array([], dtype=np.int64)
    assert transition_counts(empty, empty, 3).tolist() == [[0] * 3] * 3
    with pytest.raises(ValueError):
        transition_counts([0, 1], [0], 2)
    for prev, nxt in (([0, 2], [0, 1]), ([0, 1], [0, 2]), ([0, -1], [0, 1]),
                      ([0, 1], [-1, 0])):
        with pytest.raises(ValueError):
            transition_counts(prev, nxt, 2)
    with pytest.raises(ValueError):
        transition_counts([0, 3], [1, 4], 4)


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
        *matrix_words(transition_counts([0, 0, 1, 1, 0], [0, 1, 1, 0, 0], 2)),
        chain.to_numpy(), sigma=5.0)
    assert list(report.row_max_abs_z) == ["0", "1"] and report.windows == 5
    assert 0.0 <= report.max_tv <= 1.0
    only_zero = compare_transitions(
        *matrix_words(transition_counts([0, 0], [0, 1], 2)), chain.to_numpy())
    assert list(only_zero.row_max_abs_z) == ["0"]
    with pytest.raises(ValueError):
        compare_transitions([0], [1], np.ones((3, 2)) / 2)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 4), h=st.integers(0, 3), length=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compare_transitions_matches_reference(m, h, length, seed, data):
    """Any m x m law (or one row at h = 0) with zero entries, zero rows and
    sure entries, judged as the dense oracle law of every context judges
    it: a context that takes a step of law 0 has a row of zeros."""
    rng = np.random.default_rng(seed)
    rows = m if h else 1
    # zero entries make some observed symbols hard failures, and contexts
    # that step through them zero rows; zero rows make whole contexts hard
    # failures, and single-entry rows sure symbols
    weights = rng.random((rows, m)) * (rng.random((rows, m)) < 0.7)
    weights[np.arange(rows), rng.integers(0, m, size=rows)] += 0.1
    weights[rng.random(rows) < 0.2] = 0.0
    totals = weights.sum(axis=1, keepdims=True)
    law = np.divide(weights, totals, out=np.zeros_like(weights),
                    where=totals > 0)
    # drawing from a random subset leaves some contexts and symbols out
    contexts = data.draw(st.lists(st.integers(0, m ** h - 1), min_size=1,
                                  max_size=m ** h, unique=True))
    symbols = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=m, unique=True))
    prev = rng.choice(contexts, size=length)
    nxt = rng.choice(symbols, size=length)
    sigma = data.draw(st.sampled_from([0.5, 5.0]))
    words, tallies = np.unique(prev * m + nxt, return_counts=True)
    report = compare_transitions(words, tallies, law, sigma, context=h)
    expected = reference_compare_transitions(
        prev, nxt, context_law(law, h) if h else law, h)
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
            *matrix_words(transition_counts(traj[:-1], traj[1:], 2)), law,
            sigma=5.0)
        failures += not report.passed
    assert failures == 0


def test_trajectory_samplers_calibrate_at_five_sigma():
    """150 seeds of each trajectory algorithm on the post-processed coin,
    each sampled and tested as ``simulate`` does: a stationary start, 2e4
    symbols, next-symbol counts per 2-symbol context at 5 sigma."""
    p, q = F(1, 9), F(2, 3)
    machine = post_processed_coin(p, q)
    A, B, sources = post_processed_factors(p, q)
    cdf = as_cdf(np.array(stationary(induced_chain(machine)), dtype=float))
    law = induced_chain(machine).to_numpy()
    symbols = np.arange(3)
    chains = {"baseline": (induced_chain(machine), symbols),
              "quantum": (circuit_step_table("postproc", p, q), symbols),
              "single-bit": factor_chain(A, B, sources)}
    failed = []
    for algo, (chain, emit) in chains.items():
        for seed in range(150):
            rng = np.random.default_rng(seed)
            start = int(np.searchsorted(cdf, rng.random(), side="right"))
            if algo == "single-bit":
                start = factor_start(start, A, sources, rng)
            report = compare_transitions(*word_counts(
                emit[walk(chain, start, 20000, rng)], 3, 3), law, context=2)
            if not report.passed:
                failed.append((algo, seed))
    assert failed == []


def test_exact_sampler_word_law_at_fixed_seed():
    # the coin's state is its last symbol, so each context is judged on the
    # chain row of that symbol
    law = induced_chain(perturbed_coin(0.3)).to_numpy()
    traj = exact_coin_trajectory(0.3, 20000, np.random.default_rng(424))
    report = compare_transitions(*word_counts(traj, 3, 2), law, context=2)
    assert report.passed, report
    assert list(report.row_max_abs_z) == ["00", "01", "10", "11"]
    assert report.windows == 19998
    assert report.max_tv < 0.02
