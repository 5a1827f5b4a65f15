"""Save/reroute tables, ensemble samplers and the single-bit machine.

The worked three-state chain at p = 1/9, q = 2/3 is used as the exact
fixture throughout; its tables below were derived by hand from the
decomposition and frozen.
"""

import math
import os
import signal
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qimem import samplers
from qimem.markov import (TransitionMatrix, induced_chain, perturbed_coin,
                          post_processed_coin, sample_edges)
from qimem.samplers import (CoinEnsemble, DegenerateSupportError,
                            GeneralQISampler, RerouteTables, decompose,
                            effective_kernel, expected_memory, save_fractions,
                            single_bit_start, single_bit_table,
                            three_state_demo_chain)
from qimem.stats import (compare_transitions, context_counts,
                         transition_counts)
from qimem.markov import context_law

from helpers import (ReferenceQISampler, random_chain, random_rational_chain,
                     reference_reroute_tables, reference_uniforms)

DEMO = three_state_demo_chain(F(1, 9), F(2, 3))
DEMO_TABLES = RerouteTables.from_chain(DEMO)


def test_demo_chain_rows():
    assert DEMO.array.tolist() == [[F(1, 3), F(1, 3), F(1, 3)],
                                   [F(1, 9), F(2, 3), F(2, 9)],
                                   [F(1, 3), F(1, 3), F(1, 3)]]
    with pytest.raises(ValueError):
        three_state_demo_chain(0.7, 0.5)
    with pytest.raises(ValueError):
        three_state_demo_chain(-0.1, 0.5)


def test_decompose_exact():
    pi, delta = decompose(DEMO)
    assert pi.tolist() == [F(2, 9), F(1, 2), F(5, 18)]
    assert delta.tolist() == [[F(1, 9), F(-1, 6), F(1, 18)],
                              [F(-1, 9), F(1, 6), F(-1, 18)],
                              [F(1, 9), F(-1, 6), F(1, 18)]]
    for j in range(3):
        assert sum(delta[j]) == 0
        for i in range(3):
            assert pi[i] + delta[j][i] == DEMO.array[j, i]


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
    for bad in (nan, float("inf"), -0.5, 1.5):
        with pytest.raises(ValueError):
            CoinEnsemble(bad, 10, seed=0)
        with pytest.raises(ValueError):
            single_bit_table(bad, 0.5)
        with pytest.raises(ValueError):
            single_bit_table(0.5, bad)
        with pytest.raises(ValueError):
            three_state_demo_chain(bad, 0.1)
    for p in (0.0, 1.0):
        CoinEnsemble(p, 10, seed=0)
        single_bit_table(p, p)


def test_save_fractions_frozen():
    assert DEMO_TABLES.f.tolist() == [F(1, 3), F(1, 2), F(1, 3)]


def test_reroute_ratios_frozen():
    assert DEMO_TABLES.rminus.tolist() == [[F(0), F(1), F(0)],
                                           [F(1), F(0), F(2, 5)],
                                           [F(0), F(1), F(0)]]
    assert DEMO_TABLES.rplus.tolist() == [[F(2, 3), F(0), F(1, 3)],
                                          [F(0), F(1), F(0)],
                                          [F(2, 3), F(0), F(1, 3)]]
    # ratios are probabilities
    for table in (DEMO_TABLES.rminus, DEMO_TABLES.rplus):
        assert all(0 <= v <= 1 for row in table for v in row)


def test_effective_kernel_exact():
    kernel = effective_kernel(DEMO_TABLES)
    for j in range(3):
        for i in range(3):
            assert kernel[j][i] == DEMO.array[j, i]


def test_effective_kernel_float_sweep():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        T = random_chain(rng, n)
        kernel = effective_kernel(RerouteTables.from_chain(T))
        dev = max(abs(kernel[j][i] - T.array[j, i])
                  for j in range(n) for i in range(n))
        assert dev < 1e-12


def test_expected_memory():
    fraction, bits = expected_memory(DEMO_TABLES)
    assert fraction == F(5, 12) and bits == F(5, 6)
    # each ensemble states its expected saved fraction as a float
    assert GeneralQISampler(DEMO, 10, seed=0).expected_saved == 5 / 12
    assert CoinEnsemble(0.75, 10, seed=0).expected_saved == 0.5


def test_float_row_at_pi_needs_no_saves():
    """A float row equal to pi differs from the solved pi only by rounding,
    which must not become save fractions and reroute tables."""
    chain = TransitionMatrix([[0.6, 0.4], [0.6, 0.4]])
    t = RerouteTables.from_chain(chain)
    assert t.f.tolist() == [0.0, 0.0]
    assert t.rminus.tolist() == t.rplus.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    sampler = GeneralQISampler(chain, 1000, seed=1)
    assert sampler.expected_saved == 0.0
    sampler.step()
    assert sampler.saved_counts == [0, 0]
    # the whole row must be within DELTA_ROW_TOL, and exact rows are exact
    tiny, past = samplers.DELTA_ROW_TOL, 2 * samplers.DELTA_ROW_TOL
    assert save_fractions((0.5, 0.5), ((tiny, -tiny), (past, -past))
                          ).tolist() == [0.0, 2 * past]
    assert save_fractions((F(1, 2), F(1, 2)), ((F(tiny), -F(tiny)),)
                          ).tolist() == [2 * F(tiny)]


def test_exact_row_near_pi_keeps_exact_saves():
    """Rows 1e-13 from pi in exact arithmetic keep their exact correction,
    so the effective kernel still equals the chain exactly."""
    e = F(1, 10**13)
    chain = TransitionMatrix([[F(3, 5) + e, F(2, 5) - e],
                              [F(3, 5) - e, F(2, 5) + e]])
    t = RerouteTables.from_chain(chain)
    assert all(abs(d) <= samplers.DELTA_ROW_TOL for row in t.delta for d in row)
    assert all(0 < f < samplers.DELTA_ROW_TOL for f in t.f)
    kernel = effective_kernel(t)
    assert all(kernel[j][i] == chain.array[j, i]
               for j in range(2) for i in range(2))


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
    chain = TransitionMatrix([[float(v) for v in row] for row in DEMO.array])
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


@pytest.fixture
def executors(monkeypatch):
    """Every ThreadPoolExecutor the samplers build, starting from an empty
    pool cache; the pools are shut down afterwards."""
    built = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(self)
            super().__init__(max_workers)

    monkeypatch.setattr(samplers, "ThreadPoolExecutor", Recording)
    samplers._pool.cache_clear()
    yield built
    samplers._pool.cache_clear()
    for pool in built:
        pool.shutdown()


def _usable(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def test_worker_threads_capped_at_cpu_count(monkeypatch, executors):
    """50 threaded steps share one pool with at most one worker per usable
    CPU, counted from the CPU affinity and not the host's CPUs, and give the
    bytes of a single thread."""
    monkeypatch.setattr(samplers, "BLOCK", 256)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _usable(monkeypatch, 3)
    for make in (lambda: CoinEnsemble(0.3, 3000, seed=21),
                 lambda: GeneralQISampler(DEMO, 3000, seed=9)):
        runs = []
        for threads in (1, 64):
            sampler = make()
            history = [sampler.values.copy()]
            for _ in range(25):
                history.append(sampler.step(threads=threads).copy())
            runs.append(np.concatenate(history).tobytes())
        assert runs[0] == runs[1]
    assert [pool._max_workers for pool in executors] == [3]
    assert 1 <= len(executors[0]._threads) <= 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert samplers._usable_cpus() == 64


def test_chunks_bounded_by_sample_count(executors):
    """A --threads far above the sample count starts at most one worker and
    builds nothing of its size, with the bytes of one thread."""
    for make in (lambda: CoinEnsemble(0.3, 10, seed=21),
                 lambda: GeneralQISampler(DEMO, 10, seed=9)):
        runs = []
        for threads in (1, 10**7):
            sampler = make()
            history = [sampler.values.copy()]
            tracemalloc.start()
            for _ in range(5):
                history.append(sampler.step(threads=threads).copy())
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 10**6
            runs.append((np.concatenate(history).tobytes(),
                         tuple(sampler.saved_counts)))
        assert runs[0] == runs[1]
    assert sum(len(pool._threads) for pool in executors) <= 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(monkeypatch, executors):
    """A child forked after a threaded step has none of the pool's threads,
    so it steps on a pool of its own instead of waiting on them."""
    monkeypatch.setattr(samplers, "BLOCK", 8)
    _usable(monkeypatch, 2)
    sampler = CoinEnsemble(0.3, 64, seed=21)
    sampler.step(threads=2)
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a threaded process may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: exit 0 only when the step completes
        code = 1
        try:
            sampler.step(threads=2)
            code = 0
        finally:
            os._exit(code)
    for _ in range(300):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), step=st.integers(0, 2 ** 40),
       substream=st.integers(0, 7), count=st.integers(0, 40),
       start=st.integers(0, 1000))
@example(seed=0, step=0, substream=0, count=5, start=7)
def test_words_from_an_offset_are_the_stream_tail(seed, step, substream,
                                                   count, start):
    """A block's words are elements start.. of the stream drawn from its
    head, also where start is not a multiple of the four words per
    counter."""
    block = samplers._words(seed, step, substream, count, start)
    whole = samplers._words(seed, step, substream, start + count)
    assert block.tobytes() == whole[start:].tobytes()


def test_blocks_give_the_bytes_of_one_block(monkeypatch, executors):
    """With blocks of 8 samples, both ensembles give the values, flags and
    saved counts of one unsplit block at any thread count, for sample counts
    around the block size."""
    def run(make, n, threads):
        sampler = make(n)
        history = [(sampler.values.copy(), sampler.flags.copy())]
        for _ in range(6):
            sampler.step(threads=threads)
            history.append((sampler.values.copy(), sampler.flags.copy()))
        return ([(v.tobytes(), f.tobytes()) for v, f in history],
                sampler.saved_counts)

    makers = (lambda n: CoinEnsemble(0.3, n, seed=21),
              lambda n: GeneralQISampler(DEMO, n, seed=9))
    block = 8
    sizes = (block - 1, block, block + 1, 3 * block + 5)
    whole = {(k, n): run(make, n, 1) for k, make in enumerate(makers)
             for n in sizes}
    monkeypatch.setattr(samplers, "BLOCK", block)
    _usable(monkeypatch, 64)
    # more lanes than cores, switching often: a block lost, run twice or
    # joined out of order changes the bytes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k, make in enumerate(makers):
            for n in sizes:
                for threads in (1, 2, 3, 64):
                    assert run(make, n, threads) == whole[k, n], (k, n,
                                                                  threads)
    finally:
        sys.setswitchinterval(interval)


# exact chains whose float CDFs pass 1 before their pinned last entry: in
# PI_OVERSHOOT pi = (9/28, 9/14, 1/28 - e, e), whose float partial sums pass
# 1 at the third entry; in RPLUS_OVERSHOOT pi is uniform and r_plus row 0 is
# (9/28, 9/14, 1/28, 0).  Rows 2 and 3 are pi, and rows 0 and 1 move equal
# mass in opposite directions, so pi stays stationary.
_E = F(1, 10**30)
_PI = (F(9, 28), F(9, 14), F(1, 28) - _E, _E)
PI_OVERSHOOT = TransitionMatrix([(0, F(27, 28), F(1, 28) - _E, _E),
                                 (F(27, 56), F(27, 56), F(1, 28) - _E, _E),
                                 _PI, _PI])
RPLUS_OVERSHOOT = TransitionMatrix([[F(k, 112) for k in (37, 46, 29, 0)],
                                    [F(k, 112) for k in (19, 10, 27, 56)],
                                    [F(1, 4)] * 4, [F(1, 4)] * 4])


def test_overshoot_chains_pass_one_early():
    tables = RerouteTables.from_chain(PI_OVERSHOOT)
    assert tuple(tables.pi.tolist()) == _PI
    assert np.cumsum([float(v) for v in tables.pi])[-2] > 1
    tables = RerouteTables.from_chain(RPLUS_OVERSHOOT)
    assert tables.f[0] == 1 and tables.rminus[0][3] == 1
    assert np.cumsum([float(v) for v in tables.rplus[0]])[-2] > 1


@st.composite
def sparse_chains(draw):
    """Float chains with zero entries and sure rows, whose one entry is
    exactly 1.  Row j always reaches state j + 1, so the chain is
    irreducible."""
    n = draw(st.integers(2, 11))
    rows = np.zeros((n, n))
    for j in range(n):
        if draw(st.booleans()):
            rows[j, (j + 1) % n] = 1.0
        else:
            rows[j] = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1)),
                                    min_size=n, max_size=n))
            rows[j, (j + 1) % n] += 0.5
            rows[j] /= rows[j].sum()
    return TransitionMatrix(rows.tolist())


@settings(max_examples=60, deadline=None)
@given(chain=sparse_chains(), seed=st.integers(0, 2**64 - 1))
@example(chain=PI_OVERSHOOT, seed=1)
@example(chain=RPLUS_OVERSHOOT, seed=2**64 - 1)
def test_general_sampler_matches_float_reference(chain, seed):
    """Integer thresholds pick the same values and flags as the float CDFs,
    chunked or not."""
    reference = ReferenceQISampler(chain, 300, seed)
    expected = [(reference.values, reference.flags)]
    expected += [(reference.step(), reference.flags) for _ in range(5)]
    for threads in (1, 3):
        sampler = GeneralQISampler(chain, 300, seed)
        got = [(sampler.values, sampler.flags)]
        got += [(sampler.step(threads=threads), sampler.flags)
                for _ in range(5)]
        for (v, f), (rv, rf) in zip(got, expected):
            assert np.array_equal(v, rv) and np.array_equal(f, rf)
        assert sampler.saved_counts == reference.saved_counts


def _tables(chain) -> list:
    """The entries of each reroute table of ``chain``, in row order."""
    t = RerouteTables.from_chain(chain)
    return [x.ravel().tolist()
            for x in (t.pi, t.delta, t.f, t.rminus, t.rplus)]


def _reference_tables(chain) -> list:
    return [np.array(x, dtype=object).ravel().tolist()
            for x in reference_reroute_tables(chain)]


@st.composite
def float_chains(draw):
    """Dense and sparse float chains of 1 to 300 states, with rows longer
    than numpy's 128-entry pairwise-sum block.  Every state steps to the
    next one, so the chain is irreducible."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.full(n, draw(st.sampled_from([0.1, 1.0, 10.0]))),
                         size=n)
    rows[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    rows[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    return TransitionMatrix(rows.tolist())


@st.composite
def rational_chains(draw):
    """Positive rational chains of 1 to 20 states: the exact stationary
    solve of a few hundred states takes minutes."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_rational_chain(rng, n)


@settings(max_examples=25, deadline=None)
@given(chain=float_chains())
@example(chain=TransitionMatrix([[0.6, 0.4], [0.6, 0.4]]))
def test_float_tables_match_reference_bits(chain):
    """The array tables are the per-element ones, bit for bit: every sum
    that reaches a table is taken left to right."""
    for got, ref in zip(_tables(chain), _reference_tables(chain)):
        assert [v.hex() for v in got] == [float(v).hex() for v in ref]


@settings(max_examples=15, deadline=None)
@given(chain=rational_chains())
@example(chain=PI_OVERSHOOT)
@example(chain=RPLUS_OVERSHOOT)
def test_exact_tables_match_reference(chain):
    """Rational chains get the per-element tables as Fractions, zeros
    included."""
    for got, ref in zip(_tables(chain), _reference_tables(chain)):
        assert all(type(v) is F for v in got)
        assert got == ref


def test_coin_ensemble_fair_coin_never_saves():
    ensemble = CoinEnsemble(0.5, 5000, seed=8)
    for _ in range(10):
        ensemble.step()
    assert all(c == 0 for c in ensemble.saved_counts)
    values = ensemble.values
    assert abs(values.mean() - 0.5) < 5 * math.sqrt(0.25 / 5000)
    with pytest.raises(ValueError):
        CoinEnsemble(1.5, 10, seed=0)


# thresholds where u < x is decided by the last bit of u or by an endpoint,
# and a float partial sum that passes 1
EDGE_THRESHOLDS = [0.0, 0.5, 1.0, math.nextafter(0.5, 0),
                   math.nextafter(0.5, 1), math.nextafter(1.0, 0),
                   math.nextafter(0.0, 1), 2.0 ** -53, math.nextafter(1.0, 2)]


def _assert_thresholds_exact(words, u, x):
    """``_below`` and a ``_threshold`` table, of x and of every edge, both
    decide u < x."""
    below = samplers._below(words, x)
    assert below.dtype == bool
    assert np.array_equal(below, u < x)
    xs = np.array(EDGE_THRESHOLDS + [x])
    table = samplers._threshold(xs)
    assert table.dtype == np.uint64
    assert np.array_equal((words >> np.uint64(11))[:, None] < table,
                          u[:, None] < xs)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), step=st.integers(0, 2**40),
       substream=st.integers(0, 7), count=st.integers(0, 300),
       data=st.data())
def test_raw_words_match_uniforms(seed, step, substream, count, data):
    words = samplers._words(seed, step, substream, count)
    u = reference_uniforms(seed, step, substream, count)
    assert words.dtype == np.uint64
    assert np.array_equal(u, (words >> np.uint64(11)) * 2.0 ** -53)
    x = data.draw(st.one_of(st.sampled_from(EDGE_THRESHOLDS), st.floats(0, 1)))
    _assert_thresholds_exact(words, u, x)


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
    _assert_thresholds_exact(words, u, data.draw(st.one_of(*thresholds)))


def test_exact_thresholds_are_exact_ceilings():
    # through a float, 2/3 and 2/9 both land one below their ceilings
    for x in (F(2, 3), F(2, 9), F(1, 3)):
        t = int(samplers._threshold(x))
        assert t == math.ceil(x * 2**53)
        words = np.array([(t - 1) << 11, t << 11], dtype=np.uint64)
        assert samplers._below(words, x).tolist() == [True, False]
    table = samplers._threshold(((F(2, 3), F(1, 3)), (F(2, 9), 1)))
    assert table.dtype == np.uint64
    assert table.tolist() == [[math.ceil(x * 2**53) for x in row]
                              for row in ((F(2, 3), F(1, 3)), (F(2, 9), 1))]


def test_exact_chain_cdfs_summed_in_fractions():
    sampler = GeneralQISampler(DEMO, 10, seed=0)
    pi_cdf = [F(2, 9), F(13, 18), F(1)]
    assert sampler._pi.tolist() == [math.ceil(c * 2**53) for c in pi_cdf]
    rplus_cdf = [F(2, 3), F(2, 3), F(1)]  # r_plus row 0 is (2/3, 0, 1/3)
    assert sampler._rplus[0].tolist() == [math.ceil(c * 2**53)
                                          for c in rplus_cdf]


def test_coin_ensemble_state_is_boolean():
    ensemble = CoinEnsemble(0.7, 1000, seed=3)
    for values in (ensemble.values, ensemble.step()):
        assert values.dtype == np.uint8
        assert set(values.tolist()) <= {0, 1}
    assert ensemble.flags.dtype == bool


def bit_machine_run(p, q, start, steps, rng):
    """Symbols of the single-bit sampler started from machine state start."""
    bit = single_bit_start(start, q, rng)
    return sample_edges(single_bit_table(p, q), bit, steps, rng)[0]


def test_bit_machine_initial_law():
    rng = np.random.default_rng(14)
    assert single_bit_start(0, 0.7, rng) == 0
    assert single_bit_start(2, 0.7, rng) == 1
    # only the middle state draws, so the first two calls took no uniform
    assert rng.random() == np.random.default_rng(14).random()
    bits = [single_bit_start(1, 0.7, rng) for _ in range(4000)]
    zeros = bits.count(0)
    assert abs(zeros - 4000 * 0.7) < 5 * math.sqrt(4000 * 0.7 * 0.3)
    with pytest.raises(ValueError):
        single_bit_start(3, 0.7, rng)
    with pytest.raises(ValueError):
        single_bit_table(1.2, 0.7)


def test_bit_machine_deterministic_edges():
    quiet = bit_machine_run(0.0, 0.5, 0, 50, np.random.default_rng(0))
    assert not quiet.any()
    metronome = bit_machine_run(1.0, 1.0, 0, 6, np.random.default_rng(0))
    assert np.array_equal(metronome, [2, 1, 2, 1, 2, 1])


def test_bit_machine_statistics():
    machine = post_processed_coin(F(1, 9), F(2, 3))
    traj = bit_machine_run(1 / 9, 2 / 3, 0, 200_000, np.random.default_rng(5))
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
    traj = bit_machine_run(1 / 9, 2 / 3, 0, 100_000, np.random.default_rng(17))
    report = compare_transitions(transition_counts(traj[:-1], traj[1:], 3),
                                 chain.to_numpy(), sigma=5.0)
    assert report.passed, report
    assert list(report.z) == ["0", "1", "2"]
    assert report.max_tv < 0.02
