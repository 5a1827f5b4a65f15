"""End-to-end command tests: exit codes, file outputs, determinism.

Every sampling command here runs at a pinned seed, so the statistical
verdicts asserted below are reproducible facts about those runs, not
flaky expectations.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qimem import bp, cli, markov, samplers, stats
from qimem.markov import binary_entropy
from qimem.quantum import coin_quantum_memory

from helpers import (random_chain, reference_ensemble_csv,
                     reference_trajectory_text)

DEMO_MATRIX = [["1/3", "1/3", "1/3"],
               ["1/9", "2/3", "2/9"],
               ["1/3", "1/3", "1/3"]]


def run(*argv):
    return cli.main(list(argv))


def test_memory_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert run("memory-curve", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,classical_bits,quantum_bits,qi_bits,mutual_info_bound"
    assert len(lines) == 102
    for i, line in enumerate(lines[1:]):
        p, classical, quantum, qi, bound = map(float, line.split(","))
        assert p == i / 100
        assert classical == (0.0 if p == 0.5 else 1.0)
        assert quantum == pytest.approx(coin_quantum_memory(p), abs=1e-14)
        assert qi == abs(1 - 2 * p)
        assert bound == pytest.approx(1 - binary_entropy(p), abs=1e-14)
        assert bound <= quantum + 1e-12 <= classical + 1e-9 + 1e-12


def test_memory_curve_stdout_and_grid(capsys):
    assert run("memory-curve", "--grid", "11") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert float(lines[3].split(",")[0]) == 0.2


def test_memory_curve_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("memory-curve", "--out", str(a))
    run("memory-curve", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_memory_curve_bad_grid():
    assert run("memory-curve", "--grid", "1") == 2


def test_appendix_a_exact_tables(tmp_path, capsys):
    out = tmp_path / "tables.txt"
    assert run("appendix-a", "--out", str(out)) == 0
    text = out.read_text()
    assert capsys.readouterr().out == text
    fields = dict(line.split("=", 1) for line in text.splitlines())
    assert fields["pi"] == "4/18,9/18,5/18"
    assert fields["delta_0"] == "2/18,-3/18,1/18"
    assert fields["delta_1"] == "-2/18,3/18,-1/18"
    assert fields["delta_2"] == "2/18,-3/18,1/18"
    assert fields["f"] == "1/3,1/2,1/3"
    assert fields["rminus_1"] == "1,0,2/5"
    assert fields["rplus_1"] == "0,1,0"
    assert fields["rplus_2"] == "2/3,0,1/3"
    assert fields["saved_fraction"] == "5/12"
    assert fields["bits_per_sample"] == "5/6"
    assert fields["kernel_exact"] == "true"


def test_simulate_baseline_coin(tmp_path):
    out = tmp_path / "traj.txt"
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--p", "0.3", "--seed", "7", "--steps", "2000",
               "--out", str(out)) == 0
    symbols = out.read_text().split()
    assert len(symbols) == 2000 and set(symbols) <= {"0", "1"}
    report = (tmp_path / "traj.txt.report.txt").read_text()
    assert "passed=true" in report and "row11_max_abs_z=" in report
    assert "algo=baseline" in report


def test_simulate_quantum_postproc(tmp_path):
    out = tmp_path / "traj.txt"
    assert run("simulate", "--model", "postproc", "--algo", "quantum",
               "--p", "1/9", "--q", "2/3", "--seed", "3",
               "--steps", "3000", "--out", str(out)) == 0
    symbols = out.read_text().split()
    assert len(symbols) == 3000 and set(symbols) <= {"0", "1", "2"}


def test_simulate_single_bit(tmp_path):
    out = tmp_path / "traj.txt"
    assert run("simulate", "--model", "postproc", "--algo", "single-bit",
               "--p", "1/9", "--q", "2/3", "--seed", "2",
               "--steps", "20000", "--out", str(out)) == 0
    seq = out.read_text().replace("\n", "")
    for forbidden in ("01", "20", "22"):
        assert forbidden not in seq


def test_simulate_qi_ensemble(tmp_path):
    out = tmp_path / "ens.csv"
    assert run("simulate", "--model", "coin", "--algo", "qi-ensemble",
               "--p", "0.75", "--samples", "5000", "--steps", "20",
               "--seed", "11", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,sample,value"
    assert len(lines) == 1 + 21 * 5000
    assert lines[1] == "0,0,0" or lines[1] == "0,0,1"
    report = (tmp_path / "ens.csv.report.txt").read_text()
    fields = dict(line.split("=", 1) for line in report.splitlines())
    assert fields["passed"] == "true"
    assert abs(float(fields["saved_z"])) <= 5.0
    assert float(fields["saved_fraction_expected"]) == 0.5


def test_simulate_qi_general_custom(tmp_path):
    matrix = tmp_path / "chain.json"
    matrix.write_text(json.dumps(DEMO_MATRIX))
    out = tmp_path / "ens.csv"
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(matrix), "--samples", "5000", "--steps", "20",
               "--seed", "5", "--out", str(out)) == 0
    report = (tmp_path / "ens.csv.report.txt").read_text()
    fields = dict(line.split("=", 1) for line in report.splitlines())
    assert fields["passed"] == "true"
    expected = float(fields["saved_fraction_expected"])
    assert expected == pytest.approx(5 / 12, abs=1e-12)


def test_simulate_threads_are_invisible_in_output(tmp_path):
    matrix = tmp_path / "chain.json"
    matrix.write_text(json.dumps(DEMO_MATRIX))
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}.csv"
        assert run("simulate", "--model", "custom", "--algo", "qi-general",
                   "--matrix", str(matrix), "--samples", "4000",
                   "--steps", "12", "--seed", "5", "--threads", threads,
                   "--out", str(out)) == 0
        report = tmp_path / f"t{threads}.csv.report.txt"
        blobs.append((out.read_bytes(), report.read_bytes()))
    assert blobs[0] == blobs[1]


def test_simulate_usage_errors(tmp_path):
    assert run("simulate", "--model", "coin", "--algo", "single-bit",
               "--p", "0.3", "--seed", "1") == 2
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--p", "0.3") == 2  # no seed
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--seed", "1") == 2  # no p
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--seed", "1") == 2  # no matrix
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--p", "0.3", "--seed", "1", "--samples", "0") == 2
    assert run("simulate", "--model", "coin", "--algo", "bogus",
               "--p", "0.3", "--seed", "1") == 2  # argparse choice


def test_simulate_statistical_failure_exit(tmp_path):
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--p", "0.3", "--seed", "1", "--steps", "2000",
               "--sigma", "0.001") == 1


def test_simulate_numeric_failure_exit(tmp_path):
    matrix = tmp_path / "id.json"
    matrix.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(matrix), "--seed", "1") == 3


@pytest.mark.parametrize("algo", ["qi-general", "baseline"])
def test_exact_row_off_one_is_refused(tmp_path, capsys, algo):
    """A rational row 1/3e15 past 1 is no chain: the run names the row at
    construction instead of failing the exact stationary solve."""
    matrix = tmp_path / "off.json"
    matrix.write_text(json.dumps(
        [["1/2", "1/2"], ["1/3", "666666666666667/1000000000000000"]]))
    assert run("simulate", "--model", "custom", "--algo", algo,
               "--matrix", str(matrix), "--seed", "1") == 3
    assert ("row 1 sums to 3000000000000001/3000000000000000, not 1"
            in capsys.readouterr().err)


def test_custom_ensemble_builds_no_machine(tmp_path, monkeypatch, capsys):
    """A custom ensemble reads only the parsed chain: with the machine
    conversions broken, the 50-state run still gives its pinned output."""
    def broken(*args):
        raise AssertionError("a custom ensemble built a machine")

    monkeypatch.setattr(cli, "machine_from_chain", broken)
    monkeypatch.setattr(cli, "induced_chain", broken)
    out = tmp_path / "run.txt"
    code = run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(_chain_file(tmp_path, 50)), "--samples", "2000",
               "--steps", "10", "--seed", "5", "--out", str(out))
    blob = (capsys.readouterr().out.encode() + out.read_bytes()
            + Path(f"{out}.report.txt").read_bytes())
    assert (code, hashlib.sha256(blob).hexdigest()) \
        == CUSTOM_DIGESTS["qi-general-50"]


def test_simulate_memory_error_is_numeric_error(monkeypatch, capsys):
    """An ensemble too large to allocate is a numerical error, reported on
    one line, not a statistical failure with a traceback."""
    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(samplers, "_words", no_memory)
    assert run("simulate", "--model", "coin", "--algo", "qi-ensemble",
               "--p", "0.3", "--samples", str(2 ** 40), "--steps", "1",
               "--seed", "1") == cli.NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: Unable to allocate 8.00 TiB\n"


def test_simulate_nan_is_numeric_error():
    for algo in ("qi-ensemble", "baseline"):
        assert run("simulate", "--model", "coin", "--algo", algo,
                   "--p", "nan", "--seed", "1") == 3
    assert run("simulate", "--model", "postproc", "--algo", "single-bit",
               "--p", "0.3", "--q", "nan", "--seed", "1") == 3


# sha256 of stdout, the --out file and the report of one trajectory run per
# algorithm (postproc p=1/9 q=2/3, 2e4 steps, seed 5): a change to any
# sampled symbol, the start-state draw or the report shows up here.  The
# reports were re-recorded when the trigram-window test gave way to
# next-symbol counts per 2-symbol context; the --out files did not change.
TRAJECTORY_DIGESTS = {
    "baseline":
        "1ac205f5b93c2711760702f05cf6ccb55db392cbff1ea282c81fa7d0993edd1e",
    "quantum":
        "3fa2b727aac52aa337c12c3c9a346234e4341bc9dbce432b838b9788e8a9330e",
    "single-bit":
        "9f2f28e8a98c09eef65e0c72bf3a4226cc70747c89d0fbfb4cfd961bb5a53f34",
}


@pytest.mark.parametrize("block", [markov.TRAJECTORY_BLOCK, 7, 2])
def test_trajectory_outputs_pinned(block, tmp_path, monkeypatch, capsys):
    """The same bytes at the default block and at blocks of 7 and 2 steps,
    which put thousands of block boundaries inside each run."""
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", block)
    for algo, digest in TRAJECTORY_DIGESTS.items():
        out = tmp_path / f"{algo}.txt"
        run("simulate", "--model", "postproc", "--algo", algo, "--p", "1/9",
            "--q", "2/3", "--steps", "20000", "--seed", "5", "--out", str(out))
        blob = (capsys.readouterr().out.encode() + out.read_bytes()
                + (tmp_path / f"{algo}.txt.report.txt").read_bytes())
        assert hashlib.sha256(blob).hexdigest() == digest, algo


# sha256 of stdout, the --out CSV and the report of the ensemble runs.  The
# qi-ensemble p=0.3 and qi-general digests were recorded before the pipeline
# streamed its rows and counted transitions per step, the other coin biases
# (complement branch, no saves, both endpoints) before the coin ensemble
# moved to raw Philox words and boolean state.
ENSEMBLE_DIGESTS = {
    "qi-ensemble":
        "3eca4a6a43cb07d06683869f86f7f7c87dd90cea0d807f3ecb4b53e0c580cf0e",
    "qi-ensemble-p0.7":
        "2d66c0109e4e434db492dc11bcd285dfb6521a5152d36b6527349cc11cb07663",
    "qi-ensemble-p1/2":
        "f3815bb4f08f29317fcabb9a1bcceabce7ffa87ca6b2c5e08f1d23eb030500dd",
    "qi-ensemble-p0":
        "d1bb3ce4363c905b60f196b94c421586e15fb2837721f534c99c0d42bcb57541",
    "qi-ensemble-p1":
        "e432e7d567ee671fd003effb21bd229b8b3067e4214ee2103c685d7bc6fd087c",
    "qi-general":
        "f5218b9904019447b96715312ac0e05cf82b7c33b4918b4046acfb0e9c113002",
    "qi-general-steps0":
        "de850054efe570a5b3f0d3292d89a1d7acd6e27d0d3d5b52645183a2a1b7a823",
}


def test_ensemble_outputs_pinned(tmp_path, capsys):
    matrix = tmp_path / "chain.json"
    matrix.write_text(json.dumps(DEMO_MATRIX))
    general = ("--model", "custom", "--algo", "qi-general",
               "--matrix", str(matrix), "--samples", "5000", "--seed", "5")
    coin = ("--model", "coin", "--algo", "qi-ensemble", "--samples", "20000",
            "--steps", "20", "--seed", "5")
    commands = {
        "qi-ensemble": coin + ("--p", "0.3"),
        **{f"qi-ensemble-p{p}": coin + ("--p", p)
           for p in ("0.7", "1/2", "0", "1")},
        "qi-general": general + ("--steps", "20"),
        "qi-general-steps0": general + ("--steps", "0"),
    }
    for name, flags in commands.items():
        out = tmp_path / (name.replace("/", "_") + ".csv")
        assert run("simulate", *flags, "--out", str(out)) == 0, name
        blob = (capsys.readouterr().out.encode() + out.read_bytes()
                + Path(f"{out}.report.txt").read_bytes())
        assert hashlib.sha256(blob).hexdigest() == ENSEMBLE_DIGESTS[name], name
    steps0 = (tmp_path / "qi-general-steps0.csv").read_text().splitlines()
    assert len(steps0) == 1 + 5000 and steps0[1].startswith("0,0,")


# sha256 of stdout of runs that spelled exactness with the --exact flag of
# earlier releases: bias 0.3 (0.1 and 0.6 for single-bit) with --exact.  The
# ratio spelling of the same bias must print the same bytes.
RATIO_DIGESTS = {
    "baseline":
        "54db2ce204a5ec585cfc5009c8af866ea58b0fef0e9f132e96da46369bd6b211",
    "qi-general":
        "3d56b777f06512fd3db56bca35f92696ad22c21740963ae3e4b2e77acd20a961",
    "qi-ensemble":
        "69906ed9d2bb7f7ef0bdeb5ec501937c968c26ca48bd4759a3ca520b3c61cd79",
    "single-bit":
        "fb1aa4180fb64d80fe781daf467cd4751cad42a109bb8754f0336108ab204c8c",
    "bp-verify":
        "b8d689bf80e7519e39bdcf8c271f8bc3ecba1ac0a407a1974dfa4e2dca3beaac",
}


def test_ratio_bias_reproduces_exact_flag_outputs(capsys):
    coin = ("simulate", "--model", "coin", "--p", "3/10", "--seed", "7")
    ensemble = ("--samples", "2000", "--steps", "10")
    commands = {
        "baseline": coin + ("--algo", "baseline", "--steps", "2000"),
        "qi-general": coin + ("--algo", "qi-general") + ensemble,
        "qi-ensemble": coin + ("--algo", "qi-ensemble") + ensemble,
        "single-bit": ("simulate", "--model", "postproc", "--algo",
                       "single-bit", "--p", "1/10", "--q", "3/5",
                       "--steps", "5000", "--seed", "7"),
        "bp-verify": ("bp-verify", "--model", "coin", "--p", "3/10",
                      "--steps", "2"),
    }
    for name, argv in commands.items():
        assert run(*argv) == 0, name
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == RATIO_DIGESTS[name], name


def _chain_file(tmp_path, n):
    """A JSON file of a DEMO_MATRIX (n=3) or of a float chain on n states."""
    path = tmp_path / f"chain{n}.json"
    rows = (DEMO_MATRIX if n == 3 else
            random_chain(np.random.default_rng(n), n).array.tolist())
    path.write_text(json.dumps(rows))
    return path


def _sparse_chain_file(tmp_path):
    """A JSON file of a 12-state float chain with exact 0.0 entries: about
    half of each row is cut to 0, the even rows end in a 0, and the cycle
    j -> j + 1 keeps the chain irreducible."""
    rng = np.random.default_rng(12)
    rows = rng.dirichlet(np.ones(12), 12)
    rows[rng.random((12, 12)) < 0.5] = 0.0
    rows[::2, -1] = 0.0
    rows[np.arange(12), (np.arange(12) + 1) % 12] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    path = tmp_path / "sparse12.json"
    path.write_text(json.dumps(rows.tolist()))
    return path


# sha256 of stdout, the --out file and the report of the custom-chain runs,
# with their exit codes: the rational demo chain, float chains of 12, 50
# and 200 states, and a sparse 12-state float chain whose rows hold exact
# zeros, some of them last and after a row sum of 1 - 1 ulp.  A trajectory
# walks the machine of the entries as parsed; its stationary start and
# verdict, and an ensemble, read the chain of those rows each divided by
# its left-to-right sum.  The rows of the 200-state chain are longer than
# the 128 entries of a numpy pairwise-sum block.  Three runs exit 1 on a
# correct sampler, on cells the binomial normal approximation misjudges at
# small expected counts: the 12-state baseline's row 7.5 scores z = 5.10,
# the 200-state qi-general's row 27 scores z = 17.3, and the 200-state
# baseline scores up to z = 175.6.  The 12-state baseline was re-recorded
# when its verdict law became the chain rows: same symbols and exit code,
# and 64 of its 153 report lines moved in their last digits.
CUSTOM_DIGESTS = {
    "baseline-3":
        (0, "ffb3ec83e8b36ef540ae7372d89870705a74fc6d2e1de2a411fbe3ed8968090f"),
    "baseline-12":
        (1, "26698bfa5196496e6ce8b988cd65ef7c4fb37b45f7fa905399c26f0615436277"),
    "qi-general-50":
        (0, "f51cc09f6579849787cc65145d87de34fce8a99e35e390b7c5f81613a7cc4233"),
    "qi-general-200":
        (1, "6a86fdf10ed80d329593e0371166fea87223b44720c1614f1c601a54f1705fbd"),
    "baseline-200":
        (1, "2126a6809a2f8d55c9e19bbcc759bf188f90b48bc9e8a2fc48676da02a4784f7"),
    "baseline-sparse-12":
        (0, "7ac273f637a64be180819b752c1bce4988a5e7cfc5b01a1eb6104396292fb9ec"),
}


def test_custom_outputs_pinned(tmp_path, capsys):
    commands = {
        "baseline-3": (3, "baseline", "--steps", "10000", "--seed", "1"),
        "baseline-12": (12, "baseline", "--steps", "20000", "--seed", "5"),
        "qi-general-50": (50, "qi-general", "--samples", "2000",
                          "--steps", "10", "--seed", "5"),
        "qi-general-200": (200, "qi-general", "--samples", "2000",
                           "--steps", "10", "--seed", "5"),
        "baseline-200": (200, "baseline", "--steps", "20000", "--seed", "5"),
        "baseline-sparse-12": ("sparse", "baseline", "--steps", "20000",
                               "--seed", "5"),
    }
    for name, (states, algo, *flags) in commands.items():
        out = tmp_path / f"{name}.txt"
        matrix = (_sparse_chain_file(tmp_path) if states == "sparse"
                  else _chain_file(tmp_path, states))
        code = run("simulate", "--model", "custom", "--algo", algo,
                   "--matrix", str(matrix), *flags, "--out", str(out))
        blob = (capsys.readouterr().out.encode() + out.read_bytes()
                + Path(f"{out}.report.txt").read_bytes())
        assert (code, hashlib.sha256(blob).hexdigest()) \
            == CUSTOM_DIGESTS[name], name


@pytest.mark.parametrize("states, samples, steps, threads", [
    (12, 300, 12, 1),   # two-digit values
    (12, 300, 12, 3),
    (3, 3, 101, 1),     # tags of one, two and three digits
    (3, 101, 3, 1),     # samples of one, two and three digits
    (3, 1, 12, 1),
    (12, 12, 0, 1),
    (10, 101, 12, 1),   # the most states whose layout a step keeps
    (11, 101, 12, 1),   # the fewest whose every step lays out anew
])
def test_ensemble_out_matches_reference(states, samples, steps, threads,
                                        tmp_path, monkeypatch, capsys):
    """The --out CSV is the reference formatting of the values the sampler
    returned, which no pinned digest reaches for 10 or more states."""
    seen = []

    class Recording(samplers.GeneralQISampler):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append(self.values.copy())

        def step(self, threads=1):
            values = super().step(threads=threads)
            seen.append(values.copy())
            return values

    monkeypatch.setattr(samplers, "GeneralQISampler", Recording)
    out = tmp_path / "run.csv"
    # the verdict is not under test: a few hundred transitions out of a row
    # with a 1e-4 entry can fail the z test by one hit
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(_chain_file(tmp_path, states)),
               "--samples", str(samples), "--steps", str(steps),
               "--threads", str(threads), "--seed", "7",
               "--out", str(out)) in (cli.PASS, cli.STAT_FAIL)
    assert len(seen) == steps + 1
    assert states <= 10 or max(v.max() for v in seen) >= 10
    assert out.read_bytes() == reference_ensemble_csv(seen)


def test_trajectory_out_matches_reference(tmp_path, monkeypatch, capsys):
    """A 12-symbol baseline trajectory, walked in blocks of 7 steps, is the
    reference formatting of the symbols the kernel emitted."""
    blocks = []

    def recording(*args):
        for symbols, state in markov.sample_edges(*args):
            blocks.append(symbols.copy())
            yield symbols, state

    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 7)
    monkeypatch.setattr(cli, "sample_edges", recording)
    out = tmp_path / "traj.txt"
    assert run("simulate", "--model", "custom", "--algo", "baseline",
               "--matrix", str(_chain_file(tmp_path, 12)), "--steps", "100",
               "--seed", "7", "--out", str(out)) in (cli.PASS, cli.STAT_FAIL)
    symbols = np.concatenate(blocks)
    assert symbols.size == 100 and symbols.max() >= 10
    assert out.read_bytes() == reference_trajectory_text(symbols.tolist())


def test_trajectory_builds_its_cdfs_once(monkeypatch, capsys):
    """A run walked in 8 blocks builds the CDFs of all its states once, as
    one 3 x 3 array, not once a block."""
    built, as_cdf = [], markov.as_cdf

    def counting(weights):
        built.append(weights)
        return as_cdf(weights)

    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 7)
    monkeypatch.setattr(markov, "as_cdf", counting)
    assert run("simulate", "--model", "postproc", "--algo", "baseline",
               "--p", "1/9", "--q", "2/3", "--steps", "50", "--seed", "5") == 0
    assert [np.shape(weights) for weights in built] == [(3, 3)]


@pytest.mark.parametrize("samples", [0, 101])
@pytest.mark.parametrize("n_symbols", [3, 10, 11, 12])
def test_line_writer_remakes_its_buffer_on_a_new_shape(n_symbols, samples):
    """One writer keeps its lines across calls and lays them out anew when
    the line count changes, as on a trajectory's last block, or the tag
    width does, as at steps 10 and 100, also on a return to an earlier
    shape.  Lines carry no prefix, or the ``,{k},`` prefixes of
    ``_sample_prefixes(101)``."""
    rng = np.random.default_rng(5)
    fh = io.BytesIO()
    write = cli._line_writer(fh, n_symbols, samples)
    expected = []
    for size, tag in [(5, ""), (5, ""), (3, ""), (5, ""), (5, "9"),
                      (5, "9"), (5, "10"), (5, "10"), (5, "100"), (3, "9"),
                      (5, "9"), (5, "")]:
        size = samples or size
        values = rng.integers(n_symbols, size=size)
        values[-1] = n_symbols - 1  # the widest symbol
        write(values, tag)
        prefixes = ([f",{k}," for k in range(size)] if samples
                    else [""] * size)
        expected += [f"{tag}{prefix}{v}"
                     for prefix, v in zip(prefixes, values.tolist())]
    assert fh.getvalue() == reference_trajectory_text(expected)


@pytest.mark.parametrize("n_symbols", [10, 11])
def test_line_writer_rewrites_its_kept_buffer(n_symbols):
    """Two calls with one line count and tag width write one kept buffer,
    rewritten in place, while every symbol is one digit; with 11 symbols
    each call compacts a new buffer.  A new tag width always does."""

    class Recorder:
        def __init__(self):
            self.buffers, self.data = [], []

        def write(self, buffer):
            self.buffers.append(buffer)
            self.data.append(bytes(buffer))

    rng = np.random.default_rng(9)
    fh = Recorder()
    write = cli._line_writer(fh, n_symbols, 101)
    expected = []
    for tag in ("7", "8", "10"):
        values = rng.integers(n_symbols, size=101)
        write(values, tag)
        expected += [f"{tag},{k},{v}" for k, v in enumerate(values.tolist())]
    first, second, third = fh.buffers
    assert (second is first) == (n_symbols <= 10)
    assert third is not second
    assert b"".join(fh.data) == reference_trajectory_text(expected)


@pytest.mark.parametrize("samples", [1, 9, 10, 11, 99, 100, 101, 65537])
def test_sample_prefixes_at_digit_boundaries(samples):
    prefixes = cli._sample_prefixes(samples).view(np.uint8)
    assert (prefixes[prefixes != 0].tobytes()
            == "".join(f",{k}," for k in range(samples)).encode())


def test_float_chain_at_pi_expects_no_saves(tmp_path, capsys):
    """Rows equal to pi need no correction; the stationary solve's rounding
    must not show up as an expected saved fraction."""
    matrix = tmp_path / "pi.json"
    matrix.write_text("[[0.6, 0.4], [0.6, 0.4]]")
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(matrix), "--samples", "1000", "--steps", "10",
               "--seed", "1") == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert fields["saved_fraction_expected"] == "0.0"
    assert fields["saved_fraction_observed"] == "0.0"
    assert fields["saved_z"] == "0.0"


def _trajectory_peak(steps, out, algo="baseline"):
    argv = ["simulate", "--model", "postproc", "--algo", algo,
            "--p", "1/9", "--q", "2/3", "--steps", str(steps), "--seed", "5"]
    tracemalloc.start()
    try:
        assert run(*argv, *(("--out", str(out)) if out else ())) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_out_memory_independent_of_steps(tmp_path, monkeypatch,
                                                    capsys):
    """The trajectory file goes out one block at a time, so the extra peak
    that --out adds stays the same when the run is four times longer."""
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 1000)
    _trajectory_peak(1000, tmp_path / "traj.txt")  # one-time allocations
    extra = [_trajectory_peak(steps, tmp_path / "traj.txt")
             - _trajectory_peak(steps, None) for steps in (20000, 80000)]
    assert (tmp_path / "traj.txt").read_text().count("\n") == 80000
    assert extra[1] - extra[0] < 100_000, extra


@pytest.mark.parametrize("algo", ["baseline", "quantum", "single-bit"])
def test_trajectory_memory_independent_of_steps(algo, monkeypatch, capsys):
    """Draws, symbols and context counts go one block at a time, so a run
    four times longer peaks no higher; holding the run took 23 B a step."""
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 1000)
    _trajectory_peak(1000, None, algo)  # one-time allocations
    peaks = [_trajectory_peak(steps, None, algo) for steps in (20000, 80000)]
    assert peaks[1] - peaks[0] < 100_000, peaks


def test_ensemble_memory_independent_of_steps(capsys):
    """Holding every step of 2e4 samples over 200 steps would take over
    100 MB; the streamed pipeline keeps one step and an n x n count."""
    tracemalloc.start()
    try:
        assert run("simulate", "--model", "coin", "--algo", "qi-ensemble",
                   "--p", "0.3", "--samples", "20000", "--steps", "200",
                   "--seed", "3") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_simulate_reads_no_word_law(tmp_path, capsys):
    """Every verdict reads its law off the chain's rows: the word-law
    oracle and the dense law of every context live only in the tests, and
    every trajectory algorithm at contexts of two, one and no symbols, and
    an ensemble, run to their verdicts without them."""
    for module, name in ((markov, "exact_kgram_distribution"),
                         (markov, "context_law"), (stats, "context_counts")):
        assert not hasattr(module, name), name
    matrix = str(_chain_file(tmp_path, 3))
    for steps in ("2000", "2", "1"):
        for algo in ("baseline", "quantum", "single-bit"):
            assert run("simulate", "--model", "postproc", "--algo", algo,
                       "--p", "1/9", "--q", "2/3", "--steps", steps,
                       "--seed", "5") == 0
        assert run("simulate", "--model", "coin", "--algo", "quantum",
                   "--p", "0.3", "--steps", steps, "--seed", "1") == 0
        assert run("simulate", "--model", "custom", "--algo", "baseline",
                   "--matrix", matrix, "--steps", steps, "--seed", "1") == 0
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", matrix, "--samples", "100", "--steps", "3",
               "--seed", "1") == 0


def test_custom_trajectory_memory_bounded_by_chain(tmp_path, capsys):
    """A 60-state trajectory verdict holds a row for each context seen, a
    few MB; the law of every 3-symbol word peaked at 89 MB traced."""
    matrix = str(_chain_file(tmp_path, 60))
    tracemalloc.start()
    try:
        code = run("simulate", "--model", "custom", "--algo", "baseline",
                   "--matrix", matrix, "--steps", "20000", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert peak < 20 * 2**20, peak


def test_custom_trajectory_memory_bounded_by_data(tmp_path, capsys):
    """A 200-state trajectory verdict holds a row for each of the at most
    5000 contexts it saw, not for all 40000 that could occur: the dense
    40000 x 200 law and counts peaked at 169 MB traced."""
    matrix = str(_chain_file(tmp_path, 200))
    tracemalloc.start()
    try:
        code = run("simulate", "--model", "custom", "--algo", "baseline",
                   "--matrix", matrix, "--steps", "5000", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert peak < 80 * 2**20, peak


@pytest.mark.parametrize("argv", [
    ("simulate", "--model", "coin", "--algo", "qi-ensemble", "--p", "1.5",
     "--seed", "1"),
    ("simulate", "--model", "coin", "--algo", "baseline", "--p", "-0.1",
     "--seed", "1"),
    ("simulate", "--model", "coin", "--algo", "qi-ensemble", "--p", "abc",
     "--seed", "1"),
    ("simulate", "--model", "coin", "--algo", "baseline", "--p", "1/0",
     "--seed", "1"),
    ("simulate", "--model", "postproc", "--algo", "single-bit", "--p", "0.3",
     "--q", "2", "--seed", "1"),
    ("simulate", "--model", "coin", "--algo", "qi-ensemble", "--p", "0.3",
     "--seed", "-1"),
    ("simulate", "--model", "coin", "--algo", "qi-ensemble", "--p", "0.3",
     "--seed", str(2**64)),
    ("bp-verify", "--model", "coin", "--p", "0.3", "--steps", "0"),
    ("bp-verify", "--model", "coin", "--p", "abc"),
    # flags a subcommand would ignore are not registered there
    ("memory-curve", "--seed", "1"),
    ("memory-curve", "--exact"),
    ("appendix-a", "--seed", "1"),
    ("appendix-a", "--exact"),
    ("bp-verify", "--model", "coin", "--p", "0.3", "--seed", "1"),
    # exactness is read from the numbers: a ratio or a string matrix entry
    ("simulate", "--model", "coin", "--algo", "baseline", "--p", "0.3",
     "--steps", "10", "--seed", "1", "--exact"),
    ("bp-verify", "--model", "coin", "--p", "0.3", "--exact"),
    # model flags the chosen model would ignore
    ("simulate", "--model", "coin", "--algo", "baseline", "--p", "0.3",
     "--q", "0.5", "--steps", "10", "--seed", "1"),
    ("simulate", "--model", "coin", "--algo", "baseline", "--p", "0.3",
     "--matrix", "chain.json", "--steps", "10", "--seed", "1"),
    ("simulate", "--model", "postproc", "--algo", "baseline", "--p", "1/9",
     "--q", "2/3", "--matrix", "chain.json", "--steps", "10", "--seed", "1"),
    ("simulate", "--model", "custom", "--algo", "baseline", "--matrix",
     "chain.json", "--p", "0.3", "--steps", "10", "--seed", "1"),
    ("simulate", "--model", "custom", "--algo", "baseline", "--matrix",
     "chain.json", "--q", "0.5", "--steps", "10", "--seed", "1"),
    ("bp-verify", "--model", "coin", "--p", "0.3", "--q", "0.5"),
], ids=["p-above-one", "p-below-zero", "p-not-a-number", "p-zero-denominator",
        "q-above-one", "negative-seed", "seed-above-uint64",
        "bp-verify-zero-steps", "bp-verify-p-not-a-number",
        "memory-curve-seed", "memory-curve-exact", "appendix-a-seed",
        "appendix-a-exact", "bp-verify-seed", "simulate-exact",
        "bp-verify-exact", "coin-q", "coin-matrix",
        "postproc-matrix", "custom-p", "custom-q", "bp-verify-coin-q"])
def test_bad_input_is_usage_error(argv, capsys, tmp_path, monkeypatch):
    # a valid chain, so only the unread flag can be at fault
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text("[[0.5, 0.5], [0.25, 0.75]]")
    assert run(*argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [
    [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
    [[1.0], [0.5, 0.5]],
    [],
    [[0.5, None], [0.5, 0.5]],
    [["1/2", "x"], ["1/2", "1/2"]],
    [[0.5, 0.5], [True, False]],
    [["1/2", "1/2"], ["1/2", True]],
    [["1/2", 0.5], ["1/2", "1/2"]],
    [[10 ** 400, 0.5], [0.5, 0.5]],
    [[1.5, -0.5], [0.5, 0.5]],
    [["3/2", "-1/2"], ["1/2", "1/2"]],
], ids=["non-square", "ragged", "empty", "null-entry", "bad-rational",
        "bool-entries", "bool-among-rationals", "float-among-rationals",
        "int-too-large-for-float", "entry-above-one", "rational-above-one"])
def test_bad_matrix_is_usage_error(tmp_path, capsys, matrix):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(matrix))
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(path), "--seed", "1") == 2
    assert "usage error" in capsys.readouterr().err


def test_config_supplies_defaults_and_flags_win(tmp_path):
    out = tmp_path / "traj.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "coin", "algo": "baseline",
                               "p": 0.3, "seed": 7, "steps": 2000,
                               "out": str(out)}))
    assert run("simulate", "--config", str(cfg)) == 0
    assert len(out.read_text().split()) == 2000
    assert run("simulate", "--config", str(cfg), "--steps", "7") == 0
    assert len(out.read_text().split()) == 7


SIMULATE_CONFIG = {"model": "coin", "algo": "qi-ensemble", "p": 0.3,
                   "seed": 1, "samples": 100, "steps": 5}


@pytest.mark.parametrize("command,config", [
    ("simulate", {"seed": 1.5}),
    ("simulate", {"seed": True}),
    ("simulate", {"seed": "one"}),
    ("simulate", {"samples": "abc"}),
    ("simulate", {"samples": 100.0}),
    ("simulate", {"steps": "x"}),
    ("simulate", {"steps": 2.5}),
    ("simulate", {"threads": True}),
    ("simulate", {"threads": [2]}),
    ("simulate", {"sigma": "abc"}),
    ("simulate", {"sigma": True}),
    ("simulate", {"sigma": "nan"}),
    ("simulate", {"sigma": -1}),
    ("simulate", {"p": True}),
    ("memory-curve", {"grid": "x"}),
    ("memory-curve", {"grid": 11.0}),
    ("bp-verify", {"model": "coin", "p": 0.3, "steps": "two"}),
    ("bp-verify", {"model": "coin", "p": 0.3, "steps": True}),
    ("simulate", {"exact": "yes"}),
    ("simulate", {"exact": 1}),
    ("simulate", {"exact": None}),
    ("simulate", {"exact": True}),
    ("bp-verify", {"model": "coin", "p": 0.3, "exact": "False"}),
    ("simulate", {"model": "foo"}),
    ("bp-verify", {"model": "foo", "p": 0.3}),
    ("simulate", {"matrix": ["a"]}),
    ("simulate", {"sampels": 100}),
    ("simulate", {"samp": 100}),
    ("memory-curve", {"seed": 1}),
    ("simulate", {"q": 0.5}),
], ids=["seed-float", "seed-bool", "seed-text", "samples-text",
        "samples-float", "steps-text", "steps-float", "threads-bool",
        "threads-list", "sigma-text", "sigma-bool", "sigma-nan",
        "sigma-negative", "p-bool", "grid-text", "grid-float",
        "bp-verify-steps-text", "bp-verify-steps-bool", "exact-text",
        "exact-int", "exact-null", "exact-bool", "bp-verify-exact-text", "model-unknown",
        "bp-verify-model-unknown", "matrix-list", "key-misspelt",
        "key-prefix", "memory-curve-seed", "coin-q"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, config):
    if command == "simulate":
        config = {**SIMULATE_CONFIG, **config}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg)) == 2
    assert "usage error" in capsys.readouterr().err


def test_config_numbers_as_text(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SIMULATE_CONFIG, "seed": "1",
                               "samples": "100", "steps": "5",
                               "threads": "2", "sigma": "5"}))
    assert run("simulate", "--config", str(cfg)) == 0
    as_text = capsys.readouterr().out
    cfg.write_text(json.dumps({**SIMULATE_CONFIG, "threads": 2,
                               "sigma": 5}))
    assert run("simulate", "--config", str(cfg)) == 0
    assert capsys.readouterr().out == as_text


def test_config_number_is_read_as_text(tmp_path, monkeypatch, capsys):
    # {"out": 7} names the file 7, not file descriptor 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": 7, "grid": 3}))
    assert run("memory-curve", "--config", "cfg.json") == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "7").read_text().startswith("p,classical_bits,")


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run("memory-curve", "--config", str(bad)) == 2
    bad.write_text("{not json")
    assert run("memory-curve", "--config", str(bad)) == 2
    assert run("memory-curve", "--config", str(tmp_path / "missing.json")) == 2


def test_undecodable_files_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert run("memory-curve", "--config", str(bad)) == 2
    assert run("simulate", "--model", "custom", "--algo", "qi-general",
               "--matrix", str(bad), "--seed", "1") == 2
    assert capsys.readouterr().err.count("usage error") == 2


def fresh_process(*argv) -> str:
    """Stdout of ``python -m qimem.cli argv``, which must exit 0."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "qimem.cli", *argv],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_module_entry_point_reads_sys_argv(tmp_path, capsys):
    """python -m qimem.cli runs main() on sys.argv and prints what an
    in-process call prints."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIMULATE_CONFIG))
    argv = ["simulate", "--config", str(cfg), "--steps", "3"]
    assert run(*argv) == 0
    stdout = fresh_process(*argv)
    assert stdout == capsys.readouterr().out
    assert "steps=3" in stdout


def test_shared_parser_after_usage_errors(capsys):
    """The parser is built once per process; a parse that failed part way
    leaves nothing behind for the next call."""
    valid = ("bp-verify", "--model", "coin", "--p", "0.3", "--steps", "2")
    assert run("bp-verify", "--model", "foo", "--p", "0.3") == 2
    assert run("bp-verify", "--model", "coin", "--p", "0.3",
               "--steps") == 2
    assert run("bp-verify", "--model", "coin", "--p", "abc") == 2
    capsys.readouterr()
    assert run(*valid) == 0
    assert capsys.readouterr().out == fresh_process(*valid)


def test_shared_parser_drops_config_values(tmp_path, capsys):
    """Values a config file supplied are gone from the next call, which
    reads only its own flags and the defaults."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIMULATE_CONFIG))
    assert run("simulate", "--config", str(cfg)) == 0
    flags = ("simulate", "--model", "coin", "--algo", "qi-ensemble",
             "--p", "0.3", "--seed", "2", "--steps", "3")
    capsys.readouterr()
    assert run(*flags) == 0
    out = capsys.readouterr().out
    assert "samples=1000" in out and "seed=2" in out
    assert out == fresh_process(*flags)


def test_unwritable_out_is_usage_error(tmp_path):
    assert run("memory-curve", "--out", str(tmp_path / "no" / "dir.csv")) == 2


def test_unwritable_report_prints_nothing(tmp_path, capsys):
    """The report file is written before stdout, so a report path that
    cannot be opened (here a directory) exits 2 with stdout empty."""
    out = tmp_path / "traj.txt"
    (tmp_path / "traj.txt.report.txt").mkdir()
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--p", "0.3", "--steps", "10", "--seed", "1",
               "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_bp_verify_coin(tmp_path, capsys):
    out = tmp_path / "bp.txt"
    assert run("bp-verify", "--model", "coin", "--p", "0.3",
               "--out", str(out)) == 0
    fields = dict(line.split("=", 1) for line in out.read_text().splitlines())
    assert fields["passed"] == "true"
    assert float(fields["max_deviation"]) < 1e-12
    assert "state1_enumeration_dev" in fields


def test_bp_verify_postproc(capsys):
    assert run("bp-verify", "--model", "postproc", "--p", "1/9",
               "--q", "2/3") == 0
    out = capsys.readouterr().out
    assert "state2_message_dev" in out and "passed=true" in out


def test_bp_verify_two_step(capsys):
    assert run("bp-verify", "--model", "coin", "--p", "0.3",
               "--steps", "2") == 0
    assert run("bp-verify", "--model", "postproc", "--p", "0.3",
               "--q", "0.5", "--steps", "2") == 2
    assert run("bp-verify", "--model", "postproc", "--p", "0.3") == 2


def test_bp_verify_skips_only_enumeration_above_limit(capsys):
    # three chained coin steps exceed bp.MAX_ENUM_BITS of joint state
    assert run("bp-verify", "--model", "coin", "--p", "0.3",
               "--steps", "3") == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert fields["passed"] == "true"
    for j in (0, 1):
        assert fields[f"state{j}_enumeration_dev"] == "skipped"
        for check in ("message", "loop", "transpose", "marginal"):
            assert float(fields[f"state{j}_{check}_dev"]) < 1e-12
    assert float(fields["max_deviation"]) < 1e-12


def test_bp_verify_steps_limit(monkeypatch):
    """Steps above bp.MAX_COIN_STEPS are refused before any graph is built,
    as each step doubles the width of the dense gates."""
    built = []

    def no_graph(*args):
        built.append(args)
        raise ValueError("graph built")

    monkeypatch.setattr(bp, "coin_graph", no_graph)
    for steps in ("11", "1000"):
        assert run("bp-verify", "--model", "coin", "--p", "0.3",
                   "--steps", steps) == 2
    assert built == []
    # the limit itself is accepted and reaches the graph
    assert run("bp-verify", "--model", "coin", "--p", "0.3",
               "--steps", str(bp.MAX_COIN_STEPS)) == 3
    assert len(built) == 1


def test_bp_verify_nan_input_fails():
    assert run("bp-verify", "--model", "coin", "--p", "nan") == 3


@pytest.mark.parametrize("target", ["expected_messages", "brute_marginals"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bp_verify_nonfinite_deviation_fails(monkeypatch, capsys, target,
                                             bad):
    real = getattr(bp, target)

    def spoiled(*args, **kwargs):
        result = real(*args, **kwargs)
        arrays = result[0] if target == "brute_marginals" else result
        arrays[-1] = arrays[-1] + bad
        return result

    monkeypatch.setattr(bp, target, spoiled)
    assert run("bp-verify", "--model", "coin", "--p", "0.3") == 1
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert fields["passed"] == "false"
    assert not math.isfinite(float(fields["max_deviation"]))


def test_unknown_arguments():
    assert run("bogus-command") == 2
    assert run("memory-curve", "--bogus") == 2
