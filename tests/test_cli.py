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

from qimem import bp, cli, markov, quantum, samplers, stats
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


def test_simulate_quantum_postproc_branch_past_one(tmp_path):
    """At q = 1/2 causal state 2's one branch measures as sqrt(q)**2 +
    sqrt(1 - q)**2, 1 ulp past 1: the run walks it as probability 1."""
    out = tmp_path / "traj.txt"
    assert run("simulate", "--model", "postproc", "--algo", "quantum",
               "--p", "0.3", "--q", "0.5", "--seed", "3",
               "--steps", "3000", "--out", str(out)) == 0
    seq = out.read_text().replace("\n", "")
    assert "20" not in seq and "22" not in seq


@pytest.mark.parametrize("command", [
    "simulate --model postproc --algo quantum --p 0.5 --q 1e-16 --steps 10 "
    "--seed 1",
    "bp-verify --model postproc --p 0.5 --q 1e-16"])
def test_postproc_circuit_at_small_q(command, capsys):
    """At q = 1e-16, 1 - (1 - q) is 1.1e-16.  The "1-q" preparation reads
    its |0> amplitude sqrt(q) from q, as causal state 1 does, so the
    circuit's branch leaves that state and BP matches the circuit."""
    assert run(*command.split()) == 0


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


MODEL_FLAGS = {"coin": ("--p", "0.3"),
               "postproc": ("--p", "1/9", "--q", "2/3"),
               "custom": ("--matrix", "chain.json")}
UNDEFINED = {("coin", "single-bit"), ("postproc", "qi-ensemble"),
             ("custom", "quantum"), ("custom", "qi-ensemble"),
             ("custom", "single-bit")}


@pytest.mark.parametrize("algo", ["baseline", "quantum", "qi-ensemble",
                                  "single-bit", "qi-general"])
@pytest.mark.parametrize("model", ["coin", "postproc", "custom"])
def test_simulate_model_algo_table(model, algo, tmp_path, monkeypatch,
                                   capsys):
    """Each of the 15 model x algorithm pairs, with valid model flags: the
    10 that simulate runs pass its usage checks, and the other 5 are
    refused as undefined for the model."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps(DEMO_MATRIX))
    code = run("simulate", "--model", model, "--algo", algo,
               *MODEL_FLAGS[model], "--samples", "50", "--steps", "5",
               "--seed", "1")
    err = capsys.readouterr().err
    if (model, algo) in UNDEFINED:
        assert code == 2
        assert f"is not defined for model {model}" in err
    else:
        assert code != 2, err


def test_qi_general_runs_a_chain_in_which_every_state_saves(capsys):
    """At q = 1 every state saves, and a float expectation that rounds past
    1 must not reach the saved-fraction z as a math domain error."""
    assert run("simulate", "--model", "postproc", "--algo", "qi-general",
               "--p", "0.2", "--q", "1", "--samples", "50", "--steps", "5",
               "--seed", "1") == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert fields["saved_fraction_expected"] == "1.0"
    assert fields["saved_z"] == "0.0"


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
    """Custom runs read only the parsed chain: with the machine conversions
    broken, the 12-state walk and the 50-state ensemble still give their
    pinned outputs."""
    def broken(*args):
        raise AssertionError("a custom run built a machine")

    monkeypatch.setattr(markov, "machine_from_chain", broken)
    monkeypatch.setattr(cli, "induced_chain", broken)
    commands = [c for c in PINNED if "{chain12}" in c or "{chain50}" in c]
    assert len(commands) == 2
    for command in commands:
        assert _pinned(command, tmp_path, capsys) == PINNED[command], command


def test_simulate_memory_error_is_numeric_error(monkeypatch, capsys):
    """An ensemble too large to allocate is a numerical error, reported on
    one line, not a statistical failure with a traceback.  Its state is
    asked for before any block is drawn, so it fails at once."""
    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    def no_draws(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(samplers, "_reserve", no_memory)
    monkeypatch.setattr(samplers, "_words", no_draws)
    assert run("simulate", "--model", "coin", "--algo", "qi-ensemble",
               "--p", "0.3", "--samples", str(2 ** 40), "--steps", "1",
               "--seed", "1") == cli.NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: Unable to allocate 8.00 TiB\n"


def test_simulate_linalg_error_is_numeric_error(monkeypatch, capsys):
    """A failed linear solve inside a run, a ValueError subclass, is a
    numerical error reported on one line."""
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "stationary", singular)
    assert run("simulate", "--model", "coin", "--algo", "baseline",
               "--p", "0.3", "--steps", "10", "--seed", "1") == cli.NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: Singular matrix\n"


def test_simulate_nan_is_numeric_error():
    for algo in ("qi-ensemble", "baseline"):
        assert run("simulate", "--model", "coin", "--algo", algo,
                   "--p", "nan", "--seed", "1") == 3
    assert run("simulate", "--model", "postproc", "--algo", "single-bit",
               "--p", "0.3", "--q", "nan", "--seed", "1") == 3


# Every pinned command output: the command text, with {chainN} and
# {sparse12} for the files _chain_file and _sparse_chain_file write and
# {thirds} for DEMO_MATRIX in floats, and its exit code and sha256.  The
# sha256 is of stdout, then, for a command that ends in --out, of the output
# file _pinned appends and of its report.
PINNED = {
    # One trajectory run per algorithm (postproc p=1/9 q=2/3, 2e4 steps,
    # seed 5): a change to any sampled symbol, the start-state draw or the
    # report shows up here.  The reports were re-recorded when the
    # trigram-window test gave way to next-symbol counts per 2-symbol
    # context; the --out files did not change.  These three also run in
    # blocks of 7 and 2 steps (test_trajectory_outputs_pinned).
    "simulate --model postproc --algo baseline --p 1/9 --q 2/3 --steps 20000 "
    "--seed 5 --out":
        (0, "1ac205f5b93c2711760702f05cf6ccb55db392cbff1ea282c81fa7d0993edd1e"),
    "simulate --model postproc --algo quantum --p 1/9 --q 2/3 --steps 20000 "
    "--seed 5 --out":
        (0, "3fa2b727aac52aa337c12c3c9a346234e4341bc9dbce432b838b9788e8a9330e"),
    "simulate --model postproc --algo single-bit --p 1/9 --q 2/3 "
    "--steps 20000 --seed 5 --out":
        (0, "9f2f28e8a98c09eef65e0c72bf3a4226cc70747c89d0fbfb4cfd961bb5a53f34"),

    # More trajectory runs (2e4 steps, seed 5).  At postproc p=0.2 q=0.35
    # three entries of the machine's rows differ from its induced chain's in
    # the last bits.  At coin p=1/2 and postproc q=1 two causal states
    # coincide, so their circuit rows are equal.
    "simulate --model postproc --algo baseline --p 0.2 --q 0.35 --steps 20000 "
    "--seed 5 --out":
        (0, "b49f1e135e23aa3a152e9b9483f315ed0ad4148dde2d5018404738cf0ac619cd"),
    "simulate --model postproc --algo quantum --p 0.2 --q 0.35 --steps 20000 "
    "--seed 5 --out":
        (0, "68c685ce3d144ab599867419ede764da7eeed4337b17f7d5353c33b0e6fdf2cc"),
    "simulate --model postproc --algo single-bit --p 0.2 --q 0.35 "
    "--steps 20000 --seed 5 --out":
        (0, "f9451767d7cd57783d022da968186ba420cdfd32c0388c3fbf449462a61f4462"),
    "simulate --model coin --algo baseline --p 0.3 --steps 20000 --seed 5 "
    "--out":
        (0, "5f7dcda804909e1e3208d433089b13814c5101336e39f2097c7081bc4bbb1460"),
    "simulate --model coin --algo quantum --p 0.3 --steps 20000 --seed 5 "
    "--out":
        (0, "e653a655f7c19b9c400e5388336354e87290d16280e6bc5cb7c3f5f5b6c17c4f"),
    "simulate --model coin --algo quantum --p 0.5 --steps 20000 --seed 5 "
    "--out":
        (0, "7bc0da9b719e7a429863f3789df3175d5b105813063c75c7f46743997bd75ad8"),
    "simulate --model postproc --algo quantum --p 0.3 --q 1 --steps 20000 "
    "--seed 5 --out":
        (0, "6734958f1266f6b12b35fb75575c0a154cc604f4ea6b8b653aac0a34baaf458a"),

    # Single-bit walks at q = 1.  Both start from the middle state, whose bit
    # is certainly clear at q = 1: its draw still spends one uniform, which
    # every later step reads after.
    "simulate --model postproc --algo single-bit --p 0.2 --q 1 --steps 20000 "
    "--seed 5 --out":
        (0, "1215caed90802a1e79c9fd001347ebe189eccec7b1fcff26029472afe8899cab"),
    "simulate --model postproc --algo single-bit --p 0.3 --q 1 --steps 20000 "
    "--seed 7 --out":
        (0, "5eb55203f7f7e11cc745841b23cc101d917525ac9da20b2ff87574a5a8193aef"),

    # The ensemble runs.  The qi-ensemble p=0.3 and qi-general digests were
    # recorded before the pipeline streamed its rows and counted transitions
    # per step, the other coin biases (complement branch, no saves, both
    # endpoints) before the coin ensemble moved to raw Philox words and
    # boolean state.
    "simulate --model coin --algo qi-ensemble --p 0.3 --samples 20000 "
    "--steps 20 --seed 5 --out":
        (0, "3eca4a6a43cb07d06683869f86f7f7c87dd90cea0d807f3ecb4b53e0c580cf0e"),
    "simulate --model coin --algo qi-ensemble --p 0.7 --samples 20000 "
    "--steps 20 --seed 5 --out":
        (0, "2d66c0109e4e434db492dc11bcd285dfb6521a5152d36b6527349cc11cb07663"),
    "simulate --model coin --algo qi-ensemble --p 1/2 --samples 20000 "
    "--steps 20 --seed 5 --out":
        (0, "f3815bb4f08f29317fcabb9a1bcceabce7ffa87ca6b2c5e08f1d23eb030500dd"),
    "simulate --model coin --algo qi-ensemble --p 0 --samples 20000 "
    "--steps 20 --seed 5 --out":
        (0, "d1bb3ce4363c905b60f196b94c421586e15fb2837721f534c99c0d42bcb57541"),
    "simulate --model coin --algo qi-ensemble --p 1 --samples 20000 "
    "--steps 20 --seed 5 --out":
        (0, "e432e7d567ee671fd003effb21bd229b8b3067e4214ee2103c685d7bc6fd087c"),
    "simulate --model custom --algo qi-general --matrix {chain3} "
    "--samples 5000 --steps 20 --seed 5 --out":
        (0, "f5218b9904019447b96715312ac0e05cf82b7c33b4918b4046acfb0e9c113002"),
    "simulate --model custom --algo qi-general --matrix {chain3} "
    "--samples 5000 --steps 0 --seed 5 --out":
        (0, "de850054efe570a5b3f0d3292d89a1d7acd6e27d0d3d5b52645183a2a1b7a823"),

    # Runs that spelled exactness with the --exact flag of earlier releases:
    # bias 0.3 (0.1 and 0.6 for single-bit) with --exact.  The ratio spelling
    # of the same bias must print the same bytes.
    "simulate --model coin --algo baseline --p 3/10 --steps 2000 --seed 7":
        (0, "54db2ce204a5ec585cfc5009c8af866ea58b0fef0e9f132e96da46369bd6b211"),
    "simulate --model coin --algo qi-general --p 3/10 --samples 2000 "
    "--steps 10 --seed 7":
        (0, "3d56b777f06512fd3db56bca35f92696ad22c21740963ae3e4b2e77acd20a961"),
    "simulate --model coin --algo qi-ensemble --p 3/10 --samples 2000 "
    "--steps 10 --seed 7":
        (0, "69906ed9d2bb7f7ef0bdeb5ec501937c968c26ca48bd4759a3ca520b3c61cd79"),
    "simulate --model postproc --algo single-bit --p 1/10 --q 3/5 "
    "--steps 5000 --seed 7":
        (0, "fb1aa4180fb64d80fe781daf467cd4751cad42a109bb8754f0336108ab204c8c"),
    "bp-verify --model coin --p 3/10 --steps 2":
        (0, "b8d689bf80e7519e39bdcf8c271f8bc3ecba1ac0a407a1974dfa4e2dca3beaac"),

    # bp-verify runs: a ratio and a float bias at one to six coin steps
    # (three and more skip the enumeration), the ratio at five steps and the
    # float at eight, and the post-processed coin at three (p, q).  The
    # ratio's one-step digest is also bench/golden.json's bp-coin-s1-15/50;
    # bench pins none of the others.
    "bp-verify --model coin --p 3/10 --steps 1":
        (0, "fc15e7040eebd17d6775b30e7bcc726d534e5ac2a584d5be2b0cc7c6d382b995"),
    "bp-verify --model coin --p 0.37 --steps 1":
        (0, "e54be96af0c89fbc73ef3d3c07a48c78d5d60c7320117051e65d0d7d2bd34614"),
    "bp-verify --model coin --p 3/10 --steps 3":
        (0, "2874899bc12304edf7446bfb4ecbff25622d577d33bc85cc74d758fa2a1a734c"),
    "bp-verify --model coin --p 0.37 --steps 3":
        (0, "4a60ccbccfa3c7acebc438658c69592dc6e7906e4bd514c5bee6999b4cdbe74b"),
    "bp-verify --model coin --p 3/10 --steps 4":
        (0, "2874899bc12304edf7446bfb4ecbff25622d577d33bc85cc74d758fa2a1a734c"),
    "bp-verify --model coin --p 0.37 --steps 4":
        (0, "4a60ccbccfa3c7acebc438658c69592dc6e7906e4bd514c5bee6999b4cdbe74b"),
    "bp-verify --model coin --p 3/10 --steps 5":
        (0, "2874899bc12304edf7446bfb4ecbff25622d577d33bc85cc74d758fa2a1a734c"),
    "bp-verify --model coin --p 3/10 --steps 6":
        (0, "c66307cad0a373db3bad3713b65fba53550cca64f4ba1316d57f67750d30e10a"),
    "bp-verify --model coin --p 0.37 --steps 6":
        (0, "4a60ccbccfa3c7acebc438658c69592dc6e7906e4bd514c5bee6999b4cdbe74b"),
    "bp-verify --model coin --p 0.37 --steps 8":
        (0, "2c755f675ac03fddd6195405e4b556f83c09dcfc5faa1ef328bf280e148cd008"),
    "bp-verify --model postproc --p 0.2 --q 0.35":
        (0, "d4d254e91069d28f8ac12f099b95d9a66f0d9f1a485378d71e7e9f4098e53176"),
    "bp-verify --model postproc --p 0.3 --q 0.5":
        (0, "9c43d061194629e2de5d4fb78a54882ddd4a3c78aaf2f1cf2b2f14c366a8b82a"),
    "bp-verify --model postproc --p 1/9 --q 2/3":
        (0, "12a76c3f4e3f6ab35ed2e3384c7d37f96ad17e197e4008a9d771bb1c88fbdb27"),

    # Chained bp-verify runs: the post-processed coin at two to four steps,
    # at a ratio and a float bias, and each model one step past the steps its
    # register fits (exit 2, no stdout).
    "bp-verify --model postproc --p 1/9 --q 2/3 --steps 2":
        (0, "46877493f28153c695573d75b0ebbb2e3c0dd8d8ae54f2be47ff20bb1eea4107"),
    "bp-verify --model postproc --p 1/9 --q 2/3 --steps 3":
        (0, "0579fcd6781f5191f26f12c0d6acae0f4aa7aa5e171dbcbdd0a41afe963cafdd"),
    "bp-verify --model postproc --p 1/9 --q 2/3 --steps 4":
        (0, "df6322cd699b93c728f9f3ed4670c46efcb964bfa9960ff79f90785298bd7fd2"),
    "bp-verify --model postproc --p 0.2 --q 0.35 --steps 2":
        (0, "b10ed2acf1681e56cabc81f652b19a5e8c6e2548fccd59a920e81e7d10035919"),
    "bp-verify --model postproc --p 0.2 --q 0.35 --steps 3":
        (0, "c39bae82ea45a3988b153e77423175bd6e2c296811744810a8c9c70464f5bfee"),
    "bp-verify --model postproc --p 0.2 --q 0.35 --steps 4":
        (0, "71f488fd215fb8676689e5c3b8c8b92517b821abba4274a87613be2d50fdbc6a"),
    "bp-verify --model coin --p 3/10 --steps 11":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bp-verify --model postproc --p 0.2 --q 0.35 --steps 6":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),

    # The custom-chain runs: the rational demo chain, float chains of 12, 50,
    # 200 and 400 states, a sparse 12-state float chain whose rows hold
    # exact zeros, some of them last and after a row sum of 1 - 1 ulp, and
    # the demo chain in floats, whose middle row sums to 1 - 1 ulp.  Every
    # run, its walk or ensemble, stationary start and verdict, reads the
    # chain of those rows each divided by its left-to-right sum.  The rows of
    # the 200- and 400-state chains are longer than the 128 entries of a
    # numpy pairwise-sum block; the 400-state walk is the largest one pinned.
    # Four runs exit 1 on a correct sampler, on cells the binomial normal
    # approximation misjudges at small expected counts: the 12-state
    # baseline's row 7.5 scores z = 5.10, the 200-state qi-general's row 27
    # scores z = 17.3, and the 200- and 400-state baselines score up to z =
    # 175.6 and 238.1.  The 12-state baseline was re-recorded when its
    # verdict law became the chain rows: same symbols and exit code, and 64
    # of its 153 report lines moved in their last digits.
    "simulate --model custom --algo baseline --matrix {chain3} --steps 10000 "
    "--seed 1 --out":
        (0, "ffb3ec83e8b36ef540ae7372d89870705a74fc6d2e1de2a411fbe3ed8968090f"),
    "simulate --model custom --algo baseline --matrix {chain12} --steps 20000 "
    "--seed 5 --out":
        (1, "26698bfa5196496e6ce8b988cd65ef7c4fb37b45f7fa905399c26f0615436277"),
    "simulate --model custom --algo qi-general --matrix {chain50} "
    "--samples 2000 --steps 10 --seed 5 --out":
        (0, "f51cc09f6579849787cc65145d87de34fce8a99e35e390b7c5f81613a7cc4233"),
    "simulate --model custom --algo qi-general --matrix {chain200} "
    "--samples 2000 --steps 10 --seed 5 --out":
        (1, "6a86fdf10ed80d329593e0371166fea87223b44720c1614f1c601a54f1705fbd"),
    "simulate --model custom --algo baseline --matrix {chain200} "
    "--steps 20000 --seed 5 --out":
        (1, "2126a6809a2f8d55c9e19bbcc759bf188f90b48bc9e8a2fc48676da02a4784f7"),
    "simulate --model custom --algo baseline --matrix {chain400} "
    "--steps 20000 --seed 5 --out":
        (1, "4c883cc49f7420bd5cd4e0fe5baf11ede197584cc9685f52ec0eb98be9bc6fa0"),
    "simulate --model custom --algo baseline --matrix {sparse12} "
    "--steps 20000 --seed 5 --out":
        (0, "7ac273f637a64be180819b752c1bce4988a5e7cfc5b01a1eb6104396292fb9ec"),
    "simulate --model custom --algo qi-general --matrix {thirds} "
    "--samples 1000 --steps 10 --seed 1 --out":
        (0, "0716488f397a391e97ba88502244da259e83a70cd4fce91b322d0a9f0d4d2bc1"),
    "simulate --model custom --algo baseline --matrix {thirds} "
    "--steps 10000 --seed 1 --out":
        (0, "47922fd593cb374639453d18d00d6623e988756e9365f6ffce92fab1e68870aa"),
}


def _pinned(command, tmp_path, capsys):
    """Exit code and sha256 of a PINNED command run in ``tmp_path``; a
    command that ends in --out writes ``tmp_path / "out"``."""
    argv = []
    for word in command.split():
        if word == "{sparse12}":
            word = str(_sparse_chain_file(tmp_path))
        elif word == "{thirds}":
            path = tmp_path / "thirds.json"
            path.write_text(json.dumps([[1/3, 1/3, 1/3], [1/9, 2/3, 2/9],
                                        [1/3, 1/3, 1/3]]))
            word = str(path)
        elif word.startswith("{chain"):
            word = str(_chain_file(tmp_path, int(word[6:-1])))
        argv.append(word)
    out = tmp_path / "out"
    if command.endswith("--out"):
        argv.append(str(out))
    code = run(*argv)
    blob = capsys.readouterr().out.encode()
    if command.endswith("--out"):
        blob += out.read_bytes() + Path(f"{out}.report.txt").read_bytes()
    return code, hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("command", PINNED)
def test_outputs_pinned(command, tmp_path, capsys):
    assert _pinned(command, tmp_path, capsys) == PINNED[command]


# The sha256 of the "postproc 0.2 0.35 single-bit" walk from other seeds,
# keyed by seed: seed 4 starts from machine state 2 with the bit set, seed 6
# from the middle state with the bit drawn clear.
SINGLE_BIT_START_DIGESTS = {
    4: "a5873f17884e1746d9fa76323c4475da59f7efedffffcb9ce54e907cea4209bd",
    6: "58b40ccf3ceb38512cacea09e97fe55c67c643e77da86bab9d53437ff9aefb25",
}


@pytest.mark.parametrize("seed", sorted(SINGLE_BIT_START_DIGESTS))
def test_single_bit_starts_pinned(seed, tmp_path, capsys):
    command = ("simulate --model postproc --algo single-bit --p 0.2 --q 0.35 "
               f"--steps 20000 --seed {seed} --out")
    assert (_pinned(command, tmp_path, capsys)
            == (0, SINGLE_BIT_START_DIGESTS[seed]))


@pytest.mark.parametrize("block", [7, 2])
def test_trajectory_outputs_pinned(block, tmp_path, monkeypatch, capsys):
    """The pinned bytes of the three postproc p=1/9 q=2/3 trajectory runs
    at blocks of 7 and 2 steps, which put thousands of block boundaries
    inside each run."""
    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", block)
    commands = [c for c in PINNED if "--p 1/9 --q 2/3 --steps 20000" in c]
    assert len(commands) == 3
    for command in commands:
        assert _pinned(command, tmp_path, capsys) == PINNED[command], command


def test_ensemble_steps_0_writes_the_start_states(tmp_path, capsys):
    """The pinned --steps 0 ensemble writes its header and one step-0 line
    per sample."""
    command = ("simulate --model custom --algo qi-general --matrix {chain3} "
               "--samples 5000 --steps 0 --seed 5 --out")
    assert _pinned(command, tmp_path, capsys) == PINNED[command]
    lines = (tmp_path / "out").read_text().splitlines()
    assert len(lines) == 1 + 5000 and lines[1].startswith("0,0,")


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


@pytest.mark.parametrize("states, samples, steps, threads", [
    (12, 300, 12, 1),   # two-digit values
    (12, 300, 12, 3),   # five blocks of 60 samples on three lanes
    (3, 3, 101, 1),     # tags of one, two and three digits
    (3, 101, 3, 1),     # samples of one, two and three digits
    (3, 1, 12, 1),
    (12, 12, 0, 1),
    (10, 101, 12, 1),   # the most states whose lines go out as laid out
    (11, 101, 12, 1),   # the fewest whose NUL-led symbols are dropped
    (101, 101, 12, 1),  # three-digit symbol fields
])
def test_ensemble_out_matches_reference(states, samples, steps, threads,
                                        tmp_path, monkeypatch, capsys):
    """The --out CSV is the reference formatting of the values the sampler
    returned, which no pinned digest reaches for 10 or more states.  A row
    of several threads runs blocks of 64 samples at most on that many
    lanes, more than the cores included, and writes the bytes of one
    unsplit block on one thread."""
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
    matrix = _chain_file(tmp_path, states)

    def simulate(threads, out):
        # the verdict is not under test: a few hundred transitions out of a
        # row with a 1e-4 entry can fail the z test by one hit
        assert run("simulate", "--model", "custom", "--algo", "qi-general",
                   "--matrix", str(matrix), "--samples", str(samples),
                   "--steps", str(steps), "--threads", str(threads),
                   "--seed", "7", "--out", str(out)) in (cli.PASS,
                                                         cli.STAT_FAIL)
        return out.read_bytes()

    with monkeypatch.context() as lanes:
        if threads > 1:
            lanes.setattr(samplers, "BLOCK", 64)
            lanes.setattr(samplers, "_usable_cpus", lambda: threads)
        written = simulate(threads, tmp_path / "run.csv")
    assert len(seen) == steps + 1
    # the widest symbol occurs, so a symbol field is filled to its width
    assert len(str(max(v.max() for v in seen))) == len(str(states - 1))
    assert written == reference_ensemble_csv(seen)
    if threads > 1:
        assert written == simulate(1, tmp_path / "one.csv")


def test_trajectory_out_matches_reference(tmp_path, monkeypatch, capsys):
    """A 12-symbol baseline trajectory, walked in blocks of 7 steps, is the
    reference formatting of the states the kernel entered, which are its
    symbols."""
    blocks = []

    def recording(*args):
        for states in markov.walk_chain(*args):
            blocks.append(states.copy())
            yield states

    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 7)
    monkeypatch.setattr(cli, "walk_chain", recording)
    out = tmp_path / "traj.txt"
    assert run("simulate", "--model", "custom", "--algo", "baseline",
               "--matrix", str(_chain_file(tmp_path, 12)), "--steps", "100",
               "--seed", "7", "--out", str(out)) in (cli.PASS, cli.STAT_FAIL)
    symbols = np.concatenate(blocks)
    assert symbols.size == 100 and symbols.max() >= 10
    assert out.read_bytes() == reference_trajectory_text(symbols.tolist())


def test_trajectory_builds_its_cdfs_once(monkeypatch, capsys):
    """A run walked in 8 blocks builds one CDF per law, not one a block: pi's
    for the start draw, then those of all its states as one 3 x 3 array."""
    built, as_cdf = [], markov.as_cdf

    def counting(weights):
        built.append(weights)
        return as_cdf(weights)

    monkeypatch.setattr(markov, "TRAJECTORY_BLOCK", 7)
    monkeypatch.setattr(markov, "as_cdf", counting)
    assert run("simulate", "--model", "postproc", "--algo", "baseline",
               "--p", "1/9", "--q", "2/3", "--steps", "50", "--seed", "5") == 0
    assert [np.shape(weights) for weights in built] == [(3,), (3, 3)]


@pytest.mark.parametrize("samples", [0, 101])
@pytest.mark.parametrize("n_symbols", [3, 10, 11, 12, 101])
def test_line_writer_remakes_its_buffer_on_a_new_shape(n_symbols, samples):
    """One writer keeps its lines across calls and lays them out anew when
    the line count changes, as on a trajectory's last block, or the tag
    width does, as at steps 10 and 100, also on a return to an earlier
    shape.  Lines carry no prefix, or the ``,{k},`` prefixes of samples 0
    to 100; symbols have one to three digits."""
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
    each call writes a new one, the kept buffer without its NUL bytes.  A
    new tag width always lays out a new buffer."""

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
def test_digits_at_digit_boundaries(samples):
    """Row k is the digits of k, right-aligned and NUL-led to the width of
    the largest number, whose own row has no NUL."""
    width = len(str(samples - 1))
    digits = cli._digits(np.arange(samples), width)
    assert digits.shape == (samples, width) and digits.dtype == np.uint8
    assert ([bytes(row) for row in digits]
            == [str(k).rjust(width, "\0").encode() for k in range(samples)])


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


@pytest.mark.parametrize("algo, flags", [
    ("baseline", ("--steps", "200")),
    ("qi-general", ("--samples", "200", "--steps", "3")),
])
def test_float_verdict_reads_the_chain_array(algo, flags, tmp_path,
                                             monkeypatch, capsys):
    """The verdict of a float --matrix run, trajectory or ensemble, judges
    the counts against the walked chain's own array, not a float copy."""
    chains, laws = [], []
    normalized, compare = cli.normalized_chain, stats.compare_transitions

    def recording_chain(rows):
        chains.append(normalized(rows))
        return chains[-1]

    def recording_law(words, tallies, law, *args):
        laws.append(law)
        return compare(words, tallies, law, *args)

    monkeypatch.setattr(cli, "normalized_chain", recording_chain)
    monkeypatch.setattr(stats, "compare_transitions", recording_law)
    assert run("simulate", "--model", "custom", "--algo", algo, *flags,
               "--matrix", str(_chain_file(tmp_path, 12)),
               "--seed", "1") in (cli.PASS, cli.STAT_FAIL)
    (chain,), (law,) = chains, laws
    assert law.dtype == np.float64
    assert np.shares_memory(law, chain.array)


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
    [0.5, 0.5],
], ids=["non-square", "ragged", "empty", "null-entry", "bad-rational",
        "bool-entries", "bool-among-rationals", "float-among-rationals",
        "int-too-large-for-float", "entry-above-one", "rational-above-one",
        "rows-not-lists"])
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
    # no path at all: the config finder leaves it to the full parse
    assert run("memory-curve", "--config") == 2


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


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    """--help is a successful run: usage on stdout, nothing on stderr."""
    assert run(*argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: ") and err == ""
    assert " ".join(argv[:-1]) in out.splitlines()[0]


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
    """Both models chain their step; postproc without --q is refused."""
    assert run("bp-verify", "--model", "coin", "--p", "0.3",
               "--steps", "2") == 0
    assert run("bp-verify", "--model", "postproc", "--p", "0.3",
               "--q", "0.5", "--steps", "2") == 0
    fields = dict(line.split("=", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert fields["passed"] == "true"
    assert float(fields["state2_message_dev"]) < 1e-12
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
    """Steps whose register would pass bp.MAX_QUBITS are refused before any
    graph is built, as each qubit doubles the width of the dense gates: a
    model with a ancillas per step runs at most (MAX_QUBITS - 1) // a."""
    built = []

    def no_graph(*args):
        built.append(args)
        raise ValueError("graph built")

    monkeypatch.setattr(bp, "protocol_graph", no_graph)
    for model, cap in (("coin", 10), ("postproc", 5)):
        ancillas = len(quantum.PROTOCOL_STEPS[model].ancillas)
        assert cap == (bp.MAX_QUBITS - 1) // ancillas
        q = 0.5 if model == "postproc" else None
        bias = ("--p", "0.3") + (("--q", "0.5") if q else ())
        for steps in (str(cap + 1), "1000", "0"):
            assert run("bp-verify", "--model", model, *bias,
                       "--steps", steps) == 2
        assert built == []
        # the limit itself is accepted and reaches the graph
        assert run("bp-verify", "--model", model, *bias,
                   "--steps", str(cap)) == 3
        assert built.pop() == (model, 0.3, q, cap)


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
