"""End-to-end command tests: exit codes, file outputs, determinism.

Every sampling command here runs at a pinned seed, so the statistical
verdicts asserted below are reproducible facts about those runs, not
flaky expectations.
"""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from qimem import bp, cli
from qimem.markov import binary_entropy
from qimem.quantum import coin_quantum_memory

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


def test_trajectory_outputs_pinned(tmp_path, capsys):
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
], ids=["p-above-one", "p-below-zero", "p-not-a-number", "p-zero-denominator",
        "q-above-one", "negative-seed", "seed-above-uint64",
        "bp-verify-zero-steps", "bp-verify-p-not-a-number",
        "memory-curve-seed", "memory-curve-exact", "appendix-a-seed",
        "appendix-a-exact", "bp-verify-seed"])
def test_bad_input_is_usage_error(argv, capsys):
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
], ids=["non-square", "ragged", "empty", "null-entry", "bad-rational",
        "bool-entries", "bool-among-rationals"])
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
    ("bp-verify", {"model": "coin", "p": 0.3, "exact": "False"}),
], ids=["seed-float", "seed-bool", "seed-text", "samples-text",
        "samples-float", "steps-text", "steps-float", "threads-bool",
        "threads-list", "sigma-text", "sigma-bool", "sigma-nan",
        "sigma-negative", "p-bool", "grid-text", "grid-float",
        "bp-verify-steps-text", "bp-verify-steps-bool", "exact-text",
        "exact-int", "exact-null", "bp-verify-exact-text"])
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


def test_config_exact_as_text(tmp_path):
    # a float matrix runs unless exact mode is on, however it is spelled
    matrix = tmp_path / "chain.json"
    matrix.write_text(json.dumps([[0.5, 0.5], [0.25, 0.75]]))
    cfg = tmp_path / "cfg.json"
    for exact, code in (("false", 0), (False, 0), ("true", 2), (True, 2)):
        cfg.write_text(json.dumps({
            "model": "custom", "algo": "qi-general", "matrix": str(matrix),
            "seed": 1, "samples": 100, "steps": 5, "exact": exact}))
        assert run("simulate", "--config", str(cfg)) == code


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run("memory-curve", "--config", str(bad)) == 2
    bad.write_text("{not json")
    assert run("memory-curve", "--config", str(bad)) == 2
    assert run("memory-curve", "--config", str(tmp_path / "missing.json")) == 2


def test_unwritable_out_is_usage_error(tmp_path):
    assert run("memory-curve", "--out", str(tmp_path / "no" / "dir.csv")) == 2


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
