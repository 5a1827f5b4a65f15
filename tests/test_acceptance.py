"""Acceptance battery: one test and one printed verdict per criterion.

Each criterion prints a single ``acceptance N (...): PASS|FAIL`` line
directly to the terminal (bypassing capture) so the verdicts survive a
plain ``pytest -v`` run.  Tolerances and budgets are pinned here and are
not to be loosened: a red criterion is information, not an obstacle.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from qimem import cli
from qimem.markov import (binary_entropy, induced_chain, perturbed_coin,
                          post_processed_coin, statistical_memory, stationary)
from qimem.quantum import (density_spectrum, quantum_statistical_memory,
                           quantum_topological_memory, stationary_density)
from qimem.samplers import RerouteTables, effective_kernel, three_state_demo_chain

from helpers import random_chain, random_machine

DEMO_MATRIX = [["1/3", "1/3", "1/3"],
               ["1/9", "2/3", "2/9"],
               ["1/3", "1/3", "1/3"]]


@contextlib.contextmanager
def verdict(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number} ({name}): PASS")


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def parse_report(text):
    return dict(line.split("=", 1) for line in text.strip().splitlines())


def test_criterion_1_memory_curve(tmp_path, capsys):
    with verdict(capsys, 1, "memory curve"):
        out = tmp_path / "curve.csv"
        t0 = time.perf_counter()
        assert cli.main(["memory-curve", "--out", str(out)]) == 0
        elapsed = time.perf_counter() - t0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["p", "classical_bits", "quantum_bits",
                                       "qi_bits", "mutual_info_bound"]
        assert len(lines) == 102
        for i, line in enumerate(lines[1:]):
            p, classical, quantum, qi, bound = map(float, line.split(","))
            assert p == i / 100
            assert classical == (0.0 if p == 0.5 else 1.0)
            assert qi == abs(1 - 2 * p)
            assert abs(bound - (1 - binary_entropy(p))) < 1e-12
            # independent route: spectrum of the encoded stationary mixture
            weights = (0.5, 0.5) if p in (0.0, 1.0) else None
            rho = stationary_density(perturbed_coin(p), weights=weights)
            assert abs(quantum - quantum_statistical_memory(rho)) < 1e-10
            assert bound <= quantum + 1e-12
            assert quantum <= 1.0 + 1e-12
        assert elapsed < 1.0, f"memory-curve took {elapsed:.3f}s"


def test_criterion_2_exact_tables(tmp_path, capsys):
    with verdict(capsys, 2, "exact reroute tables"):
        t0 = time.perf_counter()
        code, text = run_cli("appendix-a")
        elapsed = time.perf_counter() - t0
        assert code == 0
        fields = parse_report(text)
        assert fields["pi"] == "4/18,9/18,5/18"
        assert fields["delta_0"] == "2/18,-3/18,1/18"
        assert fields["delta_1"] == "-2/18,3/18,-1/18"
        assert fields["delta_2"] == "2/18,-3/18,1/18"
        assert fields["f"] == "1/3,1/2,1/3"
        assert fields["rminus_0"] == "0,1,0"
        assert fields["rminus_1"] == "1,0,2/5"
        assert fields["rminus_2"] == "0,1,0"
        assert fields["rplus_0"] == "2/3,0,1/3"
        assert fields["rplus_1"] == "0,1,0"
        assert fields["rplus_2"] == "2/3,0,1/3"
        assert fields["saved_fraction"] == "5/12"
        assert fields["bits_per_sample"] == "5/6"
        assert fields["kernel_exact"] == "true"
        assert elapsed < 1.0


def test_criterion_3_kernel_theorem(capsys):
    with verdict(capsys, 3, "save/reroute kernel equals the chain"):
        t0 = time.perf_counter()
        demo = three_state_demo_chain(F(1, 9), F(2, 3))
        kernel = effective_kernel(RerouteTables.from_chain(demo))
        assert tuple(tuple(row) for row in kernel) == demo.rows
        rng = np.random.default_rng(20250815)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 7))
            T = random_chain(rng, n)
            K = effective_kernel(RerouteTables.from_chain(T))
            gap = np.abs(np.array(K, dtype=float) - T.to_numpy()).sum(axis=1).max()
            worst = max(worst, float(gap))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-12, f"worst kernel deviation {worst}"
        assert elapsed < 10.0


def test_criterion_4_sampler_statistics(tmp_path, capsys):
    with verdict(capsys, 4, "sampler statistics at pinned seeds"):
        t0 = time.perf_counter()
        for p, seed in (("0.1", "101"), ("0.3", "103"),
                        ("0.75", "107"), ("0.9", "109")):
            code, text = run_cli(
                "simulate", "--model", "coin", "--algo", "qi-ensemble",
                "--p", p, "--samples", "100000", "--steps", "100",
                "--seed", seed)
            assert code == 0, f"p={p}: {text}"
            fields = parse_report(text)
            assert fields["passed"] == "true"
            assert fields["hard_failures"] == ""
            assert float(fields["transitions_max_abs_z"]) <= 5.0
            assert float(fields["transitions_max_tv"]) < 0.005
            assert abs(float(fields["saved_z"])) <= 3.0
            expect = abs(2 * float(p) - 1)
            assert float(fields["saved_fraction_expected"]) == pytest.approx(
                expect, abs=1e-12)
        traj = tmp_path / "bits.txt"
        code, text = run_cli(
            "simulate", "--model", "postproc", "--algo", "single-bit",
            "--p", "1/9", "--q", "2/3", "--seed", "5", "--steps", "1000000",
            "--out", str(traj))
        assert code == 0, text
        fields = parse_report(text)
        assert fields["hard_failures"] == ""
        assert fields["passed"] == "true"
        assert float(fields["transitions_max_abs_z"]) <= 5.0
        symbols = "".join(traj.read_text().split())
        assert len(symbols) == 1000000
        for pair in ("01", "20", "22"):
            assert pair not in symbols
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_bp_circuit_equivalence(capsys):
    with verdict(capsys, 5, "message passing equals the circuits"):
        t0 = time.perf_counter()
        for p in ("0", "0.3", "1/9", "1"):
            code, text = run_cli("bp-verify", "--model", "coin", "--p", p)
            assert code == 0 and float(parse_report(text)["max_deviation"]) < 1e-12
            code, text = run_cli("bp-verify", "--model", "postproc",
                                 "--p", p, "--q", "2/3")
            assert code == 0 and float(parse_report(text)["max_deviation"]) < 1e-12
        code, text = run_cli("bp-verify", "--model", "coin", "--p", "0.3",
                             "--steps", "2")
        assert code == 0 and float(parse_report(text)["max_deviation"]) < 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0


def test_criterion_6_memory_compression(capsys):
    with verdict(capsys, 6, "encoded memory never exceeds classical"):
        t0 = time.perf_counter()
        machine = post_processed_coin(F(1, 9), F(2, 3))
        rho = stationary_density(machine)
        lams = density_spectrum(rho)
        assert (lams > 1e-10).sum() == 2
        assert quantum_topological_memory(rho) == 1.0
        assert quantum_statistical_memory(rho) < statistical_memory(machine)
        rng = np.random.default_rng(4242)
        for _ in range(200):
            m = random_machine(rng, int(rng.integers(2, 6)),
                               int(rng.integers(2, 5)))
            assert quantum_statistical_memory(stationary_density(m)) \
                <= statistical_memory(m) + 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0


def test_criterion_7_thread_count_invisible(tmp_path, capsys):
    with verdict(capsys, 7, "thread count leaves no trace in outputs"):
        matrix = tmp_path / "chain.json"
        matrix.write_text(json.dumps(DEMO_MATRIX))
        general, coin = [], []
        for threads in ("1", "2", "5"):
            out = tmp_path / f"g{threads}.csv"
            assert cli.main(["simulate", "--model", "custom",
                             "--algo", "qi-general", "--matrix", str(matrix),
                             "--samples", "50000", "--steps", "30",
                             "--seed", "123", "--threads", threads,
                             "--out", str(out)]) == 0
            general.append(out.read_bytes()
                           + (tmp_path / f"g{threads}.csv.report.txt").read_bytes())
            out = tmp_path / f"c{threads}.csv"
            assert cli.main(["simulate", "--model", "coin",
                             "--algo", "qi-ensemble", "--p", "0.3",
                             "--samples", "50000", "--steps", "30",
                             "--seed", "321", "--threads", threads,
                             "--out", str(out)]) == 0
            coin.append(out.read_bytes()
                        + (tmp_path / f"c{threads}.csv.report.txt").read_bytes())
        assert general[0] == general[1] == general[2]
        assert coin[0] == coin[1] == coin[2]
