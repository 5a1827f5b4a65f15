"""The three benchmark workloads and the checks on their outputs.

A workload is a fixed list of ``qimem`` commands.  Each command is one
operation: it is run in-process through ``cli.main(argv)`` and its outputs
(captured stdout, plus the ``--out`` file and its report when there is one)
are reduced to one sha256 digest.  The checks here are pure functions of
those per-operation records, so run.py and the self-tests share them.

No workload runs the single-trajectory algorithms (``baseline``,
``quantum``, ``single-bit``).  Their verdict is a binomial z test on
overlapping trigram windows, which ignores the correlation between
neighbouring windows: on postproc p=1/9 q=2/3, z for the gram 000 has a
standard deviation of about 2.1 over 200 seeds, so a correct sampler exits
1 on roughly one seed in a hundred, and a benchmark run at such a seed
would fail every time.  The ensemble tests condition on the source state,
are exactly binomial and do not have this problem.

This module imports nothing from ``qimem``: the run.py process stays free of
the program under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).with_name("golden.json")

DEMO_MATRIX = [["1/3", "1/3", "1/3"],
               ["1/9", "2/3", "2/9"],
               ["1/3", "1/3", "1/3"]]
# Two-state float chain with spectral gap 1e-3: power iteration in
# markov.stationary needs thousands of sweeps to converge on it.
SLOW_MATRIX = [[0.99975, 0.00025], [0.00075, 0.99925]]


@dataclass(frozen=True)
class Op:
    """One command of a workload."""

    name: str            # unique within the workload, keys the golden digest
    argv: tuple          # arguments for cli.main
    out: str | None = None   # --out path, hashed and deleted after the call
    work: int = 0        # samples x steps produced (0 for non-sampling ops)
    seeded: bool = True  # inputs depend on --seed, so digests hold at one seed
    same_as: str | None = None  # op whose bytes this one must reproduce


def _simulate(seed, *flags):
    return ("simulate",) + tuple(flags) + ("--seed", str(seed))


def coin_ensemble(seed: int, tmp: Path, threads: int) -> list[Op]:
    samples, steps = 200_000, 100
    argv = _simulate(seed, "--model", "coin", "--algo", "qi-ensemble",
                     "--p", "0.3", "--samples", str(samples),
                     "--steps", str(steps))
    return [Op("threads-1", argv + ("--threads", "1"), work=samples * steps),
            Op("threads-max", argv + ("--threads", str(threads)),
               work=samples * steps, same_as="threads-1")]


def general_csv(seed: int, tmp: Path, threads: int) -> list[Op]:
    samples, steps = 50_000, 30
    out = str(tmp / "general.csv")
    argv = _simulate(seed, "--model", "custom", "--algo", "qi-general",
                     "--matrix", str(tmp / "demo.json"), "--samples", str(samples),
                     "--steps", str(steps), "--out", out)
    return [Op("qi-general", argv, out=out, work=samples * steps)]


def oracles(seed: int, tmp: Path, threads: int) -> list[Op]:
    ops = []
    for i in range(51):
        p = f"{i}/50"
        for steps in ("1", "2"):
            ops.append(Op(f"bp-coin-s{steps}-{p}",
                          ("bp-verify", "--model", "coin", "--p", p,
                           "--steps", steps), seeded=False))
        ops.append(Op(f"bp-postproc-{p}",
                      ("bp-verify", "--model", "postproc", "--p", p,
                       "--q", "2/3"), seeded=False))
    ops.append(Op("memory-curve", ("memory-curve", "--grid", "1001"),
                  seeded=False))
    ops.append(Op("appendix-a", ("appendix-a",), seeded=False))
    samples, steps = 2000, 20
    ops.append(Op("slow-chain",
                  _simulate(seed, "--model", "custom", "--algo", "qi-general",
                            "--matrix", str(tmp / "slow.json"), "--samples", str(samples),
                            "--steps", str(steps)),
                  work=samples * steps))
    return ops


def write_inputs(tmp: Path) -> None:
    """Write the matrix files the workloads read into ``tmp``."""
    (tmp / "demo.json").write_text(json.dumps(DEMO_MATRIX))
    (tmp / "slow.json").write_text(json.dumps(SLOW_MATRIX))


WORKLOADS = {
    "coin-ensemble": coin_ensemble,
    "general-csv": general_csv,
    "oracles": oracles,
}


def digest(stdout: str, out: str | None) -> str:
    """sha256 over an operation's stdout, then its --out file and report."""
    h = hashlib.sha256(stdout.encode())
    if out:
        for path in (out, out + ".report.txt"):
            h.update(b"\0" + Path(path).name.encode() + b"\0")
            h.update(Path(path).read_bytes())
    return h.hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def check(ops: list[Op], records: list[dict], seed: int,
          golden: dict) -> list[str | None]:
    """Failure reason per operation, or None where it passed.

    ``records[k]`` holds the ``code`` and ``digest`` of ``ops[k]``.  An
    operation fails on a non-zero exit code, on a digest that differs from
    the pinned one (checked only where the inputs are those the digests
    were pinned for), or on bytes that differ from its ``same_as`` twin.
    """
    digests = {op.name: rec["digest"] for op, rec in zip(ops, records)}
    reasons = []
    for op, rec in zip(ops, records):
        reason = None
        if rec["code"] != 0:
            reason = f"exit code {rec['code']}"
        elif op.same_as and rec["digest"] != digests[op.same_as]:
            reason = f"bytes differ from {op.same_as}"
        elif not op.seeded or seed == DEFAULT_SEED:
            pinned = golden.get(op.name)
            if rec["digest"] != pinned:
                reason = f"digest {rec['digest'][:12]} != pinned {str(pinned)[:12]}"
        reasons.append(reason)
    return reasons
