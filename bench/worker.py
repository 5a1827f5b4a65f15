"""One run of one workload, in a fresh interpreter started by ``run.py``.

Imports ``qimem.cli`` from the checkout's ``src`` directory, records the
monotonic time at which it is ready (the end of set-up), then calls
``cli.main(argv)`` once per command of the workload, timing each call.
Outputs are hashed outside the timed region and deleted.  With
``--trace 1`` the qimem modules are wrapped by ``tracing.install`` first.

The last line of stdout is one JSON object describing the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from qimem import cli  # noqa: E402

READY = time.monotonic()

import workloads  # noqa: E402


def run_ops(ops, tracer=None) -> list[dict]:
    """Call cli.main once per op; an uncaught exception counts as exit -1."""
    main = cli.main if tracer is None else (
        lambda argv: tracer.call("cli.main", cli.main, argv))
    records = []
    for op in ops:
        buf = io.StringIO()
        argv = list(op.argv)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        try:
            digest = workloads.digest(buf.getvalue(), op.out)
        except OSError:
            digest = None
        records.append({"name": op.name, "argv": argv, "code": code,
                        "wall_s": wall, "digest": digest})
        if op.out:
            for path in (op.out, op.out + ".report.txt"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"qimem imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    # run.py deletes the directory once this process has ended.
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(tmp)
    ops = workloads.WORKLOADS[args.workload](args.seed, tmp, args.threads)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = run_ops(ops, tracer)
    result = {"ready": READY, "ops": records,
              "versions": {"python": sys.version.split()[0],
                           "numpy": np.__version__,
                           "blas": _blas(np)}}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


def _blas(np) -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


if __name__ == "__main__":
    sys.exit(main())
