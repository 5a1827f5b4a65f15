"""qimem benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``, nothing is installed.  Workloads are defined in ``workloads.py``:
``coin-ensemble``, ``general-csv`` and ``oracles``.

Each run of the workload is one fresh Python process (``worker.py``) that
imports ``qimem.cli`` and calls ``cli.main(argv)`` in-process for every
command.  Runs repeat, one at a time, for about ``--seconds`` (at least
``MIN_RUNS``), and every metric is the median over runs:

- ``wall_s``       total ``cli.main`` time of a run, the time to a verified result
- ``setup_s``      process start until ``qimem.cli`` is imported and ready
- ``cpu_s``        user plus system CPU time of the run process (``os.wait4``)
- ``peak_rss_mb``  maximum resident set size of the run process (``os.wait4``)
- ``steps_per_s``  samples x steps produced per second of ``wall_s``

Also printed and recorded, but not part of the JSON line: ``thread_speedup``
(wall time at ``--threads 1`` over wall time at ``--threads`` = nproc,
capped at 2; ``coin-ensemble`` only) and ``fail_ratio``, which the JSON line
carries as ``failed`` over ``attempted``.  Each command is one operation; it
fails on a non-zero exit code, on output bytes that differ from the digest
pinned in ``golden.json``, or, on ``coin-ensemble``, on bytes that differ
between the two thread counts.

With ``--trace 1`` runs alternate between plain and traced processes; the
JSON line then carries the per-layer metrics of ``tracing.py`` (medians over
traced runs) plus ``trace.overhead_s``, traced minus plain ``wall_s`` over
consecutive pairs of runs.

The last line of stdout is the JSON result.  The full record (environment,
every command's argv, every run) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_RUNS = 3          # per kind of run (plain, traced)
MAX_LOOP_S = 120.0    # start no new run after this long
RUN_TIMEOUT_S = 150.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "steps_per_s": "1/s"}
PER_LAYER = {
    "cli.commands": "count", "cli.self_s": "s", "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "samplers.init_s": "s", "samplers.step_s": "s",
    "samplers.step_calls": "count", "samplers.step_p50_ms": "ms",
    "samplers.step_p90_ms": "ms", "samplers.draws": "count",
    "samplers.self_s": "s",
    "markov.stationary_s": "s", "markov.stationary_calls": "count",
    "markov.self_s": "s",
    "quantum.memory_s": "s", "quantum.self_s": "s",
    "bp.graph_s": "s", "bp.pass_s": "s", "bp.enum_s": "s",
    "bp.probability_matrix_s": "s", "bp.self_s": "s",
    "stats.compare_transitions_s": "s", "stats.compare_s": "s",
    "stats.windows": "count", "stats.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
NOT_TRACED = ("Philox generation stays inside samplers.step_s "
              "(samplers._uniforms is private); the history concatenation "
              "stays inside cli.self_s.")


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for key in THREAD_ENV:
        env.setdefault(key, "1")
    return env


def spawn(args, threads: int, traced: bool, number: int, env: dict) -> dict:
    """Start one worker, wait for it, and return its record."""
    tmp = RESULTS / f"tmp-{os.getpid()}-{number}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(threads), "--tmp", str(tmp),
           "--trace", str(int(traced))]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["traced"] = traced
    record["setup_s"] = record.pop("ready") - start
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return record


def summarize_run(record: dict, ops, seed: int, golden: dict) -> None:
    """Add wall_s, steps_per_s, thread_speedup and failures to a record."""
    recs = record["ops"]
    reasons = workloads.check(ops, recs, seed, golden)
    for rec, reason in zip(recs, reasons):
        rec["failure"] = reason
    walls = {op.name: rec["wall_s"] for op, rec in zip(ops, recs)}
    record["wall_s"] = sum(walls.values())
    record["steps_per_s"] = sum(op.work for op in ops) / record["wall_s"]
    pairs = [(op.same_as, op.name) for op in ops if op.same_as]
    if pairs:
        base, twin = pairs[0]
        record["thread_speedup"] = walls[base] / walls[twin]


def stats_of(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def environment(threads: int, env: dict, versions: dict) -> dict:
    return {
        "versions": versions,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "thread_env": {key: env.get(key) for key in THREAD_ENV},
        "threads": threads,
        "git_commit": _git_commit(),
        "output_dir": str(RESULTS.relative_to(ROOT)),
        "output_fs": _fs_type(RESULTS),
        "argv": sys.argv,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _fs_type(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path``, from mountinfo."""
    target = str(path.resolve())
    best, fstype = "", None
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = (target == mount
                          or target.startswith(mount.rstrip("/") + "/"))
                if inside and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except (OSError, IndexError):
        return None
    return fstype


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="'all' runs every workload in turn, each "
                             "printing its own report and JSON line")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind through spawn() so the running worker is killed
    # and reaped instead of left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "qimem" / "cli.py").is_file():
        print(f"no qimem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    if args.workload != "all":
        return measure(args)
    return max(measure(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in workloads.WORKLOADS)


def measure(args) -> int:
    """Run one workload for about args.seconds and report it."""
    golden = workloads.load_golden().get(args.workload, {})
    threads = min(2, nproc())
    env = child_env()
    kinds = (False, True) if args.trace else (False,)

    # Start another run while it is likely to end before the deadline.
    started = time.monotonic()
    deadline = started + args.seconds
    runs, last = [], 0.0
    try:
        while (len(runs) < MIN_RUNS * len(kinds)
               or time.monotonic() + last / 2 < deadline):
            if time.monotonic() - started > MAX_LOOP_S:
                break
            traced = kinds[len(runs) % len(kinds)]
            t0 = time.monotonic()
            runs.append(spawn(args, threads, traced, len(runs), env))
            last = time.monotonic() - t0
    except BenchError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1
    return report(args, runs, threads, env, golden)


def report(args, runs, threads, env, golden) -> int:
    ops = workloads.WORKLOADS[args.workload](args.seed, RESULTS, threads)
    for record in runs:
        summarize_run(record, ops, args.seed, golden)
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = sum(len(r["ops"]) for r in runs)
    failures = [(op["name"], op["failure"]) for r in runs for op in r["ops"]
                if op["failure"]]
    summary = {name: dict(stats_of(r[name] for r in plain), unit=unit)
               for name, unit in END_TO_END.items()}
    if "thread_speedup" in plain[0]:
        summary["thread_speedup"] = dict(
            stats_of(r["thread_speedup"] for r in plain), unit="x")
    layers = layer_summary(runs) if traced else {}

    setting = environment(threads, env, runs[0]["versions"])
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": setting,
        "commands": [op["argv"] for op in runs[0]["ops"]],
        "summary": summary, "fail_ratio": len(failures) / attempted,
        "layers": layers, "not_traced": NOT_TRACED, "failures": failures,
        "runs": [{k: v for k, v in r.items() if k != "versions"}
                 for r in runs],
    }, indent=1))

    print(f"qimem bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} plain + {len(traced)} traced runs, threads={threads}, "
          f"--out on {setting['output_fs']}")
    print(f"  {'fail_ratio':30s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} operations)")
    for name, st in {**summary, **layers}.items():
        print(f"  {name:30s} {st['median']:14.6g} {st['unit']:6s} "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}")
    for name, reason in failures[:10]:
        print(f"  FAILED {name}: {reason}", file=sys.stderr)
    if traced:
        unattributed = abs(layers["trace.unattributed_s"]["median"])
        within = unattributed <= abs(layers["trace.overhead_s"]["median"])
        print(f"  layer self times sum to traced wall_s within the tracing "
              f"overhead: {'yes' if within else 'no'}")
        print(f"  not traced: {NOT_TRACED}")
    print(f"  record: {path.relative_to(ROOT)}")

    table, units = (layers, PER_LAYER) if args.trace else (summary, END_TO_END)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": table[name]["median"], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def layer_summary(runs: list[dict]) -> dict:
    """Per-layer medians over traced runs, in PER_LAYER order.

    Runs alternate plain, traced; the tracing overhead is the median of
    traced minus plain wall_s over those pairs, which cancels slow drift
    in machine speed better than a difference of medians.
    """
    traced = [r for r in runs if r["traced"]]
    for r in traced:
        r["layers"]["trace.wall_s"] = r["wall_s"]
        r["layers"]["trace.unattributed_s"] = (
            r["wall_s"] - r["layers"]["trace.self_sum_s"])
    layers = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            pairs = zip(runs[0::2], runs[1::2])
            values = [t["wall_s"] - p["wall_s"] for p, t in pairs]
        else:
            values = [r["layers"][name] for r in traced]
        layers[name] = dict(stats_of(values), unit=unit)
    return layers


if __name__ == "__main__":
    sys.exit(main())
