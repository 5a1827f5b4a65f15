"""Command-line front end.

Subcommands
-----------
memory-curve  CSV of the coin's four memory measures over a p grid.
appendix-a    Exact reroute tables of the worked three-state chain.
simulate      Run a sampler and test its statistics against the exact oracle.
bp-verify     Belief-propagation versus circuit equivalence checks.

Exit codes: 0 pass, 1 statistical or verification failure, 2 usage error,
3 numerical error.  A config file (JSON object keyed by flag name) supplies
defaults; explicit flags always win.  Runs with the same seed and config
produce byte-identical outputs whatever --threads is set to.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from . import bp, quantum, samplers, stats
from .markov import (EpsilonMachine, TransitionMatrix, as_cdf,
                     coin_mutual_info_bound, exact_kgram_distribution,
                     induced_chain, machine_from_chain, perturbed_coin,
                     post_processed_coin, sample_edges, sample_trajectory,
                     stationary)

PASS, STAT_FAIL, USAGE, NUMERIC = 0, 1, 2, 3
BP_TOL = 1e-10


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimem",
        description="memory-frugal samplers with circuit and BP cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, help="RNG seed (required to sample)")
        sp.add_argument("--out", help="output file")
        sp.add_argument("--config", help="JSON file with default flag values")
        sp.add_argument("--exact", action="store_true", default=None,
                        help="exact rational arithmetic where supported")

    sp = sub.add_parser("memory-curve",
                        help="coin memory measures on a p grid, as CSV")
    sp.add_argument("--grid", type=int, help="number of grid points (default 101)")
    common(sp)
    sp.set_defaults(func=cmd_memory_curve)

    sp = sub.add_parser("appendix-a",
                        help="exact save/reroute tables of the worked chain")
    common(sp)
    sp.set_defaults(func=cmd_appendix_a)

    sp = sub.add_parser("simulate", help="sample a model and verify statistics")
    sp.add_argument("--model", choices=["coin", "postproc", "custom"])
    sp.add_argument("--algo", choices=["baseline", "quantum", "qi-ensemble",
                                       "single-bit", "qi-general"])
    sp.add_argument("--p", help="coin bias (float or rational like 1/9)")
    sp.add_argument("--q", help="post-processing weight")
    sp.add_argument("--matrix", help="JSON transition matrix for --model custom")
    sp.add_argument("--samples", type=int, help="ensemble size (default 1000)")
    sp.add_argument("--steps", type=int, help="steps to run (default 100)")
    sp.add_argument("--sigma", type=float, help="z threshold (default 5)")
    sp.add_argument("--threads", type=int, help="worker threads (default 1)")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("bp-verify",
                        help="check BP messages and marginals against circuits")
    sp.add_argument("--model", choices=["coin", "postproc"])
    sp.add_argument("--p", help="coin bias")
    sp.add_argument("--q", help="post-processing weight")
    sp.add_argument("--steps", type=int,
                    help="chained protocol steps for the coin graph (default 1)")
    common(sp)
    sp.set_defaults(func=cmd_bp_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (UsageError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    except (ValueError, ArithmeticError, RuntimeError,
            np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return NUMERIC


def _load_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as err:
        raise UsageError(f"config is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    return config


def _merged(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    return value


def _integer(value, name: str) -> int:
    """A count or seed from a flag or the config: an int or integer text.
    Anything else, a float or a JSON true included, is a usage error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"--{name} {value!r} is not an integer")


def _real(value, name: str) -> float:
    """A real number from a flag or the config: a number or numeric text.
    Anything else, a JSON true included, is a usage error."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise UsageError(f"--{name} {value!r} is not a number")


def _exact(args, config) -> bool:
    """Exact mode from --exact or the config: a bool or the text "true" or
    "false".  Anything else is a usage error."""
    value = _merged(args, config, "exact", False)
    if isinstance(value, bool):
        return value
    if value in ("true", "false"):
        return value == "true"
    raise UsageError(f"--exact {value!r} is not true or false")


def _number(value, exact: bool, name: str):
    """Parse a probability flag; "a/b" strings force exact mode.

    Text that is not a number and values outside [0, 1] are usage errors.
    NaN passes through, so the library rejects it as a numerical error.
    """
    if value is None:
        raise UsageError(f"--{name} is required here")
    text = str(value)
    if exact or "/" in text:
        try:
            number = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--{name} {text!r} is not a number") from None
    else:
        number = _real(value, name)
    if number < 0 or number > 1:
        raise UsageError(f"--{name} = {text} outside [0, 1]")
    return number


def _write_text(out, text: str) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- curves

def cmd_memory_curve(args, config) -> int:
    grid = _integer(_merged(args, config, "grid", 101), "grid")
    if grid < 2:
        raise UsageError("--grid must be at least 2")
    rows = ["p,classical_bits,quantum_bits,qi_bits,mutual_info_bound"]
    for i in range(grid):
        p = i / (grid - 1)
        classical = 0.0 if p == 0.5 else 1.0
        rows.append(",".join(repr(v) for v in (
            p, classical, quantum.coin_quantum_memory(p), abs(1.0 - 2.0 * p),
            coin_mutual_info_bound(p))))
    _write_text(_merged(args, config, "out"), "\n".join(rows) + "\n")
    return PASS


# ------------------------------------------------------------- appendix-a

def _over_common_denominator(values) -> str:
    lcm = math.lcm(*(Fraction(v).denominator for v in values))
    return ",".join(f"{int(v * lcm)}/{lcm}" for v in values)


def cmd_appendix_a(args, config) -> int:
    p, q = Fraction(1, 9), Fraction(2, 3)
    chain = samplers.three_state_demo_chain(p, q)
    tables = samplers.RerouteTables.from_chain(chain)
    kernel = samplers.effective_kernel(tables)
    kernel_exact = all(kernel[j][i] == chain[j][i]
                       for j in range(3) for i in range(3))
    fraction, bits = samplers.expected_memory(tables)
    lines = [f"chain_p={p}", f"chain_q={q}",
             f"pi={_over_common_denominator(tables.pi)}"]
    lines += [f"delta_{j}={_over_common_denominator(tables.delta[j])}"
              for j in range(3)]
    lines.append("f=" + ",".join(str(v) for v in tables.f))
    lines += [f"rminus_{j}=" + ",".join(str(v) for v in tables.rminus[j])
              for j in range(3)]
    lines += [f"rplus_{j}=" + ",".join(str(v) for v in tables.rplus[j])
              for j in range(3)]
    lines += [f"saved_fraction={fraction}", f"bits_per_sample={bits}",
              f"kernel_exact={'true' if kernel_exact else 'false'}"]
    text = "\n".join(lines) + "\n"
    out = _merged(args, config, "out")
    _write_text(out, text)
    if out:
        sys.stdout.write(text)
    return PASS if kernel_exact else STAT_FAIL


# --------------------------------------------------------------- simulate

def _load_matrix(path, exact: bool) -> TransitionMatrix:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise UsageError(f"matrix file is not valid JSON: {err}") from None
    if (not isinstance(raw, list)
            or any(not isinstance(row, list) for row in raw)):
        raise UsageError("matrix file must be a JSON array of rows")
    if not raw or any(len(row) != len(raw) for row in raw):
        raise UsageError("matrix must be square and non-empty")
    has_strings = any(isinstance(v, str) for row in raw for v in row)
    exact = exact or has_strings
    rows = []
    for row in raw:
        parsed = []
        for v in row:
            if isinstance(v, bool):
                raise UsageError(f"matrix entry {v!r} is not a number")
            if exact and isinstance(v, float) and not v.is_integer():
                raise UsageError(
                    "exact mode needs rational strings, not floats")
            try:
                parsed.append(Fraction(v) if exact else float(v))
            except (ValueError, TypeError, ZeroDivisionError):
                raise UsageError(
                    f"matrix entry {v!r} is not a number") from None
        rows.append(parsed)
    return TransitionMatrix(rows)


def _stationary_start(chain: TransitionMatrix, rng: np.random.Generator) -> int:
    return int(np.searchsorted(as_cdf(stationary(chain)), rng.random(),
                               side="right"))


def _saved_fraction_z(observed: float, expected: float, draws: int) -> float:
    if expected in (0.0, 1.0):
        return 0.0 if observed == expected else float("inf")
    sd = math.sqrt(expected * (1.0 - expected) / draws)
    return (observed - expected) / sd


def cmd_simulate(args, config) -> int:
    exact = _exact(args, config)
    model = _merged(args, config, "model")
    algo = _merged(args, config, "algo")
    if model is None or algo is None:
        raise UsageError("--model and --algo are required")
    seed = _merged(args, config, "seed")
    if seed is None:
        raise UsageError("--seed is required for simulate")
    seed = _integer(seed, "seed")
    # the ensemble samplers key their Philox streams with a uint64 seed
    if seed < 0 or (algo in ("qi-ensemble", "qi-general") and seed >= 2 ** 64):
        raise UsageError(f"--seed {seed} out of range")
    samples = _integer(_merged(args, config, "samples", 1000), "samples")
    steps = _integer(_merged(args, config, "steps", 100), "steps")
    sigma = _real(_merged(args, config, "sigma", 5.0), "sigma")
    threads = _integer(_merged(args, config, "threads", 1), "threads")
    out = _merged(args, config, "out")
    if samples < 1 or steps < 0 or threads < 1 or not sigma >= 0:
        raise UsageError("--samples/--steps/--threads/--sigma out of range")

    allowed = {"coin": {"baseline", "quantum", "qi-ensemble", "qi-general"},
               "postproc": {"baseline", "quantum", "single-bit", "qi-general"},
               "custom": {"baseline", "qi-general"}}
    if algo not in allowed[model]:
        raise UsageError(f"algo {algo} is not defined for model {model}")

    p = q = None
    if model == "coin":
        p = _number(_merged(args, config, "p"), exact, "p")
        machine = perturbed_coin(p)
    elif model == "postproc":
        p = _number(_merged(args, config, "p"), exact, "p")
        q = _number(_merged(args, config, "q"), exact, "q")
        machine = post_processed_coin(p, q)
    else:
        path = _merged(args, config, "matrix")
        if not path:
            raise UsageError("--model custom needs --matrix")
        machine = machine_from_chain(_load_matrix(path, exact))
    chain = induced_chain(machine)

    # threads is a performance knob with no statistical footprint, so it
    # stays out of the report: outputs are byte-identical whatever its value
    meta = [f"model={model}", f"algo={algo}", f"seed={seed}",
            f"samples={samples}", f"steps={steps}", f"sigma={sigma!r}"]
    if algo in ("baseline", "quantum", "single-bit"):
        body, code = _simulate_trajectory(machine, chain, model, algo, p, q,
                                          seed, steps, sigma, out)
    else:
        body, code = _simulate_ensemble(machine, chain, algo, p, seed, samples,
                                        steps, sigma, threads, out)
    report = "\n".join(meta) + "\n" + body
    sys.stdout.write(report)
    if out:
        with open(out + ".report.txt", "w", newline="") as fh:
            fh.write(report)
    return code


def _simulate_trajectory(machine: EpsilonMachine, chain, model, algo, p, q,
                         seed, steps, sigma, out):
    rng = np.random.default_rng(seed)
    start = _stationary_start(chain, rng)
    if algo == "baseline":
        traj = sample_trajectory(machine, start, steps, rng)
    elif algo == "quantum":
        table = quantum.circuit_step_table(model, p, q)
        traj, _ = sample_edges(table, start, steps, rng)
    else:
        traj = samplers.StochasticBitMachine(p, q, start, rng).run(steps)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write("".join(f"{x}\n" for x in traj))
    if steps == 0:
        return "windows=0\npassed=true\n", PASS
    k = 3 if steps >= 3 else 1
    counts = stats.count_kgrams(traj, k, machine.symbols)
    oracle = exact_kgram_distribution(machine, k)
    report = stats.compare(counts, oracle, sigma)
    return (f"kgram={k}\n" + report.to_text(),
            PASS if report.passed else STAT_FAIL)


def _simulate_ensemble(machine: EpsilonMachine, chain, algo, p, seed, samples,
                       steps, sigma, threads, out):
    if algo == "qi-ensemble":
        sampler = samplers.CoinEnsemble(p, samples, seed)
        expected_saved = abs(2.0 * float(p) - 1.0)
    else:
        sampler = samplers.GeneralQISampler(chain, samples, seed)
        expected_saved = float(samplers.expected_memory(sampler.tables)[0])
    # Only the previous values and an n x n count matrix are kept, so memory
    # stays O(samples) whatever the step count; CSV rows go out per step.
    n = chain.n
    counts = np.zeros((n, n), dtype=np.int64)
    prev = sampler.values
    with open(out, "w", newline="") if out else nullcontext() as fh:
        if fh:
            column = [f",{i}," for i in range(samples)]
            symbol = [f"{v}\n" for v in range(n)]

            def write_step(t, values):
                tag = str(t)
                fh.write(tag + tag.join(map(str.__add__, column, map(
                    symbol.__getitem__, values.tolist()))))

            fh.write("step,sample,value\n")
            write_step(0, prev)
        for t in range(1, steps + 1):
            values = sampler.step(threads=threads)
            counts += stats.transition_counts(prev, values, n)
            prev = values
            if fh:
                write_step(t, values)
    if steps == 0:
        return "windows=0\npassed=true\n", PASS
    reports, max_tv = stats.compare_transitions(counts, chain, sigma)
    observed = float(np.mean(sampler.saved_counts)) / samples
    saved_z = _saved_fraction_z(observed, expected_saved,
                                samples * len(sampler.saved_counts))
    max_z = max(rep.max_abs_z for rep in reports.values())
    hard = [g for rep in reports.values() for g in rep.hard_failures]
    passed = (not hard and max_z <= sigma and abs(saved_z) <= sigma)
    lines = [f"transitions_max_abs_z={max_z!r}",
             f"transitions_max_tv={max_tv!r}",
             f"hard_failures={';'.join(hard)}",
             f"saved_fraction_observed={observed!r}",
             f"saved_fraction_expected={expected_saved!r}",
             f"saved_z={saved_z!r}"]
    lines += [f"row{j}_max_abs_z={reports[j].max_abs_z!r}"
              for j in sorted(reports)]
    lines.append(f"passed={'true' if passed else 'false'}")
    return "\n".join(lines) + "\n", PASS if passed else STAT_FAIL


# --------------------------------------------------------------- bp-verify

def cmd_bp_verify(args, config) -> int:
    exact = _exact(args, config)
    model = _merged(args, config, "model")
    if model is None:
        raise UsageError("--model is required")
    p = _number(_merged(args, config, "p"), exact, "p")
    q = None
    steps = _integer(_merged(args, config, "steps", 1), "steps")
    if steps < 1:
        raise UsageError("--steps must be at least 1")
    if model == "postproc":
        q = _number(_merged(args, config, "q"), exact, "q")
        if steps != 1:
            raise UsageError("--steps applies to the coin graph only")
    lines = []
    devs = []
    states = (0, 1) if model == "coin" else (0, 1, 2)
    for j in states:
        if model == "coin":
            graph = bp.coin_graph(p, j, steps)
        else:
            graph = bp.postproc_graph(p, q, j)
        devs.append(_verify_graph(graph, model, p, q, j, steps, lines))
    worst = _worst(devs)
    lines.append(f"max_deviation={worst!r}")
    passed = worst < BP_TOL
    lines.append(f"passed={'true' if passed else 'false'}")
    text = "\n".join(lines) + "\n"
    out = _merged(args, config, "out")
    _write_text(out, text)
    if out:
        sys.stdout.write(text)
    return PASS if passed else STAT_FAIL


def _worst(deviations) -> float:
    """Largest of some deviations (scalars or arrays).  Unlike ``max``,
    which drops a NaN unless it comes first, any NaN makes the result NaN."""
    return float(np.max([np.max(d) for d in deviations]))


def _verify_graph(graph, model, p, q, j, steps, lines) -> float:
    init = np.zeros(graph.dims[0])
    init[0] = 1.0
    mu = bp.forward_pass(graph, init)
    nu = bp.backward_pass(graph, init)
    expected = bp.expected_messages(model, p, j, q=q, steps=steps)
    L = graph.n_vars
    msg_dev = _worst(np.abs(mu[ell].values - expected[ell])
                     for ell in range(L + 1))
    loop_dev = _worst([np.abs(mu[L].values - init)])
    transpose_dev = _worst(np.abs(nu[ell].values - mu[ell].values)
                           for ell in range(L))
    marg_dev = _worst(
        np.abs(bp.marginal(mu[ell], nu[ell])
               - bp.diagonal_distribution(bp.probability_matrix(graph, ell)))
        for ell in range(L))
    enum_marg, _ = bp.brute_marginals(graph)
    enum_dev = _worst(np.abs(bp.marginal(mu[ell], nu[ell]) - m)
                      for ell, m in enumerate(enum_marg))
    dev = _worst([msg_dev, loop_dev, transpose_dev, marg_dev, enum_dev])
    lines.append(f"state{j}_message_dev={msg_dev!r}")
    lines.append(f"state{j}_loop_dev={loop_dev!r}")
    lines.append(f"state{j}_transpose_dev={transpose_dev!r}")
    lines.append(f"state{j}_marginal_dev={marg_dev!r}")
    lines.append(f"state{j}_enumeration_dev={enum_dev!r}")
    return dev


if __name__ == "__main__":
    sys.exit(main())
