"""Command-line front end.

Subcommands
-----------
memory-curve  CSV of the coin's four memory measures over a p grid.
appendix-a    Exact reroute tables of the worked three-state chain.
simulate      Run a sampler and test its statistics against the exact oracle.
bp-verify     Belief-propagation versus circuit equivalence checks.

Exit codes: 0 pass, 1 statistical or verification failure, 2 usage error,
3 numerical error.  A config file holds the subcommand's flags as a JSON
object: each key is read as ``--key=<value text>`` before the flags on the
command line, so explicit flags win and a value gets the checks of its flag.
Values are strings or numbers, read as their text; a key the subcommand
lacks and a bool, null, list or object value are usage errors.  A ratio
``a/b`` is exact and a decimal a float; a ``--matrix`` with a string entry is
exact.  Runs with the same seed and config produce byte-identical outputs
whatever --threads is set to.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from . import bp, quantum, samplers, stats
from .markov import (EpsilonMachine, TransitionMatrix, as_cdf,
                     coin_mutual_info_bound, induced_chain, machine_from_chain,
                     normalized_chain, perturbed_coin, post_processed_coin,
                     sample_edges, stationary)

PASS, STAT_FAIL, USAGE, NUMERIC = 0, 1, 2, 3
BP_TOL = 1e-10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported like any other usage error
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: a parse
    keeps no state in the parser, so the calls of ``main`` stay independent."""
    parser = _Parser(
        prog="qimem",
        description="memory-frugal samplers with circuit and BP cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output file")
        sp.add_argument("--config", help="JSON file of flag values")

    sp = sub.add_parser("memory-curve",
                        help="coin memory measures on a p grid, as CSV")
    sp.add_argument("--grid", type=int, default=101,
                    help="number of grid points (default %(default)s)")
    common(sp)
    sp.set_defaults(func=cmd_memory_curve)

    sp = sub.add_parser("appendix-a",
                        help="exact save/reroute tables of the worked chain")
    common(sp)
    sp.set_defaults(func=cmd_appendix_a)

    sp = sub.add_parser("simulate", help="sample a model and verify statistics")
    sp.add_argument("--model", required=True,
                    choices=["coin", "postproc", "custom"])
    sp.add_argument("--algo", required=True,
                    choices=["baseline", "quantum", "qi-ensemble",
                             "single-bit", "qi-general"])
    sp.add_argument("--p", help="coin bias (float or rational like 1/9)")
    sp.add_argument("--q", help="post-processing weight")
    sp.add_argument("--matrix", help="JSON transition matrix for --model custom")
    sp.add_argument("--samples", type=int, default=1000,
                    help="ensemble size (default %(default)s)")
    sp.add_argument("--steps", type=int, default=100,
                    help="steps to run (default %(default)s)")
    sp.add_argument("--sigma", type=float, default=5.0,
                    help="z threshold (default %(default)s)")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads (default %(default)s)")
    sp.add_argument("--seed", type=int, required=True, help="RNG seed")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("bp-verify",
                        help="check BP messages and marginals against circuits")
    sp.add_argument("--model", required=True, choices=["coin", "postproc"])
    sp.add_argument("--p", help="coin bias")
    sp.add_argument("--q", help="post-processing weight")
    sp.add_argument("--steps", type=int, default=1,
                    help="chained protocol steps for the coin graph, "
                         f"at most {bp.MAX_COIN_STEPS} (default %(default)s)")
    common(sp)
    sp.set_defaults(func=cmd_bp_verify)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        keys, flags = _load_config(argv[1:])
        args = build_parser().parse_args(argv[:1] + flags + argv[1:])
        for key in keys:
            # argparse would take a prefix such as samp for --samples
            if key == "config" or not hasattr(args, key):
                raise UsageError(
                    f"config key {key!r} is not a flag of {args.command}")
        return args.func(args)
    except SystemExit as exit_:  # --help
        return int(exit_.code or 0)
    except (UsageError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    except (ValueError, ArithmeticError, RuntimeError, MemoryError,
            np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return NUMERIC


def _load_config(argv) -> tuple[list, list[str]]:
    """Keys of the config file that ``--config`` names in a subcommand's
    ``argv``, and the flags they spell: ``--key=<value text>``.  No config
    gives no keys or flags."""
    try:
        path = _config_finder().parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # --config without a value
        return [], []  # the full parse reports it
    if not path:
        return [], []
    try:
        with open(path) as fh:
            config = json.load(fh)
    except ValueError as err:  # not JSON, or not text
        raise UsageError(f"config is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    flags = []
    for key, value in config.items():
        if type(value) not in (str, int, float):  # a bool is no int here
            raise UsageError(f"config {key}={json.dumps(value)} is not a "
                             "string or number")
        flags.append(f"--{key}={value}")
    return list(config), flags


@functools.cache
def _config_finder() -> argparse.ArgumentParser:
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    return finder


def _number(text, name: str):
    """Parse a probability flag: a ``Fraction`` for "a/b", else a float.

    Text that is not a number and values outside [0, 1] are usage errors.
    NaN passes through, so the library rejects it as a numerical error.
    """
    if text is None:
        raise UsageError(f"--{name} is required here")
    try:
        number = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--{name} {text!r} is not a number") from None
    if number < 0 or number > 1:
        raise UsageError(f"--{name} = {text} outside [0, 1]")
    return number


def _refuse_unread(args, *names) -> None:
    """Model flags a run does not read are usage errors, like the flags a
    subcommand does not register."""
    for name in names:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name} is not read by --model {args.model}")


def _write_text(out, text: str) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(path, text: str) -> None:
    """A report goes to stdout, and first to ``path`` when one is given, so
    a report file that cannot be written leaves stdout empty."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ----------------------------------------------------------------- curves

def cmd_memory_curve(args) -> int:
    grid = args.grid
    if grid < 2:
        raise UsageError("--grid must be at least 2")
    rows = ["p,classical_bits,quantum_bits,qi_bits,mutual_info_bound"]
    for i in range(grid):
        p = i / (grid - 1)
        classical = 0.0 if p == 0.5 else 1.0
        rows.append(",".join(repr(v) for v in (
            p, classical, quantum.coin_quantum_memory(p), abs(1.0 - 2.0 * p),
            coin_mutual_info_bound(p))))
    _write_text(args.out, "\n".join(rows) + "\n")
    return PASS


# ------------------------------------------------------------- appendix-a

def _over_common_denominator(values) -> str:
    lcm = math.lcm(*(Fraction(v).denominator for v in values))
    return ",".join(f"{int(v * lcm)}/{lcm}" for v in values)


def cmd_appendix_a(args) -> int:
    p, q = Fraction(1, 9), Fraction(2, 3)
    chain = samplers.three_state_demo_chain(p, q)
    tables = samplers.RerouteTables.from_chain(chain)
    kernel_exact = bool(np.all(samplers.effective_kernel(tables)
                               == chain.array))
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
    _write_report(args.out, "\n".join(lines) + "\n")
    return PASS if kernel_exact else STAT_FAIL


# --------------------------------------------------------------- simulate

def _load_matrix(path) -> TransitionMatrix:
    """The chain of a JSON file of rows, exact when any entry is a string."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as err:  # not JSON, or not text
        raise UsageError(f"matrix file is not valid JSON: {err}") from None
    if (not isinstance(raw, list)
            or any(not isinstance(row, list) for row in raw)):
        raise UsageError("matrix file must be a JSON array of rows")
    if not raw or any(len(row) != len(raw) for row in raw):
        raise UsageError("matrix must be square and non-empty")
    kinds = {type(v) for row in raw for v in row}
    exact = str in kinds
    if kinds <= {int, float}:
        # plain numbers go through one array; the per-entry path below only
        # runs to name a bad entry
        try:
            array = np.array(raw, dtype=float)
        except OverflowError:
            pass
        else:
            if not ((array < 0) | (array > 1)).any():  # NaN passes, as below
                return TransitionMatrix(array)

    def number(v):
        if isinstance(v, bool):
            raise UsageError(f"matrix entry {v!r} is not a number")
        if exact and isinstance(v, float) and not v.is_integer():
            raise UsageError(f"matrix entry {v!r} is a float among "
                             "rational strings; write it as a string")
        try:
            x = Fraction(v) if exact else float(v)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError):
            raise UsageError(f"matrix entry {v!r} is not a number") from None
        if x < 0 or x > 1:  # NaN passes, so the chain rejects it
            raise UsageError(f"matrix entry {v!r} outside [0, 1]")
        return x

    return TransitionMatrix([[number(v) for v in row] for row in raw])


def _stationary_start(chain: TransitionMatrix, rng: np.random.Generator) -> int:
    pi = np.array(stationary(chain), dtype=float)
    return int(np.searchsorted(as_cdf(pi), rng.random(), side="right"))


def _saved_fraction_z(observed: float, expected: float, draws: int) -> float:
    if expected in (0.0, 1.0):
        return 0.0 if observed == expected else float("inf")
    sd = math.sqrt(expected * (1.0 - expected) / draws)
    return (observed - expected) / sd


def cmd_simulate(args) -> int:
    model, algo, seed, out = args.model, args.algo, args.seed, args.out
    samples, steps, sigma, threads = (args.samples, args.steps, args.sigma,
                                      args.threads)
    # the ensemble samplers key their Philox streams with a uint64 seed
    if seed < 0 or (algo in ("qi-ensemble", "qi-general") and seed >= 2 ** 64):
        raise UsageError(f"--seed {seed} out of range")
    if samples < 1 or steps < 0 or threads < 1 or not sigma >= 0:
        raise UsageError("--samples/--steps/--threads/--sigma out of range")

    allowed = {"coin": {"baseline", "quantum", "qi-ensemble", "qi-general"},
               "postproc": {"baseline", "quantum", "single-bit", "qi-general"},
               "custom": {"baseline", "qi-general"}}
    unread = {"coin": ("q", "matrix"), "postproc": ("matrix",),
              "custom": ("p", "q")}
    if algo not in allowed[model]:
        raise UsageError(f"algo {algo} is not defined for model {model}")
    _refuse_unread(args, *unread[model])

    trajectory = algo in ("baseline", "quantum", "single-bit")
    p = q = None
    if model == "custom":
        if not args.matrix:
            raise UsageError("--model custom needs --matrix")
        parsed = _load_matrix(args.matrix)
        chain = normalized_chain(parsed.array)
        # a trajectory walks the entries as parsed, not as normalized
        machine = machine_from_chain(parsed) if trajectory else None
    else:
        p = _number(args.p, "p")
        if model == "coin":
            machine = perturbed_coin(p)
        else:
            q = _number(args.q, "q")
            machine = post_processed_coin(p, q)
        chain = induced_chain(machine)

    # threads is a performance knob with no statistical footprint, so it
    # stays out of the report: outputs are byte-identical whatever its value
    meta = [f"model={model}", f"algo={algo}", f"seed={seed}",
            f"samples={samples}", f"steps={steps}", f"sigma={sigma!r}"]
    if trajectory:
        body, code = _simulate_trajectory(machine, chain, model, algo, p, q,
                                          seed, steps, sigma, out)
    else:
        body, code = _simulate_ensemble(chain, algo, p, seed, samples, steps,
                                        sigma, threads, out)
    _write_report(out and out + ".report.txt", "\n".join(meta) + "\n" + body)
    return code


def _simulate_trajectory(machine: EpsilonMachine, chain, model, algo, p, q,
                         seed, steps, sigma, out):
    rng = np.random.default_rng(seed)
    state = _stationary_start(chain, rng)
    if algo == "quantum":
        machine = quantum.circuit_step_table(model, p, q)
    m = machine.n_symbols
    table = np.arange(m), machine.probs, machine.succ
    if algo == "single-bit":
        table = samplers.single_bit_table(p, q)
        state = samplers.single_bit_start(state, q, rng)
    # Walked in blocks, so neither the draws, the symbols nor the --out text
    # ever hold the whole run; the last h symbols carry each block's first
    # contexts over from the one before.  Only the distinct (h + 1)-symbol
    # words seen are tallied, at most one per step.
    h = max(0, min(2, steps - 1))
    words = tallies = tail = np.empty(0, dtype=np.int64)
    with open(out, "wb") if out else nullcontext() as fh:
        write_lines = _line_writer(fh, m) if fh else None
        for symbols, _ in sample_edges(*table, state, steps, rng):
            if fh:
                write_lines(symbols)
            seq = np.concatenate([tail, symbols])
            new, counts = stats.word_counts(seq, h + 1, m)
            words, at = np.unique(np.concatenate([words, new]),
                                  return_inverse=True)
            # exact: float sums of counts below 2**53
            tallies = np.bincount(at, np.concatenate([tallies, counts])
                                  ).astype(np.int64)
            tail = seq[seq.size - h:]
    law = chain.to_numpy() if h else np.array([stationary(chain)], dtype=float)
    return _verdict(words, tallies, law, sigma, h)


def _simulate_ensemble(chain, algo, p, seed, samples, steps, sigma, threads,
                       out):
    if algo == "qi-ensemble":
        sampler = samplers.CoinEnsemble(p, samples, seed)
    else:
        sampler = samplers.GeneralQISampler(chain, samples, seed)
    # Only the previous values and an n x n count matrix are kept, so memory
    # stays O(samples) whatever the step count; CSV rows go out per step.
    n = chain.n
    counts = np.zeros((n, n), dtype=np.int64)
    prev = sampler.values
    with open(out, "wb") if out else nullcontext() as fh:
        if fh:
            write_lines = _line_writer(fh, n, samples)
            fh.write(b"step,sample,value\n")
            write_lines(prev, "0")
        for t in range(1, steps + 1):
            values = sampler.step(threads=threads)
            counts += stats.transition_counts(prev, values, n)
            prev = values
            if fh:
                write_lines(values, str(t))
    words = np.flatnonzero(counts)
    return _verdict(words, counts.ravel()[words], chain.to_numpy(), sigma, 1,
                    sampler)


def _sample_prefixes(samples: int) -> np.ndarray:
    """The line prefixes ``,{k},`` of samples k < ``samples``, as bytes
    fields whose leading zeros are NUL bytes.  The digits are filled one
    column at a time by integer division, with no Python object per
    sample."""
    width = len(str(samples - 1))
    k = np.arange(samples)
    prefixes = np.zeros((samples, width + 2), dtype=np.uint8)
    prefixes[:, 0] = prefixes[:, -1] = ord(",")
    for c in range(width):
        column = prefixes[:, width - c]
        column[:] = k // 10 ** c % 10 + ord("0")
        if c:
            column[:10 ** c] = 0  # the leading zeros of k < 10**c
    return prefixes.view(f"S{width + 2}")[:, 0]


def _line_writer(fh, n_symbols: int, samples: int = 0):
    """Writer of data-file lines to the binary file ``fh``.

    ``write(values, tag="")`` writes line k as ``f"{tag},{k},{values[k]}\\n"``
    when ``samples`` numbers the lines, each call then writing ``samples``
    lines, and as ``f"{tag}{values[k]}\\n"`` otherwise, for values in
    ``range(n_symbols)``.

    A call that changes the line count or the tag width, as a trajectory's
    last block or ensemble steps 10 and 100 do, builds its lines in a record
    array of NUL-padded bytes fields (tag, sample prefix, symbol), kept with
    its prefixes until the next such change, and drops the NUL bytes, which
    decimal text never holds.  With at most 10 symbols every symbol is one
    digit and a newline, so the next call's bytes sit where this call's do:
    the compacted text is kept with, for each run of lines of one length
    (samples 0 to 9, 10 to 99, ...), strided views of its tag and digit
    bytes, and a call with the same line count and tag width rewrites only
    those.  With more symbols the line lengths follow the values, and every
    call compacts anew.  ``fh.write`` must be done with the buffer it is
    given when it returns, as a file's is: the next call rewrites it.
    """
    symbols = np.array([f"{v}\n".encode() for v in range(n_symbols)])
    # the first line and prefix length of each run: line k's prefix ",{k},"
    # is len(str(k)) + 2 bytes long
    runs_from = [(0, 0)]
    prefixes = np.array([b""])
    if samples:
        runs_from = [(10 ** c if c else 0, c + 3)
                     for c in range(len(str(samples - 1)))]
        prefixes = _sample_prefixes(samples)
    shape = lines = text = runs = None

    def write(values, tag=""):
        nonlocal shape, lines, text, runs
        tag = tag.encode()
        if shape != (values.size, len(tag)):
            shape = values.size, len(tag)
            lines = np.empty(values.size, [("tag", f"S{max(1, len(tag))}"),
                                           ("prefix", prefixes.dtype),
                                           ("symbol", symbols.dtype)])
            lines["prefix"] = prefixes
        elif runs is not None:
            for first, last, tag_columns, digits in runs:
                for column, byte in zip(tag_columns, tag):
                    column[...] = byte
                np.add(values[first:last], ord("0"), out=digits,
                       casting="unsafe")
            fh.write(text)
            return
        lines["tag"] = tag
        lines["symbol"] = symbols[values]
        text = lines.view(np.uint8)
        text = text[text != 0]
        if n_symbols <= 10:
            runs = _line_runs(text, values.size, runs_from, len(tag))
        fh.write(text)

    return write


def _line_runs(text, count: int, runs_from, tag_width: int):
    """``(first, last, tag_columns, digits)`` for each run of lines ``first`` to
    ``last - 1`` of one length in ``text``, ``count`` compacted lines of a
    tag, a prefix and one digit and a newline.  ``runs_from`` gives each
    run's first line and prefix length.  ``tag_columns`` views the run's
    tag bytes as ``tag_width`` uint8 columns and ``digits`` its digits, all
    strided by the line length."""
    runs, offset = [], 0
    ends = [first for first, _ in runs_from[1:]] + [count]
    for (first, prefix_width), last in zip(runs_from, ends):
        length = tag_width + prefix_width + 2
        block = text[offset:offset + (last - first) * length].reshape(-1, length)
        offset += block.size
        runs.append((first, last, block[:, :tag_width].T, block[:, -2]))
    return runs


def _verdict(words, tallies, law, sigma, context, ensemble=None):
    """Report block of every simulate run: the next-symbol test and, for
    an ensemble, its saved fraction per step against the expected one."""
    report = stats.compare_transitions(words, tallies, law, sigma, context)
    if not report.windows:
        return "windows=0\npassed=true\n", PASS
    passed = report.passed
    lines = [f"transitions_max_abs_z={report.max_abs_z!r}",
             f"transitions_max_tv={report.max_tv!r}",
             f"hard_failures={';'.join(report.hard_failures)}"]
    if ensemble is not None:
        saved, samples = ensemble.saved_counts, ensemble.n_samples
        expected = ensemble.expected_saved
        observed = float(np.mean(saved)) / samples
        saved_z = _saved_fraction_z(observed, expected, samples * len(saved))
        passed = passed and abs(saved_z) <= sigma
        lines += [f"saved_fraction_observed={observed!r}",
                  f"saved_fraction_expected={expected!r}",
                  f"saved_z={saved_z!r}"]
    lines += [f"row{c}_max_abs_z={z!r}"
              for c, z in report.row_max_abs_z.items()]
    lines.append(f"passed={'true' if passed else 'false'}")
    return "\n".join(lines) + "\n", PASS if passed else STAT_FAIL


# --------------------------------------------------------------- bp-verify

def cmd_bp_verify(args) -> int:
    model, steps = args.model, args.steps
    p = _number(args.p, "p")
    q = None
    if not 1 <= steps <= bp.MAX_COIN_STEPS:
        raise UsageError(f"--steps must be in 1..{bp.MAX_COIN_STEPS}")
    if model == "postproc":
        q = _number(args.q, "q")
        if steps != 1:
            raise UsageError("--steps applies to the coin graph only")
    else:
        _refuse_unread(args, "q")
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
    _write_report(args.out, "\n".join(lines) + "\n")
    return PASS if passed else STAT_FAIL


def _worst(deviations) -> float:
    """Largest of some scalar deviations.  Unlike ``max``, which drops a NaN
    unless it comes first, any NaN makes the result NaN."""
    return float(np.max(deviations))


def _dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise ``|a - b|``, NaN if any entry is NaN."""
    return float(np.abs(a - b).max())


def _verify_graph(graph, model, p, q, j, steps, lines) -> float:
    init = np.zeros(graph.dims[0])
    init[0] = 1.0
    mu = bp.forward_pass(graph, init)
    nu = bp.backward_pass(graph, init)
    expected = bp.expected_messages(model, p, j, q=q, steps=steps)
    L = graph.n_vars
    # One comparison per kind of deviation, over the arrays of every variable
    # laid end to end; the last forward message is the loop's.  The dense
    # probability matrices come first: the copies are not alive beside them.
    diagonals = np.concatenate([
        bp.diagonal_distribution(bp.probability_matrix(graph, ell))
        for ell in range(L)])
    forward = np.concatenate(mu)
    backward = np.concatenate(nu[:L])
    marginals = np.concatenate([bp.marginal(mu[ell], nu[ell])
                                for ell in range(L)])
    cut = backward.size
    msg_dev = _dev(forward, np.concatenate(expected))
    loop_dev = _dev(forward[cut:], init)
    transpose_dev = _dev(backward, forward[:cut])
    marg_dev = _dev(marginals, diagonals)
    devs = [msg_dev, loop_dev, transpose_dev, marg_dev]
    lines.append(f"state{j}_message_dev={msg_dev!r}")
    lines.append(f"state{j}_loop_dev={loop_dev!r}")
    lines.append(f"state{j}_transpose_dev={transpose_dev!r}")
    lines.append(f"state{j}_marginal_dev={marg_dev!r}")
    # graphs above bp.MAX_ENUM_BITS skip only the brute-force cross-check
    if bp.enumerable(graph):
        enum_marg, _ = bp.brute_marginals(graph)
        devs.append(_dev(marginals, np.concatenate(enum_marg)))
        lines.append(f"state{j}_enumeration_dev={devs[-1]!r}")
    else:
        lines.append(f"state{j}_enumeration_dev=skipped")
    return _worst(devs)


if __name__ == "__main__":
    sys.exit(main())
