"""Spans around calls into the qimem modules, recorded from outside.

``install`` rebinds public attributes of the already-imported ``qimem``
modules to timing wrappers, for the life of the traced process only: the
program's source is untouched.  Each call becomes a span (name, start, end,
parent); spans stay in memory and are reduced to per-layer metrics when the
run ends.  A span's self time is its duration minus its children's.

Two splits cannot be seen from here and stay inside their callers:
Philox generation inside ``samplers.step_s`` (``samplers._uniforms`` is
private) and the history concatenation inside ``cli.self_s``.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import os
import sys
import threading
import time

LAYERS = ("cli", "samplers", "markov", "quantum", "bp", "stats")

# Per-layer time metrics: inclusive time of the named spans, counting a span
# only when no span of the same group encloses it.
GROUPS = {
    "samplers.init_s": ("samplers.init",),
    "samplers.step_s": ("samplers.step",),
    "stats.compare_transitions_s": ("stats.compare_transitions",),
    "stats.compare_s": ("stats.compare",),
    "cli.write_s": ("cli.write",),
    "markov.stationary_s": ("markov.stationary",),
    "quantum.memory_s": ("quantum.coin_quantum_memory",
                         "quantum.stationary_density"),
    "bp.graph_s": ("bp.coin_graph", "bp.postproc_graph",
                   "bp.expected_messages"),
    "bp.pass_s": ("bp.forward_pass", "bp.backward_pass"),
    "bp.enum_s": ("bp.brute_marginals",),
    "bp.probability_matrix_s": ("bp.probability_matrix",),
}
COUNTS = {
    "cli.commands": "cli.main",
    "samplers.step_calls": "samplers.step",
    "markov.stationary_calls": "markov.stationary",
}
# Philox streams read per sample: (at construction, per step).
STREAMS = {"CoinEnsemble": (2, 2), "GeneralQISampler": (2, 4)}


class Tracer:
    """In-memory span recorder for the main thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counters = {"samplers.draws": 0, "stats.windows": 0,
                         "cli.bytes_written": 0}
        self.thread = threading.get_ident()

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        end = self.clock()
        self.ends[idx] = end
        self.stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    def call(self, name: str, fn, *args, **kwargs):
        if threading.get_ident() != self.thread:
            return fn(*args, **kwargs)
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_time(self, idx: int) -> float:
        return self.duration(idx) - self.child_time[idx]

    def _grouped_total(self, members) -> float:
        total = 0.0
        for idx, name in enumerate(self.names):
            if name not in members:
                continue
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] not in members:
                parent = self.parents[parent]
            if parent < 0:
                total += self.duration(idx)
        return total

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        out = {key: self._grouped_total(set(members))
               for key, members in GROUPS.items()}
        for key, name in COUNTS.items():
            out[key] = sum(1 for n in self.names if n == name)
        out.update(self.counters)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for idx, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += self.self_time(idx)
        out["cli.self_s"] = sum(self.self_time(i)
                                for i, n in enumerate(self.names)
                                if n == "cli.main")
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.self_sum_s"] = sum(layer_self.values())
        steps = sorted(self.duration(i) for i, n in enumerate(self.names)
                       if n == "samplers.step")
        out["samplers.step_p50_ms"] = _percentile(steps, 0.5) * 1e3
        out["samplers.step_p90_ms"] = _percentile(steps, 0.9) * 1e3
        return out


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, result)
        return result
    return traced


class _TracedFile:
    """File proxy whose writes and close are ``cli.write`` spans."""

    def __init__(self, tracer: Tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def write(self, text):
        return self._tracer.call("cli.write", self._fh.write, text)

    def writelines(self, lines):
        return self._tracer.call("cli.write", self._fh.writelines, lines)

    def close(self):
        if self._fh.closed:
            return
        self._tracer.call("cli.write", self._fh.close)
        self._tracer.counters["cli.bytes_written"] += os.path.getsize(
            self._fh.name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


def install(tracer: Tracer) -> None:
    """Rebind the public functions of every imported qimem layer, the
    sampler methods named below, and ``open`` inside ``qimem.cli``."""
    from qimem import cli, samplers, stats

    modules = [m for name, m in sys.modules.items()
               if name == "qimem" or name.startswith("qimem.")]
    wrapped = {}
    for layer in LAYERS[1:]:
        module = sys.modules[f"qimem.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                after = None
                if obj is stats.compare:
                    after = _count_windows(tracer)
                wrapped[obj] = _wrap(tracer, f"{layer}.{attr}", obj, after)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    for cls_name, (at_init, per_step) in STREAMS.items():
        cls = getattr(samplers, cls_name)
        cls.__init__ = _wrap(tracer, "samplers.init", cls.__init__,
                             _count_draws(tracer, at_init))
        cls.step = _wrap(tracer, "samplers.step", cls.step,
                         _count_draws(tracer, per_step))
    tables = samplers.RerouteTables
    tables.from_chain = classmethod(_wrap(
        tracer, "samplers.tables", tables.__dict__["from_chain"].__func__))

    def traced_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if any(flag in mode for flag in "wax+"):
            return _TracedFile(tracer, fh)
        return fh

    cli.open = traced_open


def _count_draws(tracer: Tracer, streams: int):
    def after(args, result):
        tracer.counters["samplers.draws"] += args[0].n_samples * streams
    return after


def _count_windows(tracer: Tracer):
    def after(args, result):
        tracer.counters["stats.windows"] += result.windows
    return after
