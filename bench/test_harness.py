"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

They need neither qimem nor a benchmark run.
"""

import json
from pathlib import Path

import run
import tracing
import workloads


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_calls():
    # cli.main [0, 10] holds samplers.step [1, 4], which holds
    # markov.stationary [2, 3], and then stats.compare [5, 8].
    tracer = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 8, 10))
    root = tracer.enter("cli.main")
    step = tracer.enter("samplers.step")
    inner = tracer.enter("markov.stationary")
    tracer.exit(inner)
    tracer.exit(step)
    cmp_ = tracer.enter("stats.compare")
    tracer.exit(cmp_)
    tracer.exit(root)

    assert [tracer.self_time(i) for i in (root, step, inner, cmp_)] == [4, 2, 1, 3]
    m = tracer.metrics()
    assert m["cli.self_s"] == 4
    assert m["samplers.self_s"] == 2 and m["samplers.step_s"] == 3
    assert m["markov.self_s"] == 1 and m["markov.stationary_s"] == 1
    assert m["stats.self_s"] == 3 and m["stats.compare_s"] == 3
    assert m["trace.self_sum_s"] == tracer.duration(root) == 10
    assert m["cli.commands"] == 1 and m["samplers.step_calls"] == 1
    assert m["samplers.step_p50_ms"] == m["samplers.step_p90_ms"] == 3000


def test_group_counts_only_outermost_span():
    tracer = tracing.Tracer(clock=FakeClock(0, 1, 2, 3))
    outer = tracer.enter("bp.forward_pass")
    inner = tracer.enter("bp.backward_pass")
    tracer.exit(inner)
    tracer.exit(outer)
    assert tracer.metrics()["bp.pass_s"] == 3


def _ops_and_records(tmp_path, stdout="report\n"):
    ops = workloads.general_csv(workloads.DEFAULT_SEED, tmp_path, 2)
    out = Path(ops[0].out)
    out.write_bytes(b"step,sample,value\n0,0,1\n")
    Path(ops[0].out + ".report.txt").write_text(stdout)
    return ops, out


def test_digest_catches_one_flipped_byte(tmp_path):
    ops, out = _ops_and_records(tmp_path)
    pinned = workloads.digest("report\n", ops[0].out)
    golden = {ops[0].name: pinned}
    good = [{"code": 0, "digest": pinned}]
    assert workloads.check(ops, good, workloads.DEFAULT_SEED, golden) == [None]

    data = bytearray(out.read_bytes())
    data[-2] ^= 1
    out.write_bytes(bytes(data))
    flipped = [{"code": 0, "digest": workloads.digest("report\n", ops[0].out)}]
    assert flipped[0]["digest"] != pinned
    reasons = workloads.check(ops, flipped, workloads.DEFAULT_SEED, golden)
    assert reasons[0].startswith("digest")
    # a seeded op at another seed skips the pinned digest but not the exit code
    assert workloads.check(ops, flipped, 7, golden) == [None]
    failed = [{"code": 1, "digest": pinned}]
    assert workloads.check(ops, failed, 7, golden) == ["exit code 1"]


def test_thread_identity_catches_mismatch(tmp_path):
    ops = workloads.coin_ensemble(5, tmp_path, 2)
    assert [op.same_as for op in ops] == [None, "threads-1"]
    same = [{"code": 0, "digest": "a" * 64}, {"code": 0, "digest": "a" * 64}]
    assert workloads.check(ops, same, 5, {}) == [None, None]
    differ = [{"code": 0, "digest": "a" * 64}, {"code": 0, "digest": "b" * 64}]
    assert workloads.check(ops, differ, 5, {}) == [None,
                                                   "bytes differ from threads-1"]


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_golden_covers_every_op(tmp_path):
    golden = workloads.load_golden()
    for name, build in workloads.WORKLOADS.items():
        ops = build(workloads.DEFAULT_SEED, tmp_path, 2)
        assert sorted(golden[name]) == sorted(op.name for op in ops)


def test_overhead_pairs_each_traced_run_with_the_plain_run_before_it():
    layers = dict.fromkeys(run.PER_LAYER, 0.0)
    runs = []
    for plain, traced in ((2.0, 2.1), (3.0, 3.3), (2.5, 2.7)):
        runs.append({"traced": False, "wall_s": plain})
        runs.append({"traced": True, "wall_s": traced,
                     "layers": dict(layers, **{"trace.self_sum_s": traced - 0.01})})
    out = run.layer_summary(runs)
    assert list(out) == list(run.PER_LAYER)
    assert abs(out["trace.overhead_s"]["median"] - 0.2) < 1e-12
    assert out["trace.wall_s"]["median"] == 2.7
    assert abs(out["trace.unattributed_s"]["median"] - 0.01) < 1e-12
