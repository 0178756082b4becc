"""Self-tests of the benchmark: oracles, determinism, failure accounting, metric names.

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from eulerbench import oracles, workloads  # noqa: E402
from eulerbench import tracer as tracing  # noqa: E402
from eulermod import congruences  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def low_bits():
    return oracles.LowBits()


def test_oracles_reproduce_known_values():
    zig = oracles.zigzag(12)
    assert oracles.euler_numbers(zig)[10] == -50521
    assert oracles.bernoulli_numbers(zig, 12)[12] == Fraction(-691, 2730)


@pytest.mark.parametrize("n", range(1, 11))
def test_oracles_match_fast_evaluator_below_one_block(n, low_bits):
    for k in range(0, 1 << n, 2):
        want = congruences.euler_mod_2n(k, n)
        assert oracles.euler_mod_2n(k, n) == want
        assert low_bits.residue(k, n) == (want, n)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_plan(name):
    def plan(seed):
        return [(op.kind, op.args) for op in workloads.WORKLOADS[name]().plan(Random(seed))]

    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


def _failure_ratio(workload, ops):
    phase = run.measure(workload, ops, 1e-9)
    return len(phase.failures) / len(phase.latencies)


def test_corrupted_expected_value_counts_as_failure_fastpath():
    w = workloads.Fastpath()
    ops = [op for op in w.plan(Random(3)) if op.kind == "euler-mod2.n10"][:1]
    w.attach_expected(ops)
    w.setup()
    assert _failure_ratio(w, ops) == 0
    value, low, bits = ops[0].expect
    ops[0].expect = ((value + 1) % 1024, (low + 1) % (1 << bits), bits)
    assert _failure_ratio(w, ops) > 0


def test_corrupted_expected_value_counts_as_failure_tables():
    w = workloads.Tables()
    ops = [op for op in w.plan(Random(3)) if op.kind == "build.bernoulli"][:1]
    w.attach_expected(ops)
    w.setup()
    try:
        assert _failure_ratio(w, ops) == 0
        w.bernoulli[100] += 1
        assert _failure_ratio(w, ops) > 0
    finally:
        w.cleanup()


def test_corrupted_expected_value_counts_as_failure_claims():
    w = workloads.Claims()
    ops = [op for op in w.plan(Random(3)) if op.kind == "check.1.1"][:1]
    w.attach_expected(ops)
    w.setup()
    assert _failure_ratio(w, ops) == 0
    records, _ = ops[0].expect
    next(iter(records.values()))["lhs"] += "1"
    assert _failure_ratio(w, ops) > 0


def test_malformed_requests_must_be_rejected():
    assert workloads.check_rejected((2, "", "usage: eulermod\nerror: bad\n")) is None
    assert workloads.check_rejected((0, "5\n", "")) is not None
    assert workloads.check_rejected((2, "", "")) is not None


def test_tail_is_p95_whatever_the_sample_count():
    assert run.tail([float(i) for i in range(1, 101)]) == (95.0, 5)
    assert run.tail([float(i) for i in range(1, 301)]) == (285.0, 15)
    assert run.tail([float(i) for i in range(1, 1001)]) == (950.0, 50)


def test_layer_self_times_are_scaled_per_request():
    tracer = tracing.Tracer()
    bench = tracer.name_id("op.x", "bench")
    kernel = tracer.name_id("congruences.euler_mod_2n", "congruences.kernel")
    for _ in range(2):  # two requests, each with one kernel span inside
        request = tracer.open(bench, "bench")
        tracer.close(tracer.open(kernel, "congruences.kernel"), False)
        tracer.close(request, False)
    tracer.start = array("d", [0.0, 1.0, 10.0, 11.0])
    tracer.end = array("d", [4.0, 3.0, 14.0, 13.0])
    assert tracer.layer_totals([1.0, 1.0])["congruences.kernel"]["self_s"] == 4.0
    scaled = tracer.layer_totals([1.0, 0.5])["congruences.kernel"]
    assert scaled["self_s"] == 2.0 + 1.0 and scaled["entries"] == 2
    assert tracer.inclusive_s("congruences.euler_mod_2n", [1.0, 0.5]) == 3.0


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "fastpath",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
