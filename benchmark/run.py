"""Run one eulermod benchmark workload and print its metrics.

    python3 benchmark/run.py --workload fastpath --seed 1 --seconds 30 --trace 0

One closed-loop client: a single process and thread that sends the next
operation only after the previous one returns.  The workload's plan is
generated from the seed, its expected outputs are computed by the
benchmark's own oracles, and the plan is cycled until the operations have
taken ``--seconds`` of measured time.  Every output is checked after its
timer stops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the first
half of the time untraced and the second half with every layer boundary
traced, and prints the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record of the run goes to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from eulerbench import speed  # noqa: E402
from eulerbench import tracer as tracing  # noqa: E402
from eulerbench.workloads import ALL_KINDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
TAIL_PERCENTILE = 95  # fixed, so the tail does not move with the sample count

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_METRICS = {
    "congruences.kernel.calls": "count", "congruences.kernel.self_s": "s",
    "congruences.kernel.terms": "count", "congruences.kernel.errors": "count",
    "congruences.decision.calls": "count", "congruences.decision.self_s": "s",
    "congruences.decision.errors": "count",
    "congruences.checkers.self_s": "s", "congruences.checkers.errors": "count",
    "special.tables.self_s": "s", "special.tables.indices": "count",
    "special.tables.errors": "count",
    "special.cache.save_s": "s", "special.cache.load_s": "s", "special.cache.bytes": "bytes",
    "special.cache.errors": "count",
    "special.polynomials.self_s": "s", "special.polynomials.hit_ratio": "ratio",
    "special.polynomials.errors": "count",
    "special.identities.self_s": "s", "special.identities.errors": "count",
    "exactmath.poly.self_s": "s", "exactmath.poly.compose_calls": "count",
    "exactmath.poly.errors": "count",
    "cli.calls": "count", "cli.self_s": "s", "cli.errors": "count",
    "trace.overhead_ratio": "ratio",
}
for _kind in ALL_KINDS:
    LAYER_METRICS[f"op.{_kind}.count"] = "count"
    LAYER_METRICS[f"op.{_kind}.p50_ms"] = "ms"


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, samples beyond): the TAIL_PERCENTILE latency, by nearest rank."""
    ordered = sorted(latencies)
    rank = max(1, ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Phase:
    """Latencies and failures of one timed loop over the plan."""

    def __init__(self) -> None:
        self.raw: list[float] = []  # wall-clock seconds per operation
        self.references: list[float] = []  # speed.reference() just before each
        self.kinds: list[str] = []
        self.failures: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.raw)

    @property
    def latencies(self) -> list[float]:
        """Per-operation seconds at the reference machine speed."""
        return speed.scale(self.raw, self.references)

    def ops_per_s(self) -> float:
        return len(self.raw) / sum(self.latencies)


def measure(workload, ops, seconds: float, tracer=None) -> Phase:
    """Cycle through ``ops`` until they have taken ``seconds`` of measured time."""
    phase = Phase()
    busy = 0.0
    i = 0
    while busy < seconds or not phase.raw:
        op = ops[i % len(ops)]
        i += 1
        error = None
        phase.references.append(speed.reference(workload.name))
        span = tracer.open(tracer.name_id(f"op.{op.kind}", "bench"), "bench") if tracer else None
        start = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # a raising operation is a failed operation
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(span, error is not None)
        if error is None:
            try:
                error = workload.check(op, result)
            except Exception as exc:
                error = f"output check raised {exc!r}"
        busy += elapsed
        phase.raw.append(elapsed)
        phase.kinds.append(op.kind)
        if error:
            phase.failures.append(f"{' '.join(map(str, op.args))}: {error}")
    return phase


def setup_probe(name: str) -> None:
    """Child mode: time one set-up from a fresh interpreter, before import eulermod.

    The time is scaled to the reference machine speed like every latency.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    WORKLOADS[name]().setup()
    raw = time.perf_counter() - start
    reference = statistics.median(speed.reference(name) for _ in range(2 * speed.WINDOW + 1))
    print(json.dumps({"setup_s": raw * speed.REFERENCE_S / reference, "raw_s": raw}))


def probe_setups(name: str) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--setup-probe"], capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def op_stats(phase: Phase) -> dict[str, float]:
    metrics = {}
    latencies = phase.latencies
    for kind in ALL_KINDS:
        mine = [lat for lat, k in zip(latencies, phase.kinds) if k == kind]
        metrics[f"op.{kind}.count"] = len(mine)
        metrics[f"op.{kind}.p50_ms"] = statistics.median(mine) * 1e3 if mine else 0.0
    return metrics


def layer_metrics(tracer, untraced: Phase, traced: Phase, hits: tuple[int, int]) -> dict:
    """Per-layer metrics; times are scaled to reference speed request by request."""
    factors = speed.factors(traced.references)
    totals = tracer.layer_totals(factors)
    calls, counts = tracer.calls, tracer.counts
    metrics = {}
    for layer, t in totals.items():
        metrics[f"{layer}.errors"] = t["errors"]
        if f"{layer}.self_s" in LAYER_METRICS:
            metrics[f"{layer}.self_s"] = t["self_s"]
    metrics["congruences.kernel.calls"] = totals["congruences.kernel"]["entries"]
    metrics["congruences.kernel.terms"] = counts["congruences.kernel.terms"]
    metrics["congruences.decision.calls"] = calls["congruences.congruent_mod"]
    metrics["special.tables.indices"] = counts["special.tables.indices"]
    metrics["special.cache.save_s"] = tracer.inclusive_s("special.save_tables", factors)
    metrics["special.cache.load_s"] = tracer.inclusive_s("special.load_tables", factors)
    metrics["special.cache.bytes"] = counts["special.cache.bytes"]
    metrics["special.polynomials.hit_ratio"] = hits[0] / sum(hits) if sum(hits) else 0.0
    metrics["exactmath.poly.compose_calls"] = calls["UnivariatePolynomial.compose"]
    metrics["cli.calls"] = totals["cli"]["entries"]
    metrics["trace.overhead_ratio"] = traced.ops_per_s() / untraced.ops_per_s()
    metrics.update(op_stats(untraced))
    return metrics


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "eulermod" / "__init__.py").is_file():
        print(f"no eulermod sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.pop("EULERMOD_CACHE", None)  # the CLI must not load or save a table cache
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    workload = WORKLOADS[args.workload]()
    started = time.perf_counter()
    ops = workload.plan(Random(args.seed))
    workload.attach_expected(ops)
    oracle_s = time.perf_counter() - started

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workload.setup()
    own_setup_s = time.perf_counter() - start
    import eulermod

    if SRC not in Path(eulermod.__file__).resolve().parents:
        print(f"imported eulermod from {eulermod.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "commit": commit(), "plan_ops": len(ops),
              "oracle_s": oracle_s, "own_setup_s": own_setup_s}
    try:
        if args.trace:
            untraced = measure(workload, ops, args.seconds / 2)
            hits_before = tracing.cache_info_totals()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = measure(workload, ops, args.seconds / 2, tracer)
            hits_after = tracing.cache_info_totals()
            hits = (hits_after[0] - hits_before[0], hits_after[1] - hits_before[1])
            phases = [untraced, traced]
            metrics = layer_metrics(tracer, untraced, traced, hits)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}.bin"
            tracer.write(str(spans_path))
            record["spans"] = len(tracer.start)
            units = LAYER_METRICS
        else:
            setups = probe_setups(args.workload)
            phase = measure(workload, ops, args.seconds)
            phases = [phase]
            latencies = phase.latencies
            tail_s, beyond = tail(latencies)
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in setups),
                "ops_per_s": phase.ops_per_s(),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            record.update(setup_samples=setups, tail_percentile=TAIL_PERCENTILE,
                          tail_beyond=beyond, op_stats=op_stats(phase))
            units = END_TO_END
    finally:
        workload.cleanup()

    attempted = sum(len(p.raw) for p in phases)
    failures = [f for p in phases for f in p.failures]
    record.update(samples=attempted, failed=len(failures),
                  failure_ratio=len(failures) / attempted, failures=failures[:20],
                  busy_s=sum(p.busy_s for p in phases), metrics=metrics,
                  reference_ms=statistics.median(r for p in phases for r in p.references) * 1e3,
                  latencies=[[k, raw, ref] for p in phases
                             for k, raw, ref in zip(p.kinds, p.raw, p.references)])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} python {record['python']} "
          f"nproc {record['nproc']} commit {record['commit']}")
    print(f"samples {attempted} ops in {record['busy_s']:.2f} s measured; "
          f"failure_ratio {record['failure_ratio']:g} ({len(failures)} of {attempted})")
    if args.trace:
        print(f"spans {record['spans']}")
    else:
        print(f"setup_s median of {len(setups)} fresh interpreters: "
              + " ".join(f"{p['setup_s']:.4f}" for p in setups))
        print(f"latency_tail_ms is p{TAIL_PERCENTILE} ({beyond} samples beyond it)")
    print(f"times at reference speed: speed.reference() took {record['reference_ms']:.3f} ms "
          f"here against {speed.REFERENCE_S * 1e3:g} ms")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
