"""Run a workload over several seeds and report each metric's median and spread.

    python3 benchmark/repeat.py --workload claims --seeds 1-10 --seconds 30

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each end-to-end metric's ``bound`` in BENCHMARK.json is set against.
Prints one JSON object with every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        done = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"],
                              capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                          for k, v in result["metrics"].items()),
              file=sys.stderr)
    names = runs[0]["metrics"]
    print(json.dumps({
        "workload": args.workload, "seconds": args.seconds,
        "summary": {name: summarize([r["metrics"][name]["value"] for r in runs])
                    for name in names},
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
