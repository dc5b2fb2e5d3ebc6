"""Run-to-run spread of the end-to-end metrics, the way the bounds are judged.

Runs ``run.py`` once per seed on each named workload and prints, per
metric, the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread under a third of the
bound is the target.  Metrics the run records but ``BENCHMARK.json`` does
not gate (``p50_ms``, ``p99_ms``, ...) are shown too, without a bound.
Seeds whose run fails a correctness check are named; their figures count.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads churn service --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from measure import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        durations = []
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            began = time.monotonic()
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            durations.append(time.monotonic() - began)
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failed = [line for line in completed.stdout.splitlines() if line.endswith("FAILED")]
                print(f"{workload} seed {seed}: exit {completed.returncode}, correct=false: "
                      + "; ".join(" ".join(line.split()[2:-1]) for line in failed))
            record = next(line for line in completed.stdout.splitlines() if line.startswith("record "))
            for name, metric in json.loads(record[len("record "):])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            spread = quartile_spread(series)
            line = f"{workload:<14} {name:<20} median {statistics.median(series):>14.6g} spread {spread:7.4f}"
            if name in bounds:
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
                line += f" bound {bounds[name]:.3f} {'ok' if spread < bounds[name] / 3 else 'WIDE'}"
            print(line)
        print(f"{workload:<14} values " + json.dumps(values))
        print(f"{workload:<14} run seconds: max {max(durations):.1f}, mean {statistics.mean(durations):.1f}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
