"""One benchmark for the NOW stack: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps each layer's public
functions in spans and reports the per-layer metrics and the tracing
overhead.  The output is a table of every metric by name and unit, one
``record`` line (the full result: metrics, sample counts, correctness checks,
seed and machine fingerprint), and, last, the one-line JSON summary.  The
exit code is 0 when every correctness check passed, 1 when one failed, and
2 when the benchmark cannot run at all (no ``src/repro`` next to it).

Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("churn", "churn-walks", "churn-sharded", "service")

#: name -> unit of the end-to-end metrics in the untraced run's summary.
END_TO_END = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "messages_per_event": "count",
    "rounds_per_event": "count",
    "cpu_ms_per_op": "ms",
}
#: Printed and recorded with them, but kept out of the summary line, which
#: holds only figures steady enough to gate on (README: End-to-end metrics).
#: ``failed_share`` is 0 on every correct run (a failed request already
#: fails the run).  ``mem_kb_per_op`` is ~0 on ``service``: a server grows
#: by a fixed 16-32 KB per phase whatever its length.  The service's
#: latency percentiles spread by 0.17 (p50) and 0.25 (p99) over ten runs,
#: too close to the largest bound a metric may have (0.25) to gate on.
REPORTED_ONLY = {"mem_kb_per_op": "KB", "p50_ms": "ms", "p99_ms": "ms", "failed_share": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="NOW stack benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)

    from layers import PER_LAYER, dominant_layer
    from measure import fingerprint

    traced = bool(args.trace)
    if args.workload == "service":
        from service import run_service

        outcome = run_service(ROOT, args.seed, args.seconds, traced, out_dir)
    else:
        from batch import run_batch

        outcome = run_batch(args.workload, args.seed, args.seconds, traced, out_dir)

    units = dict(PER_LAYER) if traced else dict(END_TO_END)
    shown = dict(units) if traced else {**units, **REPORTED_ONLY}
    values = outcome["metrics"]
    for name, unit in shown.items():
        print(f"{args.workload:<14} {name:<38} {values[name]:>16.6g} {unit}")
    checks = outcome["checks"]
    for name, passed in checks.items():
        print(f"{args.workload:<14} check {name:<32} {'ok' if passed else 'FAILED'}")
    correct = all(checks.values())
    record = {
        "schema": "perfbench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(ROOT),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in shown.items()},
        "samples": outcome["samples"],
        "checks": checks,
    }
    if traced:
        record["dominant_layer"] = dominant_layer(values)
    print("record " + json.dumps(record, sort_keys=True))
    summary = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome.get("failed", 0)),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
