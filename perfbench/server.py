"""Server process of the ``service`` workload.

Builds the live service exactly as ``repro serve`` does without
``--shards``: ``LiveEngineSession(live_scenario(...))`` behind a
``ServiceFrontend`` on a free loopback port, with the configuration in
``service.py``.  Set-up (session and front-end construction up to a
listening socket) runs once untimed, then once timed; the second one serves.
Timings are calibrated by a speedometer ticking in this process (see
``measure.Speedometer``): around the timed set-up, and every
:data:`TICK_EVERY` seconds on the event loop while serving.

Protocol with the benchmark (one JSON object per stdout line):

* ``{"ready": ..., "port": ..., "setup_s": ..., "raw_setup_s": ...,
  "rss_kb": ...}`` once listening;
* after the client's ``shutdown`` request has drained the server, one
  ``{"done": ...}`` line with the final invariant check and, under
  ``--trace 1``, the per-layer metrics.

Run from the repository root: ``python3 perfbench/server.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.service import LiveEngineSession, ServiceFrontend, live_scenario  # noqa: E402
from repro.service import frontend as frontend_module  # noqa: E402
from repro.service.queue import RequestQueue  # noqa: E402

from layers import instrument_engine, layer_metrics  # noqa: E402
from measure import Speedometer, percentile, rss_kb  # noqa: E402
from service import INITIAL_SIZE, MAX_SIZE, SERVER_SEED, TAU  # noqa: E402
from spans import Tracer  # noqa: E402

#: Speedometer ticks just before and just after the timed set-up.
SETUP_TICKS = 3
#: Seconds between ticks while serving; each one holds up the event loop
#: for about 1 ms.
TICK_EVERY = 0.25


def instrument_service(tracer: Tracer, queue_stats: dict) -> None:
    """Wrap the service layer: protocol codec, request queue, session."""
    offered = {}

    def on_offer(args, kwargs, admitted) -> None:
        queue, item = args[0], args[1]
        if admitted:
            offered[id(item)] = time.perf_counter()
            queue_stats["depth_max"] = max(queue_stats.get("depth_max", 0), len(queue))

    def on_drain(args, kwargs, items) -> None:
        now = time.perf_counter()
        for item in items:
            queue_stats["waits"].append(now - offered.pop(id(item), now))
        if items:
            queue_stats["batches"].append(len(items))

    tracer.instrument(frontend_module, "parse_request", "service.parse")
    tracer.instrument(frontend_module, "encode_frame", "service.encode")
    tracer.instrument(RequestQueue, "offer", "service.offer", on_offer)
    tracer.instrument(RequestQueue, "drain", "service.drain", on_drain)
    tracer.instrument(
        LiveEngineSession, "execute", lambda session, frame: f"service.execute.{frame['op']}"
    )


def service_layers(
    tracer: Tracer, counters: dict, queue_stats: dict, requests: int, wall: float, diameter_s: float
) -> dict:
    """Every per-layer metric of the served segment (see ``layers.PER_LAYER``)."""
    waits, batches = queue_stats["waits"], queue_stats["batches"]

    def mean_us(name: str) -> float:
        stats = tracer.stat(name)
        return stats.total * 1e6 / stats.calls if stats.calls else 0.0

    extra = {
        "service.parse_us": mean_us("service.parse"),
        "service.encode_us": mean_us("service.encode"),
        "service.queue_wait_p50_ms": percentile(waits, 0.50) * 1e3,
        "service.queue_wait_p99_ms": percentile(waits, 0.99) * 1e3,
        "service.batch_size": sum(batches) / len(batches),
        "service.queue_depth_max": queue_stats.get("depth_max", 0),
        "network.diameter_s": diameter_s,
    }
    for op in ("sample", "broadcast", "status", "join", "leave"):
        extra[f"service.execute_ms.{op}"] = mean_us(f"service.execute.{op}") / 1e3
    return layer_metrics(tracer, counters, requests, wall, 1, extra)


async def _tick(speed: Speedometer) -> None:
    """Tick the speedometer on the serving event loop, between requests.

    ``perf_counter`` is the system-wide monotonic clock, so the client can
    calibrate each latency by this process's speed at its moment.
    """
    while True:
        speed.tick()
        await asyncio.sleep(speed.every)


async def serve(args) -> dict:
    tracer = Tracer() if args.trace else None
    counters: dict = {}
    queue_stats = {"waits": [], "batches": []}
    if tracer is not None:
        instrument_engine(tracer, counters)
        instrument_service(tracer, queue_stats)
    frontend = None
    # Set up twice and serve from the second: the first pays the lazy
    # imports and first calls, which later set-ups of a server do not.
    for _ in range(2):
        if frontend is not None:
            await frontend.stop()
        gc.collect()
        setup_speed = Speedometer(every=0.0)
        for _ in range(SETUP_TICKS):
            setup_speed.tick()
        clock = time.perf_counter()
        scenario = live_scenario(
            seed=SERVER_SEED, max_size=MAX_SIZE, initial_size=INITIAL_SIZE, tau=TAU
        )
        session = LiveEngineSession(scenario)
        frontend = ServiceFrontend(session, host="127.0.0.1", port=0)
        await frontend.start()
        setup_s = time.perf_counter() - clock
        for _ in range(SETUP_TICKS):
            setup_speed.tick()
    if tracer is not None:
        # Keep set-up spans out of the per-request figures.
        diameter_s = tracer.stat("network.diameter").total / 2
        tracer.stats.clear()
        counters.clear()
    ready = {
        "ready": True,
        "port": frontend.port,
        "setup_s": setup_s / setup_speed.factor(),
        "raw_setup_s": setup_s,
        "rss_kb": rss_kb(os.getpid()),
    }
    print(json.dumps(ready), flush=True)
    started = time.perf_counter()
    speed = Speedometer(every=TICK_EVERY)
    ticker = asyncio.create_task(_tick(speed))
    await frontend.serve_until_shutdown()
    wall = time.perf_counter() - started
    ticker.cancel()
    await asyncio.gather(ticker, return_exceptions=True)
    engine = session.engine
    done = {
        "done": True,
        "invariants_hold": engine.check_invariants(check_honest_majority=False).holds,
        "compromised": len(engine.compromised_clusters()),
        "operations": dict(session.operations),
        "rejected": frontend.queue.rejected,
        "speed": {"stamps": speed.stamps, "samples": speed.samples},
    }
    if tracer is not None:
        tracer.restore()
        requests = sum(session.operations.values())
        done["layers"] = service_layers(tracer, counters, queue_stats, requests, wall, diameter_s)
        done["samples"] = {
            "service.queue_wait_p50_ms": len(queue_stats["waits"]),
            "service.queue_wait_p99_ms": len(queue_stats["waits"]),
            "spans": tracer.span_count,
        }
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=str, default="")
    args = parser.parse_args()
    done = asyncio.run(serve(args))
    print(json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
