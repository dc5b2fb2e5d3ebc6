"""The ``service`` workload: an open-loop client against a server process.

The server (``server.py``) is a separate process; this process is the one
client.  It sends a Poisson schedule at ``RATE`` requests/second over
``CONNECTIONS`` connections, each request at its due time whether or not
earlier ones were answered (open loop).  Latency is timed from the
request's *due* time, not from the moment it actually went out, so a
sender that falls behind cannot hide queueing (coordinated omission); the
sender's own lateness is reported as ``loadgen.lag_p99_ms``.  Percentiles
come from the full list of per-request latencies of each phase (see
:func:`run_service`), with every failed, refused or unanswered request
entered as infinitely late; ``p50_ms``/``p99_ms`` are medians over phases.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.service.protocol import encode_frame
from repro.workloads.arrivals import Arrival

from measure import Speedometer, cpu_seconds, median, percentile, rss_kb

RATE = 400.0
CONNECTIONS = 2
#: The served engine: N, n and tau of the batch workloads.
MAX_SIZE = 4096
INITIAL_SIZE = 600
TAU = 0.05
#: Every run serves the same engine (``repro serve --seed 1``); ``--seed``
#: seeds the request schedule, as the batch workloads seed their streams.
SERVER_SEED = 1
#: Read-heavy mix: the engine's read path beside ``churn``'s writes.
MIX = {"sample": 0.88, "broadcast": 0.05, "status": 0.02, "join": 0.025, "leave": 0.025}
#: How long answers may trail the last due time before they count as missing.
RESPONSE_GRACE_S = 15.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_EXIT_TIMEOUT_S = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))


#: Requests per block that carries exactly one join and one leave.
CHURN_BLOCK = 40
#: Fresh servers per untraced run, each serving ``seconds / PHASES``.
PHASES = 4


def poisson_schedule(seed: int, seconds: float) -> List[Arrival]:
    """Poisson arrival times at :data:`RATE` carrying the :data:`MIX` shares.

    The times are Poisson.  The operations are not independent draws, as in
    ``repro.workloads.arrivals.PoissonArrivals``: each block of
    :data:`CHURN_BLOCK` requests holds exactly one join and one leave at
    random places, and the reads are the mix's exact counts in random
    order.  Leaves (~15 ms each) set the tail: with independent draws their
    count varies by +-7% between seeds and their clumps (two leaves within
    one leave's duration) by far more, which moved the p99 by 48% from
    seed to seed.  Joins equal leaves, so n stays put.
    """
    rng = random.Random(seed)
    times: List[float] = []
    clock = rng.expovariate(RATE)
    while clock < seconds:
        times.append(clock)
        clock += rng.expovariate(RATE)
    blocks = len(times) // CHURN_BLOCK
    reads = [op for op in ("broadcast", "status") for _ in range(round(MIX[op] * len(times)))]
    reads += ["sample"] * (len(times) - 2 * blocks - len(reads))
    rng.shuffle(reads)
    ops: List[str] = []
    for block in range(blocks):
        chunk = ["join", "leave"] + reads[block * (CHURN_BLOCK - 2):(block + 1) * (CHURN_BLOCK - 2)]
        rng.shuffle(chunk)
        ops += chunk
    ops += reads[blocks * (CHURN_BLOCK - 2):]
    return [Arrival(at=at, op=op) for at, op in zip(times, ops)]


class _Server:
    """The server process and its line-oriented stdout."""

    def __init__(self, root: str, traced: bool, spans_out: str) -> None:
        command = [
            sys.executable,
            os.path.join(HERE, "server.py"),
            "--trace", "1" if traced else "0",
        ]
        if spans_out:
            command += ["--spans-out", spans_out]
        self.process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)

    def read_json(self, key: str, timeout: float) -> Optional[Dict]:
        """The next stdout line carrying ``key`` (None on timeout or exit)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self._selector.select(timeout=max(0.0, deadline - time.monotonic())):
                continue
            line = self.process.stdout.readline()
            if not line:
                return None
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, dict) and key in message:
                return message
        return None

    def stop(self) -> int:
        """Wait for the server to exit (killing it if it hangs); its exit code."""
        try:
            return self.process.wait(timeout=SERVER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -9
        finally:
            self._selector.close()
            self.process.stdout.close()


async def _drive(port: int, schedule: List[Arrival], process: subprocess.Popen) -> Dict:
    """Send the schedule open-loop; collect answers, lateness and server CPU/RSS.

    One sender walks the whole schedule, writing request ``i`` on connection
    ``i % CONNECTIONS``.  It sleeps until each due time: spinning instead
    takes a whole CPU from a 2-CPU machine and made the server's latencies
    far noisier.
    """
    connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    count = len(schedule)
    sent: List[Optional[float]] = [None] * count
    answered: List[Optional[float]] = [None] * count
    responses: List[Optional[Dict]] = [None] * count
    unmatched = 0
    perf = time.perf_counter
    pid = process.pid
    cpu0 = cpu_seconds(pid)
    start = perf() + 0.05

    async def send() -> None:
        writers = [writer for _, writer in connections]
        for index, arrival in enumerate(schedule):
            delay = start + arrival.at - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[index] = perf()
            frame = {"op": arrival.op, "id": f"r{index}"}
            if arrival.op == "broadcast":
                frame["payload"] = f"bench-{index}"
            writers[index % CONNECTIONS].write(encode_frame(frame))
        for writer in writers:
            await writer.drain()

    async def receive(expected: int, reader) -> None:
        nonlocal unmatched
        while expected:
            line = await reader.readline()
            if not line:
                return
            now = perf()
            response = json.loads(line)
            request_id = response.get("id")
            index = int(request_id[1:]) if isinstance(request_id, str) and request_id[1:].isdigit() else -1
            if not 0 <= index < count or responses[index] is not None:
                unmatched += 1
                continue
            responses[index] = response
            answered[index] = now
            expected -= 1

    sender = asyncio.create_task(send())
    receivers = [
        receive(len(range(lane, count, CONNECTIONS)), reader)
        for lane, (reader, _) in enumerate(connections)
    ]
    deadline = start + (schedule[-1].at if schedule else 0.0) + RESPONSE_GRACE_S
    try:
        await asyncio.wait_for(asyncio.gather(*receivers), timeout=max(1.0, deadline - perf()))
    except asyncio.TimeoutError:
        pass
    await sender
    cpu1, rss1, cpu_end = cpu_seconds(pid), rss_kb(pid), perf()

    # Close the other connections first and let the server see them go, so
    # that shutdown finds only the connection that asked for it.
    for _, writer in connections[1:]:
        writer.close()
        await writer.wait_closed()
    await asyncio.sleep(0.2)
    reader, writer = connections[0]
    writer.write(encode_frame({"op": "shutdown", "id": "shutdown"}))
    await writer.drain()
    await reader.readline()
    exit_deadline = perf() + SERVER_EXIT_TIMEOUT_S
    while process.poll() is None and perf() < exit_deadline:
        await asyncio.sleep(0.05)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return {
        "start": start,
        "sent": sent,
        "answered": answered,
        "responses": responses,
        "unmatched": unmatched,
        "cpu": cpu1 - cpu0,
        "cpu_end": cpu_end,
        "rss_kb": rss1,
    }


def _phase(root: str, seed: int, seconds: float, traced: bool, spans_out: str = "") -> Dict:
    """Start a server, drive one schedule at it, stop it."""
    schedule = poisson_schedule(seed, seconds)
    server = _Server(root, traced, spans_out)
    try:
        ready = server.read_json("ready", SERVER_START_TIMEOUT_S)
        if ready is None:
            raise RuntimeError("server did not become ready")
        run = asyncio.run(_drive(ready["port"], schedule, server.process))
        done = server.read_json("done", SERVER_EXIT_TIMEOUT_S)
    finally:
        exit_code = server.stop()
    done = done or {}
    speed = Speedometer()
    speed.stamps = done.get("speed", {}).get("stamps", [])
    speed.samples = done.get("speed", {}).get("samples", [])
    # Server CPU over the load, without the speedometer's own ticks.
    cpu = run["cpu"] - sum(
        took
        for stamp, took in zip(speed.stamps, speed.samples)
        if run["start"] <= stamp <= run["cpu_end"]
    )
    run.update(schedule=schedule, ready=ready, done=done, exit_code=exit_code, speed=speed, cpu=cpu)
    return run


def _tally(run: Dict) -> Dict:
    """Counts, calibrated latencies and lateness of one served schedule."""
    schedule, start = run["schedule"], run["start"]
    speed = run["speed"]
    tally = {
        "latencies": [], "lags": [], "ok": 0, "failed": 0, "overloaded": 0, "missing": 0,
        "messages": 0, "rounds": 0, "last_answer": start,
    }
    latencies = tally["latencies"]
    for index, arrival in enumerate(schedule):
        due = start + arrival.at
        if run["sent"][index] is not None:
            tally["lags"].append(run["sent"][index] - due)
        response = run["responses"][index]
        if response is None:
            tally["missing"] += 1
            latencies.append(float("inf"))
        elif not response.get("ok"):
            tally["overloaded" if response.get("error") == "overloaded" else "failed"] += 1
            latencies.append(float("inf"))
        else:
            tally["ok"] += 1
            answered = run["answered"][index]
            # Calibrated by the server's speed when it was answered.
            latencies.append((answered - due) / speed.factor_at(answered))
            tally["last_answer"] = max(tally["last_answer"], answered)
            result = response.get("result", {})
            tally["messages"] += result.get("messages", 0)
            tally["rounds"] += result.get("rounds", 0)
    return tally


def _summarise(runs: List[Dict]) -> Dict:
    """End-to-end metrics, sample counts and checks over served phases."""
    tallies = [_tally(run) for run in runs]

    def total(key: str) -> int:
        return sum(tally[key] for tally in tallies)

    sent = sum(len(run["schedule"]) for run in runs)
    ok, errors = total("ok"), total("failed") + total("missing") + total("overloaded")
    served = sum(tally["last_answer"] - run["start"] for tally, run in zip(tallies, runs))
    lags = [lag for tally in tallies for lag in tally["lags"]]
    metrics = {
        # The offered load (RATE) while the server keeps up: it tells
        # whether the server kept up, not how fast it is.
        "events_per_s": ok / served if served > 0 else 0.0,
        "setup_s": median([run["ready"]["setup_s"] for run in runs]),
        "messages_per_event": total("messages") / max(1, ok),
        "rounds_per_event": total("rounds") / max(1, ok),
        "mem_kb_per_op": median(
            [(run["rss_kb"] - run["ready"]["rss_kb"]) / len(run["schedule"]) for run in runs]
        ),
        "cpu_ms_per_op": sum(
            run["cpu"] / run["speed"].factor_between(run["start"], run["cpu_end"]) for run in runs
        ) * 1e3 / sent,
        "p50_ms": median([percentile(tally["latencies"], 0.50) for tally in tallies]) * 1e3,
        "p99_ms": median([percentile(tally["latencies"], 0.99) for tally in tallies]) * 1e3,
        "failed_share": errors / sent,
    }
    dones = [run["done"] for run in runs]
    checks = {
        "no_failed_or_missing_request": errors == 0,
        "every_response_id_matched": all(run["unmatched"] == 0 for run in runs),
        "server_exit_ok": all(run["exit_code"] == 0 and run["done"] for run in runs),
        "structural_invariants_hold": all(done.get("invariants_hold") for done in dones),
    }
    counts = [len(tally["latencies"]) for tally in tallies]
    samples = {
        "p50_ms": counts,
        "p99_ms": counts,
        "loadgen.lag_p99_ms": len(lags),
        "compromised_at_end": [done.get("compromised") for done in dones],
        "speed_factor": [run["speed"].factor() for run in runs],
        "raw": {
            "setup_s": median([run["ready"]["raw_setup_s"] for run in runs]),
            "cpu_ms_per_op": sum(run["cpu"] for run in runs) * 1e3 / sent,
        },
    }
    return {
        "metrics": metrics,
        "samples": samples,
        "checks": checks,
        "attempted": sent,
        "failed": errors,
        "lag_p99_ms": percentile(lags, 0.99) * 1e3 if lags else 0.0,
    }


def run_service(root: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Dict:
    """Run the service workload.

    The untraced form serves :data:`PHASES` schedules of ``seconds /
    PHASES`` each (phase ``p`` seeded ``seed * 100 + p``), each against a
    freshly started server: on one long-lived engine the cost of a leave
    drifts upward as cluster sizes spread (see ``batch.py``).  p50 and p99
    are medians over the phases.  The traced form serves one untraced and
    one traced phase of the same schedule, half the time each, for the
    tracing overhead.
    """
    if not traced:
        phase_seconds = seconds / PHASES
        return _summarise(
            [_phase(root, seed * 100 + phase, phase_seconds, traced=False) for phase in range(PHASES)]
        )
    spans_out = os.path.join(out_dir, f"service-{seed}-spans.jsonl")
    plain = _summarise([_phase(root, seed, seconds / 2, traced=False)])
    traced_run = _phase(root, seed, seconds / 2, traced=True, spans_out=spans_out)
    summary = _summarise([traced_run])
    layers = dict(traced_run["done"].get("layers", {}))
    layers["loadgen.lag_p99_ms"] = summary["lag_p99_ms"]
    layers["bench.trace_overhead"] = (
        summary["metrics"]["cpu_ms_per_op"] / plain["metrics"]["cpu_ms_per_op"] - 1.0
    )
    checks = {f"untraced.{k}": v for k, v in plain["checks"].items()}
    checks.update(summary["checks"])
    checks["layers_reported"] = bool(traced_run["done"].get("layers"))
    samples = dict(summary["samples"])
    samples.update(traced_run["done"].get("samples", {}))
    return {
        "metrics": layers,
        "samples": samples,
        "checks": checks,
        "attempted": plain["attempted"] + summary["attempted"],
        "failed": plain["failed"] + summary["failed"],
    }
