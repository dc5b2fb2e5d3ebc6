"""The three batch workloads: ``churn``, ``churn-walks`` and ``churn-sharded``.

A run is a fixed number of *repetitions*, scaled to ``--seconds``.  Each
repetition bootstraps the same engine (timed as set-up), seeds its event
stream from the run's seed and its own index, applies a warm-up, then a
fixed number of measured events.  Short repetitions on fresh engines keep
runs comparable: on one long-lived engine the cost per event keeps rising
(cluster sizes spread and clusters merge), from ~120M messages per event
over the first 200 events to 140-190M after 1600.

The first repetition is then run again up to a check point, and must reach
the same state hash with the same message and round counts.  Exact counts
are totals over the repetitions; timings are medians of calibrated
per-repetition figures (``measure.Speedometer``).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from typing import Dict, List, Optional

from repro.core.engine import NowEngine
from repro.core.events import ChurnEvent, ChurnKind
from repro.scenarios import Scenario
from repro.scenarios.probes import Probe
from repro.scenarios.scenario import WORKLOAD_KINDS
from repro.shard.coordinator import DEFAULT_BARRIER_INTERVAL, ShardCoordinator
from repro.shard.merge import ObservationMerger
from repro.shard.router import EventRouter
from repro.shard.worker import ProcessTransport
from repro.trace.log import TraceReader, TraceWriter
from repro.workloads.churn import UniformChurn

from layers import instrument_engine, instrument_runner, layer_metrics
from measure import Speedometer, cpu_seconds, median, percentile, rss_kb, trimmed_mean
from spans import Tracer

#: Name-space size N and the bootstrap population n of the churn workloads
#: (ROADMAP's reference configuration: N=4096, n~600).  The Byzantine share
#: is 0.05, not the reference 0.15: with the default k=2, clusters hold
#: k log N to 2 k log N = 24-48 nodes, and at 0.15 a few percent of end states
#: hold a cluster at or above 1/3 Byzantine, the rate a uniformly random
#: assignment of roles to clusters of those sizes gives.  At 0.05 that
#: chance is below 1e-4 per end state, so the honest-majority check tests
#: the program, not the luck of the draw (README: Correctness checks).
MAX_SIZE = 4096
INITIAL_SIZE = 600
TAU = 0.05
#: The sharded workload runs twice the population over four logical shards
#: on two worker processes.
SHARDED_INITIAL_SIZE = 1200
SHARDS = 4
SHARD_WORKERS = 2
#: Trace index frame cadence of the recorded sharded run (events).
INDEX_EVERY = 200
#: Every run bootstraps the same engine; ``--seed`` seeds the churn event
#: stream.  Bootstraps differ a lot from seed to seed (cluster count and
#: sizes set the cost of every exchange), so a varying bootstrap would make
#: runs with different seeds measure different systems.
BOOT_SEED = 1

#: (warm-up events, measured events, measured events replayed by the
#: determinism check, seconds one repetition takes) per workload.  Sharded
#: counts are whole 64-event barrier windows.
SIZES = {
    "churn": (50, 300, 60, 2.0),
    "churn-walks": (20, 100, 20, 4.0),
    "churn-sharded": (256, 1280, 256, 3.8),
}


class BalancedChurn(UniformChurn):
    """``UniformChurn`` whose joins and leaves come in pairs of random order.

    Under ``UniformChurn`` the population does a random walk (about +-28
    nodes over 800 events at n=600), and a leave's cost grows steeply with
    n: at n=544 a leave cost 201M messages, at n=628 277M.  Runs with
    different seeds would then measure different populations.  Pairing
    keeps n within one node of its start; the mix stays 50/50, the order
    random, the leaving node uniform, and the join role Byzantine with
    probability tau.
    """

    def __init__(self, rng, byzantine_join_fraction: Optional[float] = None) -> None:
        super().__init__(rng, byzantine_join_fraction=byzantine_join_fraction)
        self._pending: List[str] = []

    def next_event(self, engine) -> ChurnEvent:
        if not self._pending:
            self._pending = ["join", "leave"] if self._rng.random() < 0.5 else ["leave", "join"]
        if self._pending.pop(0) == "join":
            fraction = self._byzantine_join_fraction
            return ChurnEvent.join(
                role=self._join_role(engine.parameters.tau if fraction is None else fraction)
            )
        return ChurnEvent.leave(self._random_active_node(engine))

    def _snapshot_extra(self) -> dict:
        return {"pending": list(self._pending)}

    def _restore_extra(self, extra: dict) -> None:
        self._pending = list(extra.get("pending", []))


def churn_scenario(seed: int, walks: bool) -> Scenario:
    options = {"walk_mode": "simulated", "walk_kernel": "array"} if walks else {}
    return Scenario(
        name="churn-walks" if walks else "churn",
        max_size=MAX_SIZE,
        initial_size=INITIAL_SIZE,
        tau=TAU,
        seed=seed,
        workload={"kind": "balanced"},
        engine_options=options,
    )


def sharded_scenario(seed: int) -> Scenario:
    return Scenario(
        name="churn-sharded",
        max_size=MAX_SIZE,
        initial_size=SHARDED_INITIAL_SIZE,
        tau=TAU,
        seed=seed,
        shards=SHARDS,
        workload={"kind": "balanced"},
    )


def _stream(scenario: Scenario, engine) -> dict:
    """The event-source state of ``scenario``'s seed.

    Runs build everything from :data:`BOOT_SEED`, then restore this state
    into their event source (the source's own checkpoint interface) before
    the first event, so only the event stream follows ``--seed``.
    """
    return scenario.build_source(engine).snapshot_state()


# ----------------------------------------------------------------------
# Single-engine churn
# ----------------------------------------------------------------------
def churn_rep(
    seed: int,
    walks: bool,
    warmup: int,
    events: int,
    check_at: int,
    tracer: Optional[Tracer] = None,
) -> Dict:
    """One repetition on the single engine; ``tracer`` wraps the layers.

    After ``check_at`` measured events the state hash and the message and
    round counts so far are taken (outside the timed part) as ``prefix``.
    """
    speed = Speedometer()
    counters: Dict[str, float] = {}
    times: List[float] = []
    ends: List[float] = []
    leaves: List[bool] = []
    mark = [0.0]
    base: Dict[str, int] = {}
    prefix: List = []
    perf = time.perf_counter

    def on_event(engine, report, step):
        # A stop condition that never stops: it sees every event as it ends.
        now = perf()
        times.append(now - mark[0])
        ends.append(now)
        leaves.append(report.event.kind is ChurnKind.LEAVE)
        if base and len(times) == check_at:
            totals = engine.metrics.total()
            prefix.extend(
                [engine.state_hash(), totals.messages - base["messages"], totals.rounds - base["rounds"]]
            )
        speed.tick()
        mark[0] = perf()
        return None

    if tracer is not None:
        instrument_engine(tracer, counters)
        instrument_runner(tracer, BalancedChurn)
    gc.collect()
    try:
        clock = perf()
        runner = churn_scenario(BOOT_SEED, walks).build_runner(stop_conditions=[on_event])
        setup_end = perf()
        setup = setup_end - clock
        engine = runner.engine
        runner.source.restore_state(_stream(churn_scenario(seed, walks), engine))
        diameter = tracer.stat("network.diameter").total if tracer is not None else 0.0
        mark[0] = perf()
        runner.run(warmup)
        if tracer is not None:
            tracer.stats.clear()
            counters.clear()
        times.clear()
        ends.clear()
        leaves.clear()
        totals = engine.metrics.total()
        base.update(messages=totals.messages, rounds=totals.rounds)
        pid = os.getpid()
        rss0 = rss_kb(pid)
        ticked0 = speed.spent
        cpu0 = time.process_time()
        mark[0] = perf()
        result = runner.run(events)
        cpu = time.process_time() - cpu0 - (speed.spent - ticked0)
        rss = rss_kb(pid) - rss0
    finally:
        if tracer is not None:
            tracer.restore()
    totals = engine.metrics.total()
    calibrated = speed.calibrate(ends, times)
    rep = {
        "raw": {"elapsed": sum(times), "setup_s": setup, "cpu": cpu},
        "setup_s": setup / speed.factor_at(setup_end),
        "elapsed": sum(calibrated),
        "events": result.events,
        "cpu": cpu * sum(calibrated) / sum(times),
        "rss_kb": rss,
        "latencies": [t for t, leave in zip(calibrated, leaves) if leave],
        "messages": totals.messages - base["messages"],
        "rounds": totals.rounds - base["rounds"],
        "final": [engine.state_hash(), totals.messages - base["messages"], totals.rounds - base["rounds"]],
        "prefix": prefix,
        "invariants_hold": engine.check_invariants().holds,
        "compromised": len(result.compromised_clusters),
        "peak_worst": result.peak_worst_fraction,
    }
    if tracer is not None:
        rep["layers"] = layer_metrics(
            tracer,
            counters,
            result.events,
            sum(times),
            setups=1,
            extra={"network.diameter_s": diameter},
        )
    return rep


# ----------------------------------------------------------------------
# Sharded churn with a recorded binary trace
# ----------------------------------------------------------------------
class _WindowProbe(Probe):
    """Buffered probe: message/round sums and the period of each window.

    Attached with a probe buffer equal to the barrier interval, the bus
    delivers once per merged window.  Each delivery also ticks the
    speedometer, whose time is kept out of the window periods.
    """

    inline = False
    name = "perfbench-windows"

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.messages = 0
        self.rounds = 0
        self.periods: List[float] = []
        self.ends: List[float] = []
        #: (messages, rounds) totals after each delivered window.
        self.totals: List[tuple] = []
        self.mark = 0.0

    def on_records(self, engine, records) -> None:
        now = time.perf_counter()
        self.periods.append(now - self.mark)
        self.ends.append(now)
        for record in records:
            self.messages += record.messages
            self.rounds += record.rounds
        self.totals.append((self.messages, self.rounds))
        self.speed.tick()
        self.mark = time.perf_counter()


def _worker_pids() -> List[int]:
    return [process.pid for process in multiprocessing.active_children()]


def _program_cpu(pids: List[int]) -> float:
    return time.process_time() + sum(cpu_seconds(pid) for pid in pids)


def _program_rss(pids: List[int]) -> float:
    return rss_kb(os.getpid()) + sum(rss_kb(pid) for pid in pids)


def _shard_invariants(coordinator) -> bool:
    """``check_invariants()`` of every shard engine, restored from its snapshot."""
    state = coordinator.capture_state()
    return all(
        NowEngine.restore(payload["engine"]).check_invariants().holds
        for payload in state["shards"].values()
    )


def instrument_coordinator(tracer: Tracer) -> None:
    """Wrap the coordinator-side layers: shard, trace, workloads."""
    tracer.instrument(ShardCoordinator, "run", "shard.run")
    tracer.instrument(EventRouter, "route_window", "shard.route")
    tracer.instrument(ObservationMerger, "merge_window", "shard.merge")
    tracer.instrument(ProcessTransport, "recv", "shard.recv")
    tracer.instrument(ShardCoordinator, "state_hash", "trace.index_hash")
    tracer.instrument(TraceWriter, "write_record", "trace.event")
    tracer.instrument(TraceWriter, "write_index_frame", "trace.index")
    tracer.instrument(BalancedChurn, "next_event", "workloads.next_event")


def sharded_rep(
    seed: int,
    path: str,
    warmup: int,
    events: int,
    check_at: int,
    tracer: Optional[Tracer] = None,
) -> Dict:
    """One repetition of the recorded sharded run.

    Set-up mirrors ``repro.shard.session.run_sharded_scenario``: trace
    writer, header, coordinator.  The coordinator bootstraps from
    :data:`BOOT_SEED`; its event source is then moved to the run's seed
    (see :func:`_stream`).  ``prefix`` is the state after ``check_at``
    measured events, read from the trace's index frame there.
    """
    speed = Speedometer()
    perf = time.perf_counter
    gc.collect()
    clock = perf()
    scenario = sharded_scenario(BOOT_SEED)
    writer = TraceWriter(path, index_every=INDEX_EVERY, trace_format="binary")
    writer.write_header(scenario.to_dict(), engine_kind="sharded")
    probe = _WindowProbe(speed)
    try:
        coordinator = ShardCoordinator(
            scenario,
            workers=SHARD_WORKERS,
            probes=[probe],
            probe_buffer=coordinator_window(scenario),
            trace_writer=writer,
        )
    except BaseException:
        writer.close()
        raise
    setup_end = perf()
    setup = setup_end - clock
    try:
        coordinator.source.restore_state(_stream(sharded_scenario(seed), coordinator.facade))
        probe.mark = perf()
        coordinator.run(warmup)
        pids = _worker_pids()
        counters: Dict[str, float] = {}
        if tracer is not None:
            instrument_coordinator(tracer)
        phases0 = dict(coordinator.phase_times)
        handoffs0, barriers0 = coordinator.handoffs_sent, coordinator.barriers_run
        index0 = writer.index_frames_written
        messages0, rounds0 = probe.messages, probe.rounds
        rss0 = _program_rss(pids)
        ticked0 = speed.spent
        cpu0 = _program_cpu(pids)
        probe.periods = []
        probe.ends = []
        probe.totals = []
        started = probe.mark = perf()
        try:
            result = coordinator.run(events)
        finally:
            if tracer is not None:
                tracer.restore()
        ticked = speed.spent - ticked0
        elapsed = perf() - started - ticked
        cpu = _program_cpu(pids) - cpu0 - ticked
        rss = _program_rss(pids) - rss0
        final_hash = coordinator.state_hash()
        writer.close(final_hash=final_hash)
        invariants = _shard_invariants(coordinator)
    finally:
        writer.close()
        coordinator.close()
    reader = TraceReader(path)
    end = reader.end_frame()
    at_check = [frame["h"] for frame in reader.index_frames() if frame["ev"] == warmup + check_at]
    trace_bytes = os.path.getsize(path)
    os.remove(path)
    window = coordinator_window(scenario)
    check_messages, check_rounds = probe.totals[check_at // window - 1]
    windows = len(probe.periods)
    calibrated = speed.calibrate(probe.ends, probe.periods)
    rep = {
        "raw": {"elapsed": elapsed, "setup_s": setup, "cpu": cpu},
        "setup_s": setup / speed.factor_at(setup_end),
        "elapsed": elapsed * sum(calibrated) / sum(probe.periods),
        "events": result.events,
        "cpu": cpu * sum(calibrated) / sum(probe.periods),
        "rss_kb": rss,
        "latencies": calibrated,
        "messages": probe.messages - messages0,
        "rounds": probe.rounds - rounds0,
        "final": [final_hash, probe.messages - messages0, probe.rounds - rounds0],
        "prefix": at_check[:1] + [check_messages - messages0, check_rounds - rounds0],
        "trace_end_matches": end is not None and end.get("h") == final_hash,
        "invariants_hold": invariants,
        "compromised": len(result.compromised_clusters),
        "peak_worst": result.peak_worst_fraction,
    }
    if tracer is not None:
        stat = tracer.stat
        hashing = stat("trace.index_hash")
        hash_waits = hashing.total - hashing.self_time
        index_frames = writer.index_frames_written - index0
        barriers = coordinator.barriers_run - barriers0

        def phase(key: str) -> float:
            return (coordinator.phase_times[key] - phases0[key]) * 1e3 / windows

        extra = {
            "shard.route_ms": stat("shard.route").total * 1e3 / windows,
            "shard.serialize_ms": phase("serialize"),
            "shard.worker_wait_ms": (stat("shard.recv").total - hash_waits) * 1e3 / windows,
            "shard.merge_ms": stat("shard.merge").total * 1e3 / windows,
            "shard.idle_ms": phase("idle"),
            "shard.handoffs_per_barrier": (coordinator.handoffs_sent - handoffs0) / barriers,
            "trace.index_ms": (hashing.total + stat("trace.index").total) * 1e3 / index_frames
            if index_frames
            else 0.0,
            "trace.bytes_per_event": trace_bytes / writer.events_written,
        }
        rep["layers"] = layer_metrics(tracer, counters, result.events, elapsed, 0, extra)
    return rep


def coordinator_window(scenario: Scenario) -> int:
    """Events per barrier window of the sharded scenario."""
    return int(scenario.shard_options.get("barrier_interval", DEFAULT_BARRIER_INTERVAL))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _check_reps(reps: List[Dict], check: Dict, expected: List, checks: Dict[str, bool]) -> None:
    """Every repetition ends sound, and a replayed run agrees exactly.

    Sound: ``check_invariants()`` holds (honest majority included) and no
    cluster is compromised at the last event.  ``check`` re-ran inputs of
    ``reps[0]``; its final state hash, message and round counts must equal
    ``expected``.
    """
    everything = reps + [check]
    checks["invariants_hold"] = all(rep["invariants_hold"] for rep in everything)
    checks["no_compromised_cluster"] = all(rep["compromised"] == 0 for rep in everything)
    checks["replay_matches_state_and_counts"] = check["final"] == expected
    if "trace_end_matches" in check:
        checks["trace_end_hash_matches"] = all(rep["trace_end_matches"] for rep in everything)


def run_batch(workload: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Dict:
    """Run one batch workload; returns metrics, samples and checks.

    Repetition ``r`` seeds its stream with ``seed * 1000 + r``.  Timings are
    calibrated: each event's or window's time is divided by the machine's
    speed factor at that moment (see ``measure.Speedometer``); the raw
    figures are kept in the samples.
    """
    warmup, events, check_at, rep_seconds = SIZES[workload]
    # Scenarios resolve workload kinds through this registry, and the
    # sharded coordinator builds its event source from its scenario.
    WORKLOAD_KINDS.setdefault("balanced", BalancedChurn)

    def rep(index: int, count: int, tracer: Optional[Tracer] = None) -> Dict:
        stream = seed * 1000 + index
        if workload == "churn-sharded":
            path = os.path.join(out_dir, f"churn-sharded-{seed}.trace")
            return sharded_rep(stream, path, warmup, count, check_at, tracer)
        return churn_rep(stream, workload == "churn-walks", warmup, count, check_at, tracer)

    checks: Dict[str, bool] = {}
    if traced:
        # One untraced and one traced repetition of the same inputs: the
        # traced one gives the layers, the pair gives the tracing overhead,
        # and the traced run ending in the untraced one's exact state
        # proves the wrappers do not perturb the engine.
        tracer = Tracer()
        plain = rep(0, events)
        traced_rep = rep(0, events, tracer)
        _check_reps([plain], traced_rep, plain["final"], checks)
        layers = traced_rep["layers"]
        layers["bench.trace_overhead"] = traced_rep["elapsed"] / plain["elapsed"] - 1.0
        tracer.write_spans(os.path.join(out_dir, f"{workload}-{seed}-spans.jsonl"))
        return {
            "metrics": layers,
            "samples": {"spans": tracer.span_count, "spans_kept": len(tracer.spans)},
            "checks": checks,
            "attempted": plain["events"] + traced_rep["events"],
        }

    count = max(2, round(seconds / rep_seconds) - 1)
    reps = [rep(index, events) for index in range(count)]
    check = rep(0, check_at)
    _check_reps(reps, check, reps[0]["prefix"], checks)
    first = reps[0]
    total_events = sum(r["events"] for r in reps)
    # Percentiles per repetition, then their trimmed mean: the tail of the
    # pooled list is decided by whichever repetition had a machine hiccup.
    latency_counts = [len(r["latencies"]) for r in reps]
    metrics = {
        "events_per_s": median([r["events"] / r["elapsed"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps + [check]]),
        "messages_per_event": sum(r["messages"] for r in reps) / total_events,
        "rounds_per_event": sum(r["rounds"] for r in reps) / total_events,
        # The first repetition runs in a fresh process; later ones reuse
        # memory the previous engines freed, which hides growth.
        "mem_kb_per_op": first["rss_kb"] / first["events"],
        "cpu_ms_per_op": median([r["cpu"] * 1e3 / r["events"] for r in reps]),
        "p50_ms": trimmed_mean([percentile(r["latencies"], 0.50) for r in reps]) * 1e3,
        "p99_ms": trimmed_mean([percentile(r["latencies"], 0.99) for r in reps]) * 1e3,
        "failed_share": 0.0,
    }
    samples = {
        "repetitions": count,
        "p50_ms": latency_counts,
        "p99_ms": latency_counts,
        "raw": {
            "events_per_s": median([r["events"] / r["raw"]["elapsed"] for r in reps]),
            "setup_s": median([r["raw"]["setup_s"] for r in reps + [check]]),
            "cpu_ms_per_op": median([r["raw"]["cpu"] * 1e3 / r["events"] for r in reps]),
        },
        "peak_worst_fraction": max(r["peak_worst"] for r in reps),
        "compromised_at_end": [r["compromised"] for r in reps],
    }
    return {
        "metrics": metrics,
        "samples": samples,
        "checks": checks,
        "attempted": total_events + check["events"],
    }
