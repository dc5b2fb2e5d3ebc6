"""Which layer functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<function>``; the layer is the ``repro``
subpackage the function belongs to (``core``, ``network``, ``overlay``,
``walks``, ``trace``, ``shard``, ``service``, ``scenarios``,
``workloads``).  Every traced run reports every metric of
:data:`PER_LAYER`; a layer that does no work on a workload reports 0,
which is the prediction for that workload (the walk kernel never runs on
``churn``, the shard coordinator only on ``churn-sharded``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from spans import Tracer

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    "core.join_ms": "ms",
    "core.leave_ms": "ms",
    "core.exchange_all.calls_per_event": "count",
    "core.exchange_all.self_us": "us/event",
    "core.exchange_all.share": "ratio",
    "core.randcl_select.calls_per_event": "count",
    "core.randcl_select.self_us": "us/event",
    "core.randcl_prefetch.calls_per_event": "count",
    "core.randcl_prefetch.self_us": "us/event",
    "core.randcl_finalize.calls_per_event": "count",
    "core.randcl_finalize.self_us": "us/event",
    "core.randnum_pick.calls_per_event": "count",
    "core.randnum_pick.self_us": "us/event",
    "core.swap_members.calls_per_event": "count",
    "core.swap_members.self_us": "us/event",
    "core.exchanges_per_leave": "count",
    "core.swaps_per_exchange": "count",
    "network.charge.calls_per_event": "count",
    "network.charge_us": "us/event",
    "network.diameter_s": "s",
    "overlay.add_vertex.calls_per_event": "count",
    "overlay.add_vertex.us_per_event": "us/event",
    "overlay.remove_vertex.calls_per_event": "count",
    "overlay.remove_vertex.us_per_event": "us/event",
    "walks.oracle_sample_us": "us",
    "walks.walks_per_batch": "count",
    "walks.vector_batch_share": "ratio",
    "walks.kernel_ms": "ms/event",
    "walks.hops_per_s": "1/s",
    "walks.csr_builds_per_event": "count",
    "trace.event_us": "us",
    "trace.index_ms": "ms",
    "trace.bytes_per_event": "bytes",
    "shard.route_ms": "ms/window",
    "shard.serialize_ms": "ms/window",
    "shard.worker_wait_ms": "ms/window",
    "shard.merge_ms": "ms/window",
    "shard.idle_ms": "ms/window",
    "shard.handoffs_per_barrier": "count",
    "service.parse_us": "us",
    "service.encode_us": "us",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.batch_size": "count",
    "service.queue_depth_max": "count",
    "service.execute_ms.sample": "ms",
    "service.execute_ms.broadcast": "ms",
    "service.execute_ms.status": "ms",
    "service.execute_ms.join": "ms",
    "service.execute_ms.leave": "ms",
    "scenarios.step_self_us": "us/event",
    "workloads.next_event_us": "us",
    "loadgen.lag_p99_ms": "ms",
    "layer.core.self_share": "ratio",
    "layer.network.self_share": "ratio",
    "layer.overlay.self_share": "ratio",
    "layer.walks.self_share": "ratio",
    "layer.trace.self_share": "ratio",
    "layer.shard.self_share": "ratio",
    "layer.service.self_share": "ratio",
    "layer.scenarios.self_share": "ratio",
    "layer.workloads.self_share": "ratio",
    "bench.trace_overhead": "ratio",
}


def _event_kind(engine, event) -> str:
    return "core.join" if event.kind.value == "join" else "core.leave"


def instrument_engine(tracer: Tracer, counters: Dict[str, float]) -> None:
    """Wrap the engine-side layers: core, network, overlay, walks.

    ``counters`` receives the counts the spans cannot give: swaps per
    exchange round and the walk kernel's batch sizes and hops.
    """
    from repro.core.cluster import ClusterRegistry
    from repro.core.engine import NowEngine
    from repro.core.exchange import ExchangeProtocol
    from repro.core.randcl import RandCl
    from repro.core.randnum import RandNum
    from repro.network.metrics import CommunicationMetrics
    from repro.network.topology import KnowledgeGraph
    from repro.overlay.over import OverOverlay
    from repro.walks import kernel
    from repro.walks.csr import CSRLayout
    from repro.walks.sampler import ClusterSampler

    def count_swaps(args, kwargs, report) -> None:
        counters["swaps"] = counters.get("swaps", 0) + report.swap_count

    def count_batch(args, kwargs, outcomes) -> None:
        kernel_object, starts = args[0], args[1]
        counters["kernel_batches"] = counters.get("kernel_batches", 0) + 1
        counters["kernel_walks"] = counters.get("kernel_walks", 0) + len(starts)
        if kernel_object.backend == "numpy" and len(starts) >= kernel.MIN_VECTOR_BATCH:
            counters["vector_batches"] = counters.get("vector_batches", 0) + 1
        counters["kernel_hops"] = counters.get("kernel_hops", 0) + sum(o[1] for o in outcomes)

    tracer.instrument(NowEngine, "apply_event", _event_kind)
    tracer.instrument(ExchangeProtocol, "exchange_all", "core.exchange_all", count_swaps)
    tracer.instrument(RandCl, "select", "core.randcl_select")
    tracer.instrument(RandCl, "prefetch", "core.randcl_prefetch")
    tracer.instrument(RandCl, "finalize", "core.randcl_finalize")
    tracer.instrument(RandNum, "pick_member", "core.randnum_pick")
    tracer.instrument(ClusterRegistry, "swap_members", "core.swap_members")
    for method in ("charge", "charge_messages", "charge_rounds"):
        tracer.instrument(CommunicationMetrics, method, "network.charge")
    tracer.instrument(KnowledgeGraph, "honest_adjacent_diameter", "network.diameter")
    tracer.instrument(OverOverlay, "add_vertex", "overlay.add_vertex")
    tracer.instrument(OverOverlay, "remove_vertex", "overlay.remove_vertex")
    tracer.instrument(
        ClusterSampler, "sample", lambda sampler, start: f"walks.sample_{sampler.mode.value}"
    )
    tracer.instrument(kernel.ArrayKernel, "run_biased_batch", "walks.kernel", count_batch)
    tracer.instrument(CSRLayout, "build", "walks.csr_build")


def instrument_runner(tracer: Tracer, source_class) -> None:
    """Wrap the batch step loop and its event source's class."""
    from repro.scenarios.runner import SimulationRunner

    tracer.instrument(SimulationRunner, "run", "scenarios.run")
    tracer.instrument(source_class, "next_event", "workloads.next_event")


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    events: int,
    wall: float,
    setups: int,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced segment.

    ``events`` are the churn events (or requests) of the segment, ``wall``
    its wall seconds, ``setups`` the engine bootstraps it contains;
    ``extra`` carries the metrics measured outside the spans (shard phase
    times, trace bytes, service queue figures, generator lag, overhead).
    """
    stat = tracer.stat
    per_event = 1.0 / events if events else 0.0

    def mean(name: str, scale: float) -> float:
        stats = stat(name)
        return stats.total / stats.calls * scale if stats.calls else 0.0

    leave = stat("core.leave")
    exchanges = stat("core.exchange_all")
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    metrics["core.join_ms"] = mean("core.join", 1e3)
    metrics["core.leave_ms"] = mean("core.leave", 1e3)
    for key, span in (
        ("core.exchange_all", "core.exchange_all"),
        ("core.randcl_select", "core.randcl_select"),
        ("core.randcl_prefetch", "core.randcl_prefetch"),
        ("core.randcl_finalize", "core.randcl_finalize"),
        ("core.randnum_pick", "core.randnum_pick"),
        ("core.swap_members", "core.swap_members"),
        ("network.charge", "network.charge"),
    ):
        stats = stat(span)
        metrics[f"{key}.calls_per_event"] = stats.calls * per_event
        if key != "network.charge":
            metrics[f"{key}.self_us"] = stats.self_time * 1e6 * per_event
    metrics["network.charge_us"] = stat("network.charge").self_time * 1e6 * per_event
    metrics["core.exchange_all.share"] = exchanges.total / wall if wall else 0.0
    metrics["core.exchanges_per_leave"] = exchanges.calls / leave.calls if leave.calls else 0.0
    metrics["core.swaps_per_exchange"] = (
        counters.get("swaps", 0) / exchanges.calls if exchanges.calls else 0.0
    )
    metrics["network.diameter_s"] = stat("network.diameter").total / setups if setups else 0.0
    for name in ("add_vertex", "remove_vertex"):
        stats = stat(f"overlay.{name}")
        metrics[f"overlay.{name}.calls_per_event"] = stats.calls * per_event
        metrics[f"overlay.{name}.us_per_event"] = stats.total * 1e6 * per_event
    metrics["walks.oracle_sample_us"] = mean("walks.sample_oracle", 1e6)
    batches = counters.get("kernel_batches", 0)
    kernel = stat("walks.kernel")
    if batches:
        metrics["walks.walks_per_batch"] = counters["kernel_walks"] / batches
        metrics["walks.vector_batch_share"] = counters.get("vector_batches", 0) / batches
    metrics["walks.kernel_ms"] = kernel.total * 1e3 * per_event
    metrics["walks.hops_per_s"] = (
        counters.get("kernel_hops", 0) / kernel.total if kernel.total else 0.0
    )
    metrics["walks.csr_builds_per_event"] = stat("walks.csr_build").calls * per_event
    metrics["trace.event_us"] = mean("trace.event", 1e6)
    metrics["scenarios.step_self_us"] = stat("scenarios.run").self_time * 1e6 * per_event
    metrics["workloads.next_event_us"] = mean("workloads.next_event", 1e6)
    for layer, seconds in tracer.layer_self_times().items():
        key = f"layer.{layer}.self_share"
        if key in metrics and wall:
            metrics[key] = seconds / wall
    metrics.update(extra or {})
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return metrics


def dominant_layer(metrics: Dict[str, float]) -> List:
    """``[layer, self share]`` of the layer with the largest self share."""
    shares = {
        name[len("layer."):-len(".self_share")]: value
        for name, value in metrics.items()
        if name.startswith("layer.")
    }
    layer = max(shares, key=shares.get)
    return [layer, shares[layer]]
