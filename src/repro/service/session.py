"""The live engine session: one continuously running engine behind a queue.

:class:`LiveEngineSession` owns the :class:`~repro.core.engine.NowEngine`
that external requests drive, the :class:`~repro.scenarios.bus.
ObservationBus` its churn events are published to (so trace recording and
measurement probes work exactly as in batch runs), and the **service RNG**
— private :class:`random.Random` streams for everything the engine stream
must not answer.

Determinism contract (why the service RNG exists): the engine stream
(``state.rng``) is part of the state fingerprint and must be consumed only
by ``apply_event`` — that is what makes a recorded trace replayable by
re-applying its event frames.  A live service also needs randomness the
trace does not hold: the leaver of an anonymous ``leave`` (recorded only as
its concrete id) draws from ``random.Random(seed + SERVICE_RNG_OFFSET)``,
and the reads (sample, broadcast) from a separate
``random.Random(seed + SERVICE_READ_RNG_OFFSET)``.  This extends the
scenario seed discipline (seed → engine, +1 workload, +2 adversary,
+3 mixer, +4 service writes, +5 service reads).  Because reads have their
own stream, any interleaving of reads leaves the write lane's draws — and
so the trace and the state hash — bit-identical, which is what lets the
front-end serve reads beside writes (the same contract as
:class:`~repro.service.sharded.ShardedLiveSession`).

Pre-flight validation (why requests cannot fail inside the engine):
``apply_event`` advances protocol time *before* executing the operation, so
an event that raises halfway leaves the engine one time step ahead of the
recorded trace — permanent replay divergence.  Every rejectable condition
(unknown node, double join, size bounds) is checked against engine state
before the event is built; by the time ``apply_event`` runs, it cannot
fail.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from ..apps.broadcast import ClusteredBroadcast
from ..apps.sampling import SamplingService
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import DEFAULT_PROBE_BUFFER, ObservationBus
from ..scenarios.scenario import Scenario
from ..trace.log import DEFAULT_INDEX_EVERY
from ..trace.codec import DEFAULT_FLUSH_EVERY
from ..trace.probes import TraceProbe
from .protocol import ERROR_FAILED, ProtocolError

#: Seed offset of the service write stream, which picks anonymous leavers
#: (continues the Scenario fan-out: seed → engine, +1 workload, +2
#: adversary, +3 mixer, +4 service writes, +5 service reads).
SERVICE_RNG_OFFSET = 4

#: Seed offset of the service read stream (sample and broadcast draws).
SERVICE_READ_RNG_OFFSET = 5


def live_scenario(
    name: str = "live-service",
    seed: int = 1,
    max_size: int = 4096,
    initial_size: int = 300,
    tau: float = 0.15,
    **overrides: Any,
) -> Scenario:
    """The default scenario a live service runs: engine only, no workload.

    Events come from clients, not a generator, so ``workload`` is ``None``
    and ``steps`` is 0.  The scenario still rides in the trace header, so
    ``replay`` rebuilds the identical engine from it.
    """
    return Scenario(
        name=name,
        seed=seed,
        max_size=max_size,
        initial_size=initial_size,
        tau=tau,
        steps=0,
        workload=None,
        **overrides,
    )


class LiveEngineSession:
    """Serialised execution of service requests against one live engine."""

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        probes: Sequence = (),
        probe_buffer: int = DEFAULT_PROBE_BUFFER,
    ) -> None:
        self.scenario = scenario if scenario is not None else live_scenario()
        if self.scenario.engine != "now":
            raise ConfigurationError(
                "the live service serves the 'now' engine; got "
                f"{self.scenario.engine!r}"
            )
        if self.scenario.shards:
            raise ConfigurationError("the live service runs a single engine (shards=0)")
        self.engine = self.scenario.build_engine()
        #: Write stream: anonymous-leave resolution.
        self.rng = random.Random(self.scenario.seed + SERVICE_RNG_OFFSET)
        #: Read stream: sample/broadcast draws, invisible to the write lane.
        self.read_rng = random.Random(self.scenario.seed + SERVICE_READ_RNG_OFFSET)
        self.bus = ObservationBus(self.engine, probes, buffer_size=probe_buffer)
        self._sampling = SamplingService(self.engine, rng=self.read_rng)
        self._broadcast = ClusteredBroadcast(self.engine, rng=self.read_rng)
        self._trace_probe: Optional[TraceProbe] = None
        self.events_applied = 0
        self.operations: Dict[str, int] = {}
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach_trace(
        self,
        path: str,
        index_every: int = DEFAULT_INDEX_EVERY,
        trace_format: str = "jsonl",
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> TraceProbe:
        """Record every churn event this session applies to ``path``.

        Must be attached before the first event so the trace is complete
        from the engine's bootstrap state (which the header's scenario
        reproduces).
        """
        if self.events_applied:
            raise ConfigurationError(
                "attach the trace before the first churn event; "
                f"{self.events_applied} already applied"
            )
        if self._trace_probe is not None:
            raise ConfigurationError("a trace is already being recorded")
        probe = TraceProbe(
            path,
            index_every=index_every,
            scenario=self.scenario,
            trace_format=trace_format,
            flush_every=flush_every,
        )
        self.start()
        self.bus.attach(probe)
        self._trace_probe = probe
        return probe

    def start(self) -> None:
        """Fire the probes' run-start hooks (idempotent)."""
        if not self._started:
            self.bus.on_start()
            self._started = True

    def close(self, ok: bool = True) -> None:
        """Flush observations and seal the trace.

        ``ok=True`` writes the trace end frame (final state hash);
        ``ok=False`` is the crash path — buffered frames are flushed but no
        end frame is written, leaving a crashed-run-shape trace that is
        still replayable up to its last complete frame.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.bus.flush()
        finally:
            if self._trace_probe is not None:
                if ok:
                    self._trace_probe.finalize(self.engine)
                else:
                    self._trace_probe.abort()

    @property
    def closed(self) -> bool:
        """Whether the session was sealed."""
        return self._closed

    @property
    def network_size(self) -> int:
        """Current active population (the backend-independent size view)."""
        return self.engine.network_size

    # ------------------------------------------------------------------
    # The write window (the front-end pump's contract)
    # ------------------------------------------------------------------
    def begin_window(self, frames: Sequence[Dict[str, Any]]) -> List[Any]:
        """Execute one pump batch of write requests in admission order.

        One engine has nothing to overlap, so the whole window runs here
        and :meth:`finish_window` only hands the outcomes back: a result
        dict per executed event, the :class:`ProtocolError` for a request
        the pre-flight checks rejected.  Any other exception propagates —
        the engine may be mid-event, so the front-end treats it as fatal.
        """
        outcomes: List[Any] = []
        for frame in frames:
            try:
                outcomes.append(self.execute(frame))
            except ProtocolError as error:
                outcomes.append(error)
        return outcomes

    def finish_window(self, handle: List[Any]) -> List[Any]:
        """The outcomes of a window :meth:`begin_window` already executed."""
        return handle

    def read_ready(self, op: str) -> bool:
        """Reads never wait on a window: it has finished before they run."""
        return True

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def execute(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Run one validated request frame and return its result payload.

        Raises :class:`~repro.service.protocol.ProtocolError` (``failed``)
        for requests that are well-formed but rejected by the engine's
        current state.  Must only be called with frames that passed
        :func:`~repro.service.protocol.parse_request`.
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        self.start()
        op = frame["op"]
        handler = self._HANDLERS[op]
        result = handler(self, frame)
        self.operations[op] = self.operations.get(op, 0) + 1
        return result

    # -- churn ----------------------------------------------------------
    def _execute_join(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        state = self.engine.state
        if self.engine.network_size >= self.engine.parameters.max_size:
            raise ProtocolError(
                ERROR_FAILED,
                f"network is at its maximum size {self.engine.parameters.max_size}",
                request_id=frame.get("id"),
                op="join",
            )
        node_id = frame.get("node_id")
        if node_id is not None and node_id in state.nodes and state.nodes.is_active(node_id):
            raise ProtocolError(
                ERROR_FAILED,
                f"node {node_id} is already active",
                request_id=frame.get("id"),
                op="join",
            )
        role = NodeRole.BYZANTINE if frame.get("role") == "byzantine" else NodeRole.HONEST
        report = self.engine.join(
            role=role, node_id=node_id, contact_cluster=frame.get("contact_cluster")
        )
        return self._publish_churn(report)

    def _execute_leave(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        state = self.engine.state
        if self.engine.network_size <= self.engine.parameters.lower_size_bound:
            raise ProtocolError(
                ERROR_FAILED,
                "network is at its lower size bound "
                f"{self.engine.parameters.lower_size_bound}",
                request_id=frame.get("id"),
                op="leave",
            )
        node_id = frame.get("node_id")
        if node_id is None:
            # An anonymous departure: the service picks the leaver from its
            # own stream (never the engine's), then records the concrete id.
            node_id = self.engine.random_member(rng=self.rng)
        elif node_id not in state.nodes or not state.nodes.is_active(node_id):
            raise ProtocolError(
                ERROR_FAILED,
                f"node {node_id} is not active",
                request_id=frame.get("id"),
                op="leave",
            )
        report = self.engine.leave(node_id)
        return self._publish_churn(report)

    def _publish_churn(self, report) -> Dict[str, Any]:
        self.events_applied += 1
        self.bus.publish(report, self.events_applied)
        operation = report.operation
        return {
            "node_id": operation.node_id,
            "time_step": report.time_step,
            "network_size": report.network_size,
            "cluster_count": report.cluster_count,
            "messages": operation.messages,
            "rounds": operation.rounds,
        }

    # -- reads ----------------------------------------------------------
    def _execute_sample(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        report = self._sampling.sample()
        return {
            "node_id": report.node_id,
            "cluster_id": report.cluster_id,
            "is_byzantine": report.is_byzantine,
            "messages": report.messages,
            "rounds": report.rounds,
            "walk_hops": report.walk_hops,
        }

    def _execute_broadcast(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        report = self._broadcast.broadcast(frame.get("payload"))
        return {
            "origin_cluster": report.origin_cluster,
            "clusters_reached": len(report.clusters_reached),
            "cluster_count": self.engine.cluster_count,
            "nodes_reached": report.nodes_reached,
            "coverage": report.coverage(self.engine.cluster_count),
            "messages": report.messages,
            "rounds": report.rounds,
        }

    def _execute_status(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        engine = self.engine
        return {
            "network_size": engine.network_size,
            "cluster_count": engine.cluster_count,
            "worst_byzantine_fraction": engine.worst_cluster_fraction(),
            "time_step": engine.state.time_step,
            "events_applied": self.events_applied,
            "operations": dict(self.operations),
            "recording": self._trace_probe.path if self._trace_probe else None,
        }

    def _execute_ping(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    _HANDLERS = {
        "join": _execute_join,
        "leave": _execute_leave,
        "sample": _execute_sample,
        "broadcast": _execute_broadcast,
        "status": _execute_status,
        "ping": _execute_ping,
    }
