"""The sharded live session: the shard coordinator behind the service.

:class:`ShardedLiveSession` is the multi-core backend of the live service —
the same request surface as :class:`~repro.service.session.LiveEngineSession`
but executed by a :class:`~repro.shard.coordinator.ShardCoordinator`: the
engine pump fans admitted churn out to the shard workers in barrier-window
batches while read-only requests are answered from coordinator-side
snapshots (:class:`~repro.shard.serve.ShardReadModel`) without entering the
worker round trip.

The two-lane split (:data:`~repro.service.protocol.READ_OPS` names the
read lane):

* the **write lane** (join/leave) is ordered and windowed — the front-end
  hands each drained batch to :meth:`begin_window`, which pre-validates
  every request against the directory, resolves anonymous leaves from the
  service's write stream (``seed + 4``, exactly the classic session's
  stream), and dispatches the window to the workers without waiting;
  :meth:`finish_window` collects, merges, records and answers it.
* the **read lane** (sample/broadcast/status/ping) draws from a *separate*
  stream (``seed + 5``): reads are not part of the recorded trace, and
  giving them their own stream means any interleaving of reads leaves the
  write lane's draws — and therefore the trace and the composite state
  hash — bit-identical.  The classic single-engine session keeps the same
  two streams.

Windows never straddle a multiple of the coordinator's ``barrier_interval``
(:meth:`~repro.shard.coordinator.ShardCoordinator.events_until_barrier`),
so the shard-state evolution is a pure function of the admitted event
sequence — independent of how the pump happened to chunk requests — which
is what makes the recorded trace replayable
(:func:`repro.shard.serve.replay_sharded_trace`) and the responses
identical for every worker count (``workers=1`` is the inline oracle).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.events import ChurnEvent, ChurnKind
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import DEFAULT_PROBE_BUFFER, StepRecord
from ..scenarios.scenario import Scenario
from ..shard.coordinator import ShardCoordinator
from ..shard.serve import ShardReadModel
from ..trace.codec import DEFAULT_FLUSH_EVERY
from ..trace.log import DEFAULT_INDEX_EVERY, TraceWriter
from .protocol import ERROR_FAILED, READ_OPS, ProtocolError
from .session import SERVICE_READ_RNG_OFFSET, SERVICE_RNG_OFFSET, live_scenario

#: Default logical shard count of a sharded live service (mirrors the batch
#: CLI's default when ``--shards`` is given without a spec value).
DEFAULT_SERVICE_SHARDS = 4


def sharded_live_scenario(
    name: str = "live-service-sharded",
    seed: int = 1,
    max_size: int = 4096,
    initial_size: int = 300,
    tau: float = 0.15,
    shards: int = DEFAULT_SERVICE_SHARDS,
    **overrides: Any,
) -> Scenario:
    """The default scenario of a sharded live service.

    :func:`~repro.service.session.live_scenario` with a logical shard count:
    still engine-only (events come from clients), still ``steps=0``, and the
    shard count rides in the scenario — it shapes every result bit, so it
    must be recorded in the trace header for replay.
    """
    return live_scenario(
        name=name,
        seed=seed,
        max_size=max_size,
        initial_size=initial_size,
        tau=tau,
        shards=shards,
        **overrides,
    )


#: A validated write window in flight: per-request outcome slots plus the
#: dispatched coordinator tokens that will fill them.
class _WindowHandle:
    __slots__ = ("outcomes", "tokens", "kinds")

    def __init__(self, size: int) -> None:
        self.outcomes: List[Any] = [None] * size
        #: ``(dispatch token, request indices in admission order)`` pairs.
        self.tokens: List[Tuple[Dict[str, Any], List[int]]] = []
        self.kinds: List[Optional[str]] = [None] * size


class ShardedLiveSession:
    """Serialised execution of service requests against a shard coordinator."""

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        workers: int = 1,
        probes: Sequence = (),
        probe_buffer: int = DEFAULT_PROBE_BUFFER,
    ) -> None:
        self.scenario = scenario if scenario is not None else sharded_live_scenario()
        if self.scenario.workload is not None or self.scenario.adversary is not None:
            raise ConfigurationError(
                "a sharded live session drives the coordinator from client "
                "requests; the scenario must not carry a workload or adversary"
            )
        if not getattr(self.scenario, "shards", 0):
            raise ConfigurationError(
                "a sharded live session needs scenario.shards >= 1 "
                "(use sharded_live_scenario or set the spec's 'shards' field)"
            )
        self.coordinator = ShardCoordinator(
            self.scenario, workers=workers, probes=probes, probe_buffer=probe_buffer
        )
        self.workers = self.coordinator.workers
        self.shards = self.coordinator.shards
        #: Write stream: anonymous-leave resolution (classic session parity).
        self.rng = random.Random(self.scenario.seed + SERVICE_RNG_OFFSET)
        #: Read stream: sample/broadcast draws, invisible to the write lane.
        self.read_rng = random.Random(self.scenario.seed + SERVICE_READ_RNG_OFFSET)
        self.read_model = ShardReadModel(self.coordinator)
        self.bus = self.coordinator.bus
        self._writer: Optional[TraceWriter] = None
        self._last_indexed = 0
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
    ) -> TraceWriter:
        """Record every churn event this session applies to ``path``.

        The header carries the scenario (shard count included) under
        ``engine_kind="sharded"``, so the trace replays through
        :func:`repro.shard.serve.replay_sharded_trace`.  Index frames are
        written at window boundaries only — a composite state hash needs a
        worker round trip, which must not cut into an in-flight window.
        """
        if self.events_applied:
            raise ConfigurationError(
                "attach the trace before the first churn event; "
                f"{self.events_applied} already applied"
            )
        if self._writer is not None:
            raise ConfigurationError("a trace is already being recorded")
        writer = TraceWriter(
            path,
            index_every=index_every,
            trace_format=trace_format,
            flush_every=flush_every,
        )
        writer.write_header(self.scenario.to_dict(), engine_kind="sharded")
        self.start()
        self._writer = writer
        return writer

    def start(self) -> None:
        """Fire the probes' run-start hooks (idempotent)."""
        if not self._started:
            self.bus.on_start()
            self._started = True

    def close(self, ok: bool = True) -> None:
        """Flush observations, seal the trace, shut the workers down.

        ``ok=False`` is the crash path (a worker died): buffered frames are
        flushed but no end frame is written — the crashed-run trace shape —
        and no final state hash is computed, because hashing would round-trip
        the dead worker.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.bus.flush()
            if self._writer is not None:
                if ok:
                    self._writer.close(final_hash=self.coordinator.state_hash())
                else:
                    self._writer.close()
        finally:
            if self._writer is not None:
                self._writer.close()  # idempotent; no end frame if not sealed
            self.coordinator.close()

    @property
    def closed(self) -> bool:
        """Whether the session was sealed."""
        return self._closed

    @property
    def network_size(self) -> int:
        """Composite active population across every shard (directory view)."""
        return self.coordinator.directory.active_count()

    def state_hash(self) -> str:
        """The composite state hash (worker round trip; window boundaries only)."""
        return self.coordinator.state_hash()

    @property
    def recording(self) -> Optional[str]:
        """Path of the trace being recorded (``None`` when not recording)."""
        return self._writer.path if self._writer is not None else None

    # ------------------------------------------------------------------
    # The write window (dispatch / collect halves)
    # ------------------------------------------------------------------
    def begin_window(self, frames: Sequence[Dict[str, Any]]) -> _WindowHandle:
        """Validate and dispatch one pump batch of write requests.

        Requests are processed in admission order.  Each one is pre-flight
        checked against the directory (plus the not-yet-flushed tail of this
        very batch), so by the time an event reaches a worker it cannot fail
        — the same no-failures-inside-the-engine contract as the classic
        session.  Rejected requests get a :class:`ProtocolError` outcome
        immediately and consume no window slot.

        Anonymous leaves are the sequencing points: the leaver is drawn
        uniformly from the *post-prior-event* population, exactly like the
        classic session's draw, so the pending batch is flushed (routed,
        which updates the directory) before the pick.  Windows are chunked
        to :meth:`~repro.shard.coordinator.ShardCoordinator.
        events_until_barrier`, which keeps the barrier cadence a pure
        function of the admitted event sequence.
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        self.start()
        coordinator = self.coordinator
        directory = coordinator.directory
        params = coordinator.params
        handle = _WindowHandle(len(frames))

        pending: List[Tuple[int, ChurnEvent]] = []
        pending_delta = 0  # net size change of the unflushed tail
        removed: set = set()  # gids with an unflushed leave
        joined_named: set = set()  # named join ids in the unflushed tail

        def flush() -> None:
            nonlocal pending_delta
            while pending:
                capacity = coordinator.events_until_barrier()
                chunk = pending[:capacity]
                del pending[:capacity]
                token = coordinator.serve_dispatch([event for _, event in chunk])
                handle.tokens.append((token, [index for index, _ in chunk]))
            pending_delta = 0
            removed.clear()
            joined_named.clear()

        for index, frame in enumerate(frames):
            op = frame["op"]
            try:
                if op == "join":
                    event = self._validate_join(
                        frame, directory, params,
                        pending_delta, removed, joined_named,
                    )
                    if event.node_id is not None:
                        joined_named.add(event.node_id)
                    pending_delta += 1
                elif op == "leave":
                    node_id = frame.get("node_id")
                    if node_id is None or node_id in joined_named:
                        # Anonymous leaves sample the live directory; leaves
                        # of a node joining earlier in this same batch need
                        # the join applied first.  Both sequence on a flush.
                        flush()
                    event = self._validate_leave(
                        frame, directory, params, pending_delta, removed
                    )
                    removed.add(event.node_id)
                    pending_delta -= 1
                else:
                    raise ConfigurationError(
                        f"operation {op!r} does not belong to the write lane"
                    )
            except ProtocolError as error:
                handle.outcomes[index] = error
                continue
            handle.kinds[index] = op
            pending.append((index, event))
        flush()
        return handle

    def finish_window(self, handle: _WindowHandle) -> List[Any]:
        """Collect a dispatched window and return per-request outcomes.

        Outcomes align with the frames given to :meth:`begin_window`: a
        result dict for executed events, the :class:`ProtocolError` for
        pre-flight rejections.  Collecting merges the windows' observation
        rows, publishes them to the probes, records them in the trace, and
        invalidates the read model (the composite state changed).  A worker
        dying mid-window surfaces as
        :class:`~repro.shard.worker.ShardWorkerError`.
        """
        coordinator = self.coordinator
        writer = self._writer
        merged_any = False
        for token, indices in handle.tokens:
            records = coordinator.serve_collect(token)
            merged_any = True
            for index, record in zip(indices, records):
                handle.outcomes[index] = self._churn_result(record)
                op = handle.kinds[index]
                self.operations[op] = self.operations.get(op, 0) + 1
                self.events_applied += 1
                self.bus.publish_record(record)
                if writer is not None:
                    writer.write_record(record)
        if merged_any:
            self.read_model.invalidate()
            self._write_index_if_due()
        return handle.outcomes

    def _churn_result(self, record: StepRecord) -> Dict[str, Any]:
        """The response payload of one merged churn record (classic shape)."""
        return {
            "node_id": record.assigned_node,
            "time_step": record.time_step,
            "network_size": record.network_size,
            "cluster_count": record.cluster_count,
            "messages": record.messages,
            "rounds": record.rounds,
        }

    def _write_index_if_due(self) -> None:
        """Index-frame cadence check (window boundaries only; hashes workers)."""
        writer = self._writer
        if writer is None:
            return
        if writer.events_written - self._last_indexed >= writer.index_every:
            writer.write_index_frame(
                step_index=self.coordinator.total_events,
                time_step=self.coordinator.merger.events_merged,
                state_hash=self.coordinator.state_hash(),
                network_size=self.coordinator.directory.active_count(),
            )
            self._last_indexed = writer.events_written

    # ------------------------------------------------------------------
    # Pre-flight validation (against the directory, never the workers)
    # ------------------------------------------------------------------
    def _validate_join(
        self,
        frame: Dict[str, Any],
        directory,
        params,
        pending_delta: int,
        removed: set,
        joined_named: set,
    ) -> ChurnEvent:
        request_id = frame.get("id")
        if frame.get("contact_cluster") is not None:
            raise ProtocolError(
                ERROR_FAILED,
                "the sharded backend does not support contact_cluster-targeted "
                "joins (cluster ids are shard-local)",
                request_id=request_id,
                op="join",
            )
        size = directory.active_count() + pending_delta
        if size >= params.max_size:
            raise ProtocolError(
                ERROR_FAILED,
                f"network is at its maximum size {params.max_size}",
                request_id=request_id,
                op="join",
            )
        node_id = frame.get("node_id")
        if node_id is not None:
            active = (
                node_id in directory.nodes
                and directory.nodes.is_active(node_id)
                and node_id not in removed
            )
            if active or node_id in joined_named:
                raise ProtocolError(
                    ERROR_FAILED,
                    f"node {node_id} is already active",
                    request_id=request_id,
                    op="join",
                )
        role = (
            NodeRole.BYZANTINE if frame.get("role") == "byzantine" else NodeRole.HONEST
        )
        return ChurnEvent(kind=ChurnKind.JOIN, role=role, node_id=node_id)

    def _validate_leave(
        self,
        frame: Dict[str, Any],
        directory,
        params,
        pending_delta: int,
        removed: set,
    ) -> ChurnEvent:
        request_id = frame.get("id")
        size = directory.active_count() + pending_delta
        if size <= params.lower_size_bound:
            raise ProtocolError(
                ERROR_FAILED,
                f"network is at its lower size bound {params.lower_size_bound}",
                request_id=request_id,
                op="leave",
            )
        node_id = frame.get("node_id")
        if node_id is None:
            # The anonymous departure: picked from the service's write
            # stream over the directory's sampling array — the same
            # NodeRegistry draw the classic session makes on its engine.
            node_id = self.coordinator.facade.random_member(rng=self.rng)
        elif (
            node_id not in directory.owner
            or node_id in removed
            or not directory.nodes.is_active(node_id)
        ):
            raise ProtocolError(
                ERROR_FAILED,
                f"node {node_id} is not active",
                request_id=request_id,
                op="leave",
            )
        role = (
            NodeRole.BYZANTINE
            if directory.nodes.is_byzantine(node_id)
            else NodeRole.HONEST
        )
        return ChurnEvent(kind=ChurnKind.LEAVE, role=role, node_id=node_id)

    # ------------------------------------------------------------------
    # Read-lane execution
    # ------------------------------------------------------------------
    def read_ready(self, op: str) -> bool:
        """Whether ``op`` can be served while a write window is in flight.

        ``sample``/``broadcast`` need the read model; refreshing it is a
        worker round trip that cannot cut into an in-flight window (the
        transport pipes are FIFO), so a stale model defers those reads to
        the window boundary.  ``status``/``ping`` never touch the workers.
        """
        if op in ("sample", "broadcast"):
            return self.read_model.fresh
        return True

    def execute(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Run one validated request frame and return its result payload.

        Read-lane operations execute directly; write-lane operations run as
        a window of one (identical shard evolution — windows are
        barrier-aligned regardless of chunking).  Raises
        :class:`ProtocolError` for well-formed requests the current state
        rejects.
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        self.start()
        op = frame["op"]
        if op in READ_OPS:
            handler = self._READ_HANDLERS[op]
            result = handler(self, frame)
            self.operations[op] = self.operations.get(op, 0) + 1
            return result
        outcome = self.finish_window(self.begin_window([frame]))[0]
        if isinstance(outcome, ProtocolError):
            raise outcome
        return outcome

    def _execute_sample(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.read_model.sample(self.read_rng)

    def _execute_broadcast(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return self.read_model.broadcast(self.read_rng)

    def _execute_status(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        coordinator = self.coordinator
        return {
            "network_size": coordinator.directory.active_count(),
            "cluster_count": coordinator.merger.cluster_count,
            "worst_byzantine_fraction": coordinator.merger.worst_fraction,
            "time_step": coordinator.merger.events_merged,
            "events_applied": self.events_applied,
            "operations": dict(self.operations),
            "recording": self.recording,
            "shards": self.shards,
            "workers": self.workers,
            "barriers_run": coordinator.barriers_run,
        }

    def _execute_ping(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    _READ_HANDLERS = {
        "sample": _execute_sample,
        "broadcast": _execute_broadcast,
        "status": _execute_status,
        "ping": _execute_ping,
    }
