"""Shard workers: complete NOW engines over population slices.

Each logical shard is a full :class:`~repro.core.engine.NowEngine` — its own
``NodeRegistry``, ``ClusterRegistry``, overlay and RNG stream — applying the
events routed to it.  A :class:`ShardWorker` hosts one or more shard slots
(several logical shards can share a worker process: the logical shard count
is a *scenario* property, the worker count an *execution* choice) and speaks
a small command protocol:

``bootstrap_info``
    roles and cluster summaries of the initial population (the coordinator
    registers global ids in the directory from this);
``apply``
    one barrier window's batch of routed events (a packed wire buffer or
    the legacy tuple list — see :mod:`repro.shard.messages`), returning
    packed per-event observation rows, the end-of-batch shard summary and
    the worker's self-timed execution seconds;
``emigrate_ids`` / ``immigrate``
    the two halves of a barrier handoff.  The coordinator plans the
    emigrant set from its directory (so the donor needs no planning round
    trip) and both commands piggyback the post-handoff shard summary;
``state_hash`` / ``snapshot`` / ``restore_shard``
    the determinism/checkpoint surface.

Workers never see global state: every event arrives naming a *global* node
id, and the slot's ``g2l``/``l2g`` maps translate to the shard-local
identity space.  A shard engine runs with ``enforce_size_range`` forced
off: the paper's size range constrains the *composite* population, not an
individual slice.

:class:`InlineTransport` executes commands in-process (``workers=1``, the
correctness oracle); :class:`ProcessTransport` runs the same worker behind a
``multiprocessing`` pipe.  Both expose send-all-then-recv-all so the
coordinator overlaps the shards' work each window.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import EngineConfig, NowEngine
from ..core.events import ChurnEvent
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..walks.sampler import WalkMode
from .messages import (
    JOIN,
    LEAVE,
    SHARD_SEED_OFFSET,
    EventBatch,
    RowBatch,
    iter_events,
    pack_rows,
)


class ShardWorkerError(RuntimeError):
    """A shard worker command failed; carries the remote traceback text."""


def _shard_engine_config(engine_options: Dict[str, Any]) -> EngineConfig:
    """The scenario's engine options with the per-shard overrides applied."""
    options = dict(engine_options)
    if isinstance(options.get("walk_mode"), str):
        options["walk_mode"] = WalkMode(options["walk_mode"])
    options["enforce_size_range"] = False
    return EngineConfig(**options)


class _ShardSlot:
    """One logical shard hosted by this worker: engine + id translation."""

    def __init__(self, shard: int, engine: NowEngine, base_gid: int) -> None:
        self.shard = shard
        self.engine = engine
        # The bootstrap population gets contiguous global ids [base, base+m):
        # local id i <-> global id base + i, because bootstrap registers
        # locals 0..m-1 in order.
        size = engine.network_size
        self.l2g: Dict[int, int] = {local: base_gid + local for local in range(size)}
        self.g2l: Dict[int, int] = {base_gid + local: local for local in range(size)}

    def map_new(self, gid: int, local: int) -> None:
        self.l2g[local] = gid
        self.g2l[gid] = local

    @classmethod
    def from_snapshot(cls, shard: int, data: Dict[str, Any]) -> "_ShardSlot":
        """Rebuild a hosted shard from a checkpoint payload."""
        slot = cls.__new__(cls)
        slot.shard = shard
        slot.engine = NowEngine.restore(data["engine"])
        slot.l2g = {int(local): int(gid) for local, gid in data["l2g"]}
        slot.g2l = {gid: local for local, gid in slot.l2g.items()}
        return slot


class ShardWorker:
    """Hosts shard engines and executes coordinator commands against them."""

    def __init__(
        self,
        scenario_data: Dict[str, Any],
        shard_ids: Sequence[int],
        sizes: Sequence[int],
        restore: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        # Late import: scenario.py imports nothing from repro.shard, but the
        # local import keeps the worker module cheap to load in child
        # processes and avoids future cycles.
        from ..scenarios.scenario import Scenario

        scenario = Scenario.from_dict(dict(scenario_data))
        if scenario.engine != "now":
            raise ConfigurationError(
                f"sharded execution supports the 'now' engine only, not {scenario.engine!r}"
            )
        params = scenario.parameters()
        config = _shard_engine_config(scenario.engine_options)
        self.slots: Dict[int, _ShardSlot] = {}
        for shard in shard_ids:
            if restore is not None and shard in restore:
                self.slots[shard] = _ShardSlot.from_snapshot(shard, restore[shard])
                continue
            engine = NowEngine.bootstrap(
                params,
                initial_size=sizes[shard],
                byzantine_fraction=scenario.tau,
                seed=scenario.seed + SHARD_SEED_OFFSET + shard,
                config=config,
            )
            base_gid = sum(sizes[:shard])
            self.slots[shard] = _ShardSlot(shard, engine, base_gid)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _slot(self, shard: int) -> _ShardSlot:
        try:
            return self.slots[shard]
        except KeyError:
            raise ConfigurationError(f"shard {shard} is not hosted by this worker")

    @staticmethod
    def _summary(engine: NowEngine) -> Dict[str, Any]:
        return {
            "size": engine.network_size,
            "clusters": engine.cluster_count,
            "worst": engine.worst_cluster_fraction(),
            "compromised": sorted(engine.compromised_clusters()),
        }

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def bootstrap_info(self) -> Dict[int, Dict[str, Any]]:
        """Initial roles + summary per hosted shard (for directory seeding)."""
        info: Dict[int, Dict[str, Any]] = {}
        for shard, slot in self.slots.items():
            byzantine = sorted(
                slot.l2g[local] for local in slot.engine.state.nodes.active_byzantine()
            )
            info[shard] = {
                "byzantine": byzantine,
                "summary": self._summary(slot.engine),
            }
        return info

    def apply(self, shard: int, batch: EventBatch, observe: bool) -> Dict[str, Any]:
        """Apply one window's routed events; return packed rows + summary.

        ``batch`` is a packed event buffer (or the legacy tuple-list
        fallback); the reply's ``rows`` are packed the same way — decoded
        only at the merge boundary.  Each row carries *global* identities
        plus the shard-local observables the merge layer folds into
        composite step records: ``(step, kind, role, node_id, assigned,
        clusters, worst, operation, messages, rounds, walk_hops)``.
        ``node_id`` is ``None`` for a fresh join (mirroring the classic
        record, whose event names no id) and the global id otherwise.
        ``elapsed`` is the worker's own execution wall time, the
        ``worker_execute`` input of the coordinator's phase breakdown.
        """
        started = time.perf_counter()
        slot = self._slot(shard)
        engine = slot.engine
        rows: List[tuple] = []
        for step, kind, gid, role_value, fresh in iter_events(batch):
            if kind == JOIN:
                local = slot.g2l.get(gid)
                report = engine.apply_event(
                    ChurnEvent.join(role=NodeRole(role_value), node_id=local)
                )
                if local is None:
                    slot.map_new(gid, report.operation.node_id)
            elif kind == LEAVE:
                report = engine.apply_event(ChurnEvent.leave(slot.g2l[gid]))
            else:
                raise ConfigurationError(f"unknown routed event kind {kind!r}")
            if observe:
                operation = report.operation
                rows.append(
                    (
                        step,
                        kind,
                        role_value,
                        None if (kind == JOIN and fresh) else gid,
                        gid,
                        report.cluster_count,
                        report.worst_byzantine_fraction,
                        operation.operation,
                        operation.messages,
                        operation.rounds,
                        operation.walk_hops,
                    )
                )
        return {
            "rows": pack_rows(rows) if observe else rows,
            "summary": self._summary(engine),
            "elapsed": time.perf_counter() - started,
        }

    def emigrate_ids(self, shard: int, gids: Sequence[int]) -> Dict[str, Any]:
        """Evict the named nodes for a handoff (in the given order).

        The coordinator plans the emigrant set from its directory — the
        shard's largest active global ids, a pure function of routed
        history — so the donor worker only executes.  Applying the
        departures in the given (largest-first) order reproduces the exact
        engine transitions of the planning-on-worker protocol.  The reply
        piggybacks the post-departure summary, saving the coordinator a
        ``summaries`` round trip at every barrier.
        """
        slot = self._slot(shard)
        engine = slot.engine
        g2l = slot.g2l
        for gid in gids:
            engine.apply_event(ChurnEvent.leave(g2l[gid]))
        return {"summary": self._summary(engine)}

    def immigrate(self, shard: int, moves: Sequence[tuple]) -> Dict[str, Any]:
        """Admit handed-off nodes (already ``(src, seq)``-sorted) as joins."""
        slot = self._slot(shard)
        engine = slot.engine
        for _src, _seq, gid, role_value in moves:
            local = slot.g2l.get(gid)
            report = engine.apply_event(
                ChurnEvent.join(role=NodeRole(role_value), node_id=local)
            )
            if local is None:
                slot.map_new(gid, report.operation.node_id)
        return {"summary": self._summary(engine)}

    def read_view(self, shard: int) -> Dict[str, Any]:
        """A compact snapshot of the shard's clusters and overlay, in gids.

        The read path of the sharded live service: the coordinator fetches
        one view per shard after a merged window and serves ``sample`` /
        ``broadcast`` requests from it without re-entering the worker round
        trip.  Members are translated to global ids so the coordinator's
        directory supplies roles; the adjacency is the OVER overlay at
        cluster granularity.
        """
        slot = self._slot(shard)
        l2g = slot.l2g
        state = slot.engine.state
        clusters = {
            cluster.cluster_id: sorted(l2g[member] for member in cluster.members)
            for cluster in state.clusters.clusters()
        }
        graph = state.overlay.graph
        adjacency = {
            vertex: sorted(graph.neighbours(vertex)) for vertex in graph.vertices()
        }
        return {"clusters": clusters, "adjacency": adjacency}

    def summaries(self) -> Dict[int, Dict[str, Any]]:
        """Current summary of every hosted shard (post-handoff merge input)."""
        return {shard: self._summary(slot.engine) for shard, slot in self.slots.items()}

    def state_hash(self, shard: int) -> str:
        """The hosted shard engine's canonical state hash."""
        return self._slot(shard).engine.state_hash()

    def snapshot(self, shard: int) -> Dict[str, Any]:
        """Checkpoint payload for one shard: engine snapshot + id map."""
        slot = self._slot(shard)
        return {
            "engine": slot.engine.capture_snapshot(),
            "l2g": sorted(slot.l2g.items()),
        }

    def restore_shard(self, shard: int, data: Dict[str, Any]) -> None:
        """Rebuild one hosted shard from :meth:`snapshot` output."""
        slot = self._slot(shard)
        slot.engine = NowEngine.restore(data["engine"])
        slot.l2g = {int(local): int(gid) for local, gid in data["l2g"]}
        slot.g2l = {gid: local for local, gid in slot.l2g.items()}

    def stop(self) -> None:
        """No-op acknowledgement; the transport tears the process down."""


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class InlineTransport:
    """Executes worker commands in the coordinator process (``workers=1``).

    Commands queue on ``send`` and execute lazily on ``recv`` — the same
    FIFO discipline as the process pipe.  That keeps the pipelined
    dispatch order identical across transports, and it keeps the
    coordinator's phase breakdown honest at ``workers=1``: worker
    execution time lands in the recv window, where the coordinator
    accounts for it, not inside ``send``.
    """

    def __init__(
        self,
        scenario_data: Dict[str, Any],
        shard_ids: Sequence[int],
        sizes: Sequence[int],
        restore: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        self.worker = ShardWorker(scenario_data, shard_ids, sizes, restore=restore)
        self._pending: List[Tuple[str, tuple]] = []

    def send(self, method: str, *args: Any) -> None:
        self._pending.append((method, args))

    def recv(self) -> Any:
        method, args = self._pending.pop(0)
        return getattr(self.worker, method)(*args)

    def call(self, method: str, *args: Any) -> Any:
        self.send(method, *args)
        return self.recv()

    def close(self) -> None:
        self._pending.clear()


def worker_main(
    conn,
    scenario_data: Dict[str, Any],
    shard_ids: Sequence[int],
    sizes: Sequence[int],
    restore: Optional[Dict[int, Dict[str, Any]]] = None,
) -> None:
    """Child-process loop: execute ``(method, args)`` commands until ``stop``."""
    try:
        worker = ShardWorker(scenario_data, shard_ids, sizes, restore=restore)
    except BaseException:
        conn.send((False, traceback.format_exc()))
        conn.close()
        return
    conn.send((True, None))
    while True:
        try:
            method, args = conn.recv()
        except EOFError:
            break
        try:
            payload = getattr(worker, method)(*args)
            conn.send((True, payload))
        except BaseException:
            conn.send((False, traceback.format_exc()))
        if method == "stop":
            break
    conn.close()


class ProcessTransport:
    """Runs a :class:`ShardWorker` in a child process behind a pipe.

    The fork start method is preferred (cheap, inherits the loaded modules);
    where unavailable the default context is used — every command payload is
    picklable plain data, so spawn works too, just slower to start.
    """

    def __init__(
        self,
        scenario_data: Dict[str, Any],
        shard_ids: Sequence[int],
        sizes: Sequence[int],
        restore: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(child, dict(scenario_data), list(shard_ids), list(sizes), restore),
            daemon=True,
        )
        self._process.start()
        child.close()
        self.recv()  # bootstrap acknowledgement (raises on worker init failure)

    def _died(self, cause: BaseException) -> ShardWorkerError:
        self._process.join(timeout=1)
        exitcode = self._process.exitcode
        return ShardWorkerError(
            "shard worker process died mid-command "
            f"(exitcode {exitcode}): {cause.__class__.__name__}"
        )

    def send(self, method: str, *args: Any) -> None:
        try:
            self._conn.send((method, args))
        except (BrokenPipeError, OSError) as error:
            raise self._died(error) from None

    def recv(self) -> Any:
        try:
            ok, payload = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as error:
            # The child vanished without replying (killed, OOM, segfault):
            # the pipe reports EOF rather than a traceback.  Surface a
            # ShardWorkerError instead of leaving the raw EOFError to
            # propagate as a confusing coordinator crash.
            raise self._died(error) from None
        if not ok:
            raise ShardWorkerError(f"shard worker command failed:\n{payload}")
        return payload

    def call(self, method: str, *args: Any) -> Any:
        self.send(method, *args)
        return self.recv()

    def close(self) -> None:
        try:
            self.send("stop")
            self.recv()
        except (OSError, EOFError, BrokenPipeError, ShardWorkerError):
            pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
