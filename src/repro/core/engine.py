"""``NowEngine``: the maintained NOW system — the library's main entry point.

The engine wraps a :class:`~repro.core.state.SystemState` together with the
protocol primitives and maintenance operations, and exposes the interface a
downstream user (or an experiment harness) needs:

* ``join`` / ``leave`` / ``apply_event`` / ``run_trace`` — drive churn,
* ``check_invariants`` — verify the paper's guarantees on the current state,
* ``byzantine_fractions`` / ``worst_cluster_fraction`` / ``cluster_sizes`` —
  observe the quantities Theorem 3 and Lemmas 1–3 are about,
* ``metrics`` — the per-operation communication/round ledgers behind every
  cost figure produced by the benchmarks under ``benchmarks/``.

Per-step trajectories are not kept on the engine: ``apply_event`` returns one
:class:`MaintenanceReport` per event, and long runs observe those through the
:class:`~repro.scenarios.runner.SimulationRunner` probes and the trace layer,
so engine memory stays flat however many events a run applies.

Construction: either :meth:`NowEngine.bootstrap` (convenience: builds the
population, runs initialization, returns the engine) or by passing an already
initialized :class:`SystemState`.

The engine implements the :class:`~repro.core.interface.EngineProtocol`
surface shared with the baseline schemes, so workloads, adversaries and the
:class:`~repro.scenarios.runner.SimulationRunner` drive either interchangeably.
Per-step snapshots read the incremental counters maintained by
:class:`~repro.core.state.CorruptionTracker`, so one churn event costs O(1)
statistics work instead of a full population sweep (see
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ClusterCompromisedError, ConfigurationError, NetworkSizeError
from ..network.metrics import MetricsRegistry
from ..network.node import NodeId, NodeRole
from ..params import ProtocolParameters
from ..walks.kernel import resolve_kernel_name
from ..walks.sampler import WalkMode
from .cluster import ClusterId
from .events import ChurnEvent, ChurnKind
from .exchange import ExchangeProtocol
from .initialization import InitializationReport, NowInitializer
from .invariants import InvariantReport, check_invariants
from .operations import JoinOperation, LeaveOperation, OperationReport
from .randcl import RandCl
from .randnum import RandNum
from .state import SystemState


@dataclass
class MaintenanceReport:
    """Record of one engine time step (one churn event and its maintenance)."""

    time_step: int
    event: ChurnEvent
    operation: OperationReport
    network_size: int
    cluster_count: int
    worst_byzantine_fraction: float
    compromised_clusters: List[ClusterId] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """Whether no cluster reached the one-third corruption threshold."""
        return not self.compromised_clusters


@dataclass
class EngineConfig:
    """Behavioural switches of the engine (all default to the paper's protocol)."""

    walk_mode: WalkMode = WalkMode.ORACLE
    #: Which hop engine serves simulated walks: ``naive`` (per-hop python
    #: loop on the engine stream) or ``array`` (batched CSR kernel with its
    #: own checkpointable stream; see ``repro.walks.kernel``).
    walk_kernel: str = "naive"
    cascade_exchanges: bool = True
    strict_compromise: bool = False
    enforce_size_range: bool = False


class NowEngine:
    """The NOW protocol engine: drives maintenance over a clustered system state."""

    def __init__(self, state: SystemState, config: Optional[EngineConfig] = None) -> None:
        self.state = state
        self.config = config if config is not None else EngineConfig()
        resolve_kernel_name(self.config.walk_kernel)  # fail fast on bad option
        self._randnum = RandNum(state.rng)
        self._randcl = RandCl(
            state,
            self._randnum,
            walk_mode=self.config.walk_mode,
            walk_kernel=self.config.walk_kernel,
        )
        self._exchange = ExchangeProtocol(state, self._randcl, self._randnum)
        self._join_op = JoinOperation(state, self._randcl, self._randnum, self._exchange)
        self._leave_op = LeaveOperation(
            state,
            self._randcl,
            self._randnum,
            self._exchange,
            cascade_exchanges=self.config.cascade_exchanges,
        )
        self.initialization_report: Optional[InitializationReport] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        parameters: ProtocolParameters,
        initial_size: int,
        byzantine_fraction: Optional[float] = None,
        seed: Optional[int] = None,
        config: Optional[EngineConfig] = None,
        discovery_mode: str = "model",
    ) -> "NowEngine":
        """Create a fully initialized engine in one call.

        Builds a population of ``initial_size`` nodes with the given Byzantine
        fraction (``parameters.tau`` by default), runs the initialization
        phase and returns the ready-to-use engine.
        """
        rng = random.Random(seed)
        initializer = NowInitializer(parameters, rng, discovery_mode=discovery_mode)
        state, report = initializer.build(
            initial_size=initial_size, byzantine_fraction=byzantine_fraction
        )
        engine = cls(state, config=config)
        engine.initialization_report = report
        return engine

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def capture_snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot of the engine: config, full state, walk buffers.

        Together with :meth:`restore`, this is the engine half of the
        ``repro.trace`` checkpoint contract: a restored engine continues the
        run bit-identically to the original (same events in, same RNG draws,
        same states) — property-tested in ``tests/test_trace_checkpoint.py``.
        """
        return {
            "format": 1,
            "config": {
                "walk_mode": self.config.walk_mode.value,
                "walk_kernel": self.config.walk_kernel,
                "cascade_exchanges": self.config.cascade_exchanges,
                "strict_compromise": self.config.strict_compromise,
                "enforce_size_range": self.config.enforce_size_range,
            },
            "state": self.state.snapshot_state(),
            "randcl": self._randcl.snapshot_state(),
        }

    @classmethod
    def restore(cls, snapshot: Dict[str, object]) -> "NowEngine":
        """Rebuild an engine from :meth:`capture_snapshot` output."""
        config_data = dict(snapshot["config"])
        config_data["walk_mode"] = WalkMode(config_data["walk_mode"])
        # Checkpoints from before the kernel option default to the naive path.
        config_data.setdefault("walk_kernel", "naive")
        # Retired switch that older checkpoints still carry; it never
        # affected simulated state.
        config_data.pop("record_history", None)
        state = SystemState.restore_state(snapshot["state"])
        engine = cls(state, config=EngineConfig(**config_data))
        engine._randcl.restore_state(snapshot.get("randcl", {}))
        return engine

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> ProtocolParameters:
        """The protocol parameters in force."""
        return self.state.parameters

    @property
    def metrics(self) -> MetricsRegistry:
        """Per-operation communication ledgers."""
        return self.state.metrics

    @property
    def network_size(self) -> int:
        """Current number of nodes in the system."""
        return self.state.network_size

    @property
    def cluster_count(self) -> int:
        """Current number of clusters."""
        return len(self.state.clusters)

    def cluster_sizes(self) -> Dict[ClusterId, int]:
        """Mapping cluster id -> size."""
        return self.state.clusters.sizes()

    def byzantine_fractions(self) -> Dict[ClusterId, float]:
        """Per-cluster corruption fractions (ground truth, for measurement only)."""
        return self.state.byzantine_fractions()

    def worst_cluster_fraction(self) -> float:
        """Largest per-cluster corruption fraction."""
        return self.state.worst_cluster_fraction()

    def compromised_clusters(self) -> List[ClusterId]:
        """Clusters at or above the one-third corruption threshold."""
        return self.state.compromised_clusters()

    def active_nodes(self) -> List[NodeId]:
        """Identifiers of the nodes currently in the system."""
        return self.state.nodes.active_nodes()

    def state_hash(self) -> str:
        """Canonical digest of the full engine state.

        Convenience front for :func:`repro.trace.hashing.state_hash` (shard
        workers report per-engine hashes through this); imported lazily
        because ``repro.trace`` builds on top of the core.
        """
        from ..trace.hashing import state_hash

        return state_hash(self)

    def random_member(self, honest_only: bool = False, rng: Optional[random.Random] = None) -> NodeId:
        """A uniformly random active node in O(1) (used by workload generators).

        ``rng`` selects the stream the draw consumes.  External callers
        (workloads, adversaries, interactive use) should pass their own
        generator: the engine stream must be consumed *only* by
        ``apply_event``, so that replaying a recorded event sequence
        reproduces the run exactly (the ``repro.trace`` determinism
        contract).  ``None`` falls back to the engine stream for
        convenience in unrecorded, one-off explorations.
        """
        source = rng if rng is not None else self.state.rng
        if honest_only:
            return self.state.nodes.sample_active_honest(source)
        return self.state.nodes.sample_active(source)

    def random_cluster(self, rng: Optional[random.Random] = None) -> ClusterId:
        """A uniformly random live cluster id in O(1) (``rng`` as in :meth:`random_member`)."""
        if not len(self.state.clusters):
            raise ConfigurationError("no live clusters")
        return self.state.clusters.sample_id(rng if rng is not None else self.state.rng)

    def check_invariants(self, **kwargs) -> InvariantReport:
        """Run the invariant sweep on the current state."""
        return check_invariants(self.state, **kwargs)

    # ------------------------------------------------------------------
    # Churn driving
    # ------------------------------------------------------------------
    def join(
        self,
        role: NodeRole = NodeRole.HONEST,
        node_id: Optional[NodeId] = None,
        contact_cluster: Optional[ClusterId] = None,
    ) -> MaintenanceReport:
        """Process a join: register (or re-activate) the node and run Algorithm 1."""
        event = ChurnEvent.join(role=role, node_id=node_id, contact_cluster=contact_cluster)
        return self.apply_event(event)

    def leave(self, node_id: NodeId) -> MaintenanceReport:
        """Process a departure: mark the node as left and run Algorithm 2."""
        return self.apply_event(ChurnEvent.leave(node_id))

    def apply_event(self, event: ChurnEvent) -> MaintenanceReport:
        """Apply one churn event (one paper time step) and return its record."""
        self.state.advance_time()
        if event.kind is ChurnKind.JOIN:
            operation = self._apply_join(event)
        else:
            operation = self._apply_leave(event)
        if self.config.enforce_size_range:
            self._check_size_range()
        report = self._snapshot(event, operation)
        if self.config.strict_compromise and report.compromised_clusters:
            worst = self.worst_cluster_fraction()
            raise ClusterCompromisedError(
                report.compromised_clusters[0], worst, self.state.time_step
            )
        return report

    def run_trace(self, events: Iterable[ChurnEvent]) -> List[MaintenanceReport]:
        """Apply a sequence of churn events and return their records."""
        return [self.apply_event(event) for event in events]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_join(self, event: ChurnEvent) -> OperationReport:
        if event.node_id is not None and event.node_id in self.state.nodes:
            descriptor = self.state.nodes.reactivate(event.node_id, self.state.time_step)
            node_id = descriptor.node_id
        else:
            descriptor = self.state.nodes.register(
                role=event.role, joined_at=self.state.time_step, node_id=event.node_id
            )
            node_id = descriptor.node_id
        contact = (
            event.contact_cluster
            if event.contact_cluster is not None and event.contact_cluster in self.state.clusters
            else self.random_cluster()
        )
        return self._join_op.execute(node_id, contact)

    def _apply_leave(self, event: ChurnEvent) -> OperationReport:
        if event.node_id is None:
            raise ConfigurationError("a leave event must name the departing node")
        node_id = event.node_id
        self.state.nodes.mark_left(node_id, self.state.time_step)
        return self._leave_op.execute(node_id)

    def _check_size_range(self) -> None:
        size = self.network_size
        if size < self.parameters.lower_size_bound or size > self.parameters.max_size:
            raise NetworkSizeError(
                f"network size {size} left the admissible range "
                f"[{self.parameters.lower_size_bound}, {self.parameters.max_size}]"
            )

    def _snapshot(self, event: ChurnEvent, operation: OperationReport) -> MaintenanceReport:
        # All O(1): the corruption tracker maintains these incrementally.
        return MaintenanceReport(
            time_step=self.state.time_step,
            event=event,
            operation=operation,
            network_size=self.network_size,
            cluster_count=self.cluster_count,
            worst_byzantine_fraction=self.state.worst_cluster_fraction(),
            compromised_clusters=self.state.compromised_clusters(),
        )
