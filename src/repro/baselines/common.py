"""Shared machinery for baseline clustering engines.

Every baseline maintains the same kind of state as NOW (a
:class:`~repro.core.state.SystemState` with a node registry, a cluster
registry and an overlay used only as a neighbourhood structure) and is driven
by the same :class:`~repro.core.events.ChurnEvent` stream, so experiments can
swap NOW and a baseline without touching the workload or adversary code:
both implement the shared :class:`~repro.core.interface.EngineProtocol`
surface, including the O(1) incremental statistics (sampling, per-cluster
corruption, compromised set) maintained by the state layer.  What differs is
how joins and leaves are handled — that is what each concrete baseline
overrides.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.cluster import ClusterId
from ..core.events import ChurnEvent, ChurnKind
from ..core.state import NodeRegistry, SystemState
from ..errors import ConfigurationError
from ..network.node import NodeId, NodeRole
from ..params import ProtocolParameters
from ..rng import shuffled


@dataclass
class BaselineStepReport:
    """Per-step record of a baseline engine (mirrors ``MaintenanceReport``)."""

    time_step: int
    event: ChurnEvent
    network_size: int
    cluster_count: int
    worst_byzantine_fraction: float
    compromised_clusters: List[ClusterId] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """Whether no cluster reached the one-third corruption threshold."""
        return not self.compromised_clusters


class BaselineEngine(abc.ABC):
    """Common driving loop and observation API for baseline schemes."""

    def __init__(self, state: SystemState) -> None:
        self.state = state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        parameters: ProtocolParameters,
        initial_size: int,
        byzantine_fraction: Optional[float] = None,
        seed: Optional[int] = None,
        **kwargs,
    ) -> "BaselineEngine":
        """Create the baseline over a randomly partitioned initial population."""
        rng = random.Random(seed)
        fraction = byzantine_fraction if byzantine_fraction is not None else parameters.tau
        registry = NodeRegistry()
        byzantine_count = int(round(fraction * initial_size))
        corrupted = set(rng.sample(range(initial_size), byzantine_count))
        for index in range(initial_size):
            role = NodeRole.BYZANTINE if index in corrupted else NodeRole.HONEST
            registry.register(role=role)
        state = SystemState(parameters=parameters, rng=rng, nodes=registry)
        engine = cls(state, **kwargs)
        engine._initial_partition()
        return engine

    def _initial_partition(self) -> None:
        """Random partition into clusters of the target size, plus a bootstrap overlay."""
        node_ids = shuffled(self.state.rng, self.state.nodes.active_nodes())
        target = self.state.parameters.target_cluster_size
        cluster_count = max(1, len(node_ids) // target)
        chunks: List[List[NodeId]] = [[] for _ in range(cluster_count)]
        for index, node_id in enumerate(node_ids):
            chunks[index % cluster_count].append(node_id)
        cluster_ids = []
        for chunk in chunks:
            cluster = self.state.clusters.create_cluster(chunk)
            cluster_ids.append(cluster.cluster_id)
        weights = [float(len(self.state.clusters.get(cid))) for cid in cluster_ids]
        self.state.overlay.bootstrap(cluster_ids, weights)

    # ------------------------------------------------------------------
    # Observation (same surface as NowEngine)
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> ProtocolParameters:
        """The protocol parameters in force."""
        return self.state.parameters

    @property
    def network_size(self) -> int:
        """Current number of nodes."""
        return self.state.network_size

    @property
    def cluster_count(self) -> int:
        """Current number of clusters."""
        return len(self.state.clusters)

    def cluster_sizes(self) -> Dict[ClusterId, int]:
        """Mapping cluster id -> size."""
        return self.state.clusters.sizes()

    def byzantine_fractions(self) -> Dict[ClusterId, float]:
        """Per-cluster corruption fractions."""
        return self.state.byzantine_fractions()

    def worst_cluster_fraction(self) -> float:
        """Largest per-cluster corruption fraction."""
        return self.state.worst_cluster_fraction()

    def compromised_clusters(self) -> List[ClusterId]:
        """Clusters at or above the one-third threshold."""
        return self.state.compromised_clusters()

    def active_nodes(self) -> List[NodeId]:
        """Identifiers of the nodes currently in the system."""
        return self.state.nodes.active_nodes()

    @property
    def metrics(self):
        """Per-operation communication ledgers (baselines charge nothing by default)."""
        return self.state.metrics

    def random_member(self, honest_only: bool = False, rng=None) -> NodeId:
        """A uniformly random active node in O(1).

        ``rng`` selects the stream, as on the NOW engine: external callers
        pass their own generator so the engine stream is consumed only by
        ``apply_event`` (the ``repro.trace`` determinism contract).
        """
        source = rng if rng is not None else self.state.rng
        if honest_only:
            return self.state.nodes.sample_active_honest(source)
        return self.state.nodes.sample_active(source)

    def random_cluster(self, rng=None) -> ClusterId:
        """A uniformly random live cluster id in O(1) (``rng`` as in :meth:`random_member`)."""
        if not len(self.state.clusters):
            raise ConfigurationError("no live clusters")
        return self.state.clusters.sample_id(rng if rng is not None else self.state.rng)

    # ------------------------------------------------------------------
    # Churn driving
    # ------------------------------------------------------------------
    def apply_event(self, event: ChurnEvent) -> BaselineStepReport:
        """Apply one churn event with the baseline's own join/leave handling."""
        self.state.advance_time()
        if event.kind is ChurnKind.JOIN:
            if event.node_id is not None and event.node_id in self.state.nodes:
                descriptor = self.state.nodes.reactivate(event.node_id, self.state.time_step)
            else:
                descriptor = self.state.nodes.register(
                    role=event.role, joined_at=self.state.time_step, node_id=event.node_id
                )
            self.handle_join(descriptor.node_id, event.contact_cluster)
        else:
            if event.node_id is None:
                raise ConfigurationError("a leave event must name the departing node")
            self.state.nodes.mark_left(event.node_id, self.state.time_step)
            self.handle_leave(event.node_id)
        return self._snapshot(event)

    def run_trace(self, events) -> List[BaselineStepReport]:
        """Apply a sequence of churn events."""
        return [self.apply_event(event) for event in events]

    def join(self, role: NodeRole = NodeRole.HONEST, node_id=None, contact_cluster=None):
        """Convenience wrapper mirroring :meth:`NowEngine.join`."""
        return self.apply_event(
            ChurnEvent.join(role=role, node_id=node_id, contact_cluster=contact_cluster)
        )

    def leave(self, node_id: NodeId):
        """Convenience wrapper mirroring :meth:`NowEngine.leave`."""
        return self.apply_event(ChurnEvent.leave(node_id))

    # ------------------------------------------------------------------
    # Scheme-specific behaviour
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def handle_join(self, node_id: NodeId, contact_cluster: Optional[ClusterId]) -> None:
        """Place a newly joined node according to the baseline's rule."""

    @abc.abstractmethod
    def handle_leave(self, node_id: NodeId) -> None:
        """Handle a departure according to the baseline's rule."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _snapshot(self, event: ChurnEvent) -> BaselineStepReport:
        # All O(1): read the incrementally maintained corruption statistics.
        return BaselineStepReport(
            time_step=self.state.time_step,
            event=event,
            network_size=self.network_size,
            cluster_count=self.cluster_count,
            worst_byzantine_fraction=self.worst_cluster_fraction(),
            compromised_clusters=self.compromised_clusters(),
        )

    def _resolve_contact(self, contact_cluster: Optional[ClusterId]) -> ClusterId:
        if contact_cluster is not None and contact_cluster in self.state.clusters:
            return contact_cluster
        return self.random_cluster()

    def _remove_from_cluster(self, node_id: NodeId) -> ClusterId:
        cluster_id = self.state.clusters.cluster_of(node_id)
        self.state.clusters.remove_member(cluster_id, node_id)
        return cluster_id
