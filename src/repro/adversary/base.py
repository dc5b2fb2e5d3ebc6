"""Adversary interface.

An adversary is an *event source*: at each time step it may emit one churn
event (the model allows one join or leave per step).  It observes the full
system state — matching the paper's full-knowledge assumption — through an
:class:`AdversaryContext`, which exposes read-only views of cluster
composition and corruption fractions but no mutation beyond the events it
returns.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.cluster import ClusterId
from ..core.engine import NowEngine
from ..core.events import ChurnEvent
from ..network.node import NodeId


@dataclass
class AdversaryContext:
    """Read-only, full-knowledge view of the system offered to an adversary."""

    engine: NowEngine

    # ------------------------------------------------------------------
    # Knowledge of the clustering
    # ------------------------------------------------------------------
    def cluster_ids(self) -> List[ClusterId]:
        """All live cluster identifiers."""
        return self.engine.state.clusters.cluster_ids()

    def cluster_members(self, cluster_id: ClusterId) -> List[NodeId]:
        """Members of a cluster (the adversary sees everything)."""
        return self.engine.state.clusters.get(cluster_id).member_list()

    def cluster_of(self, node_id: NodeId) -> ClusterId:
        """The cluster currently hosting ``node_id``."""
        return self.engine.state.clusters.cluster_of(node_id)

    def byzantine_fraction(self, cluster_id: ClusterId) -> float:
        """Corruption fraction of a cluster."""
        return self.engine.state.cluster_byzantine_fraction(cluster_id)

    def byzantine_fractions(self) -> Dict[ClusterId, float]:
        """Corruption fraction of every cluster."""
        return self.engine.byzantine_fractions()

    # ------------------------------------------------------------------
    # Knowledge of the adversary's own resources
    # ------------------------------------------------------------------
    def controlled_nodes(self) -> Set[NodeId]:
        """Active nodes the adversary controls."""
        return self.engine.state.nodes.active_byzantine()

    def honest_nodes(self) -> List[NodeId]:
        """Active honest nodes (targets for forced departures)."""
        byzantine = self.controlled_nodes()
        return [
            node_id
            for node_id in self.engine.state.nodes.active_nodes()
            if node_id not in byzantine
        ]

    def controlled_in_cluster(self, cluster_id: ClusterId) -> List[NodeId]:
        """Adversary-controlled members of a specific cluster."""
        byzantine = self.controlled_nodes()
        return [
            node_id
            for node_id in self.cluster_members(cluster_id)
            if node_id in byzantine
        ]

    def network_size(self) -> int:
        """Current system size."""
        return self.engine.network_size

    def global_byzantine_fraction(self) -> float:
        """Fraction of all active nodes the adversary controls."""
        return self.engine.state.nodes.byzantine_fraction()


class Adversary(abc.ABC):
    """Base class for churn-driving adversaries."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    @abc.abstractmethod
    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        """Return the churn event for this time step (``None`` to stay idle)."""

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of the adversary's RNG stream and mutable state."""
        from ..rng import rng_state_to_json  # local import: avoids a cycle

        return {
            "kind": type(self).__name__,
            "rng": rng_state_to_json(self._rng.getstate()),
            "extra": self._snapshot_extra(),
        }

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot onto an adversary built with the same spec."""
        from ..errors import ConfigurationError
        from ..rng import rng_state_from_json

        if data.get("kind") != type(self).__name__:
            raise ConfigurationError(
                f"snapshot is for {data.get('kind')!r}, not {type(self).__name__!r}"
            )
        self._rng.setstate(rng_state_from_json(data["rng"]))
        self._restore_extra(data.get("extra", {}))

    def _snapshot_extra(self) -> dict:
        """Subclass hook: mutable fields beyond the RNG (default: none)."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Subclass hook: inverse of :meth:`_snapshot_extra`."""

    def name(self) -> str:
        """Human-readable adversary name (used in experiment tables)."""
        return type(self).__name__
