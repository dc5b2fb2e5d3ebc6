"""Unit tests for churn events, node descriptors and engine configuration edges."""

from __future__ import annotations

import pytest

from repro import ChurnEvent, ChurnKind, EngineConfig, NowEngine, default_parameters
from repro.errors import NetworkSizeError
from repro.network.node import NodeDescriptor, NodeRole, NodeState
from repro.walks.sampler import WalkMode


class TestChurnEvent:
    def test_join_constructor_defaults(self):
        event = ChurnEvent.join()
        assert event.kind is ChurnKind.JOIN
        assert event.role is NodeRole.HONEST
        assert event.node_id is None
        assert event.contact_cluster is None

    def test_join_constructor_with_targeting(self):
        event = ChurnEvent.join(role=NodeRole.BYZANTINE, node_id=9, contact_cluster=2)
        assert event.role is NodeRole.BYZANTINE
        assert event.node_id == 9
        assert event.contact_cluster == 2

    def test_leave_constructor(self):
        event = ChurnEvent.leave(5)
        assert event.kind is ChurnKind.LEAVE
        assert event.node_id == 5

    def test_events_are_immutable(self):
        event = ChurnEvent.join()
        with pytest.raises(Exception):
            event.node_id = 3  # type: ignore[misc]

    def test_kind_string_value(self):
        assert str(ChurnKind.JOIN) == "join"
        assert str(ChurnKind.LEAVE) == "leave"


class TestNodeDescriptor:
    def test_defaults(self):
        descriptor = NodeDescriptor(node_id=1)
        assert descriptor.is_honest
        assert not descriptor.is_byzantine
        assert descriptor.is_active
        assert descriptor.state is NodeState.ACTIVE

    def test_mark_left_and_crashed(self):
        descriptor = NodeDescriptor(node_id=1)
        descriptor.mark_left(7)
        assert descriptor.state is NodeState.LEFT
        assert descriptor.left_at == 7
        other = NodeDescriptor(node_id=2)
        other.mark_crashed(9)
        assert other.state is NodeState.CRASHED
        assert not other.is_active

    def test_role_strings(self):
        assert str(NodeRole.HONEST) == "honest"
        assert str(NodeState.LEFT) == "left"

    def test_attributes_bag(self):
        descriptor = NodeDescriptor(node_id=1, attributes={"region": "eu"})
        assert descriptor.attributes["region"] == "eu"


class TestEngineConfig:
    def test_defaults_match_paper_protocol(self):
        config = EngineConfig()
        assert config.walk_mode is WalkMode.ORACLE
        assert config.cascade_exchanges is True
        assert config.strict_compromise is False
        assert config.enforce_size_range is False

    def test_enforce_size_range_raises_outside_band(self):
        params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05, min_size=130)
        engine = NowEngine.bootstrap(
            params,
            initial_size=130,
            byzantine_fraction=0.1,
            seed=1,
            config=EngineConfig(enforce_size_range=True),
        )
        # One leave drops the size below the configured minimum of 130.
        with pytest.raises(NetworkSizeError):
            engine.leave(engine.random_member())

    def test_enforce_size_range_allows_inside_band(self):
        params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05, min_size=100)
        engine = NowEngine.bootstrap(
            params,
            initial_size=130,
            byzantine_fraction=0.1,
            seed=1,
            config=EngineConfig(enforce_size_range=True),
        )
        engine.leave(engine.random_member())
        engine.join()
        assert engine.network_size == 130
