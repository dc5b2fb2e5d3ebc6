"""Unit tests for the adversary models."""

from __future__ import annotations

import random

import pytest

from repro import NowEngine, default_parameters
from repro.adversary import (
    AdaptiveCorruptionAdversary,
    AdversaryContext,
    JoinLeaveAttack,
    ObliviousChurnAdversary,
    TargetedDosAdversary,
)
from repro.baselines import NoShuffleEngine
from repro.core.events import ChurnKind
from repro.network.node import NodeRole
from repro.scenarios import SimulationRunner


@pytest.fixture
def attack_engine():
    params = default_parameters(max_size=1024, k=2.0, tau=0.15, epsilon=0.05)
    return NowEngine.bootstrap(params, initial_size=120, byzantine_fraction=0.15, seed=5)


class TestAdversaryContext:
    def test_full_knowledge_views(self, attack_engine):
        context = AdversaryContext(attack_engine)
        cluster_ids = context.cluster_ids()
        assert cluster_ids == attack_engine.state.clusters.cluster_ids()
        member = context.cluster_members(cluster_ids[0])[0]
        assert context.cluster_of(member) == cluster_ids[0]
        assert 0.0 <= context.byzantine_fraction(cluster_ids[0]) <= 1.0
        assert context.network_size() == attack_engine.network_size
        assert context.global_byzantine_fraction() == pytest.approx(0.15, abs=0.02)

    def test_controlled_and_honest_partition(self, attack_engine):
        context = AdversaryContext(attack_engine)
        controlled = context.controlled_nodes()
        honest = set(context.honest_nodes())
        assert controlled.isdisjoint(honest)
        assert len(controlled) + len(honest) == attack_engine.network_size

    def test_controlled_in_cluster(self, attack_engine):
        context = AdversaryContext(attack_engine)
        cluster_id = context.cluster_ids()[0]
        members = set(context.cluster_members(cluster_id))
        for node_id in context.controlled_in_cluster(cluster_id):
            assert node_id in members
            assert node_id in context.controlled_nodes()


class TestJoinLeaveAttack:
    def test_alternates_leave_and_rejoin(self, attack_engine):
        target = attack_engine.state.clusters.cluster_ids()[0]
        attack = JoinLeaveAttack(random.Random(1), target_cluster=target)
        context = AdversaryContext(attack_engine)
        first = attack.next_event(context)
        assert first.kind is ChurnKind.LEAVE
        attack_engine.apply_event(first)
        second = attack.next_event(context)
        assert second.kind is ChurnKind.JOIN
        assert second.role is NodeRole.BYZANTINE
        assert second.contact_cluster == target
        assert second.node_id == first.node_id  # the same controlled node re-joins

    def test_run_does_not_capture_now_cluster(self, attack_engine):
        """NOW's shuffling keeps the targeted cluster honest-majority."""
        target = attack_engine.state.clusters.cluster_ids()[0]
        attack = JoinLeaveAttack(random.Random(1), target_cluster=target)
        SimulationRunner(attack_engine, attack).run(60)
        if target in attack_engine.state.clusters:
            assert attack_engine.state.cluster_byzantine_fraction(target) < 0.5

    def test_captures_no_shuffle_baseline(self):
        params = default_parameters(max_size=1024, k=2.0, tau=0.15, epsilon=0.05)
        baseline = NoShuffleEngine.bootstrap(
            params, initial_size=120, byzantine_fraction=0.15, seed=5
        )
        target = baseline.state.clusters.cluster_ids()[0]
        attack = JoinLeaveAttack(random.Random(1), target_cluster=target)
        SimulationRunner(baseline, attack).run(120)
        assert baseline.worst_cluster_fraction() >= 1.0 / 3.0

    def test_idles_when_no_controlled_nodes(self):
        params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)
        engine = NowEngine.bootstrap(params, initial_size=120, byzantine_fraction=0.0, seed=5)
        attack = JoinLeaveAttack(random.Random(1))
        assert attack.next_event(AdversaryContext(engine)) is None


class TestTargetedDos:
    def test_forces_honest_departures_from_target(self, attack_engine):
        target = attack_engine.state.clusters.cluster_ids()[0]
        adversary = TargetedDosAdversary(
            random.Random(2), target_cluster=target, rejoin_victims=False
        )
        context = AdversaryContext(attack_engine)
        event = adversary.next_event(context)
        assert event.kind is ChurnKind.LEAVE
        assert not attack_engine.state.nodes.is_byzantine(event.node_id)
        assert attack_engine.state.clusters.cluster_of(event.node_id) == target

    def test_run_keeps_now_safe(self, attack_engine):
        adversary = TargetedDosAdversary(random.Random(2))
        SimulationRunner(attack_engine, adversary).run(40)
        assert attack_engine.worst_cluster_fraction() < 0.5

    def test_name(self):
        assert TargetedDosAdversary(random.Random(0)).name() == "TargetedDosAdversary"


class TestObliviousChurn:
    def test_emits_leaves_then_rejoins(self, attack_engine):
        adversary = ObliviousChurnAdversary(random.Random(3), join_probability=1.0)
        context = AdversaryContext(attack_engine)
        first = adversary.next_event(context)
        assert first.kind is ChurnKind.LEAVE
        attack_engine.apply_event(first)
        second = adversary.next_event(context)
        assert second.kind is ChurnKind.JOIN

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ObliviousChurnAdversary(random.Random(3), join_probability=2.0)


class TestAdaptiveCorruption:
    def test_grows_global_fraction(self, attack_engine):
        adversary = AdaptiveCorruptionAdversary(random.Random(4))
        before = attack_engine.state.nodes.byzantine_fraction()
        SimulationRunner(attack_engine, adversary).run(30)
        after = attack_engine.state.nodes.byzantine_fraction()
        assert after > before
