"""Parity tests for the incremental state accounting.

The engine stack answers ``network_size``, per-cluster Byzantine fractions,
the compromised set, the worst fraction and uniform sampling from counters
maintained event-by-event (swap-delete arrays in the node registry, the
:class:`~repro.core.state.CorruptionTracker` behind the cluster registry).
These tests assert the one invariant that makes the optimisation safe: after
*any* sequence of joins, leaves, re-joins, role flips and cluster membership
operations, the incremental counters exactly match a from-scratch
recomputation over the ground-truth descriptors.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import NowEngine, default_parameters
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.scenarios import SimulationRunner
from repro.workloads import UniformChurn


# ----------------------------------------------------------------------
# From-scratch recomputation (the specification)
# ----------------------------------------------------------------------
def recompute_node_stats(state: SystemState):
    active = sorted(
        descriptor.node_id for descriptor in state.nodes.descriptors() if descriptor.is_active
    )
    byzantine = {
        descriptor.node_id
        for descriptor in state.nodes.descriptors()
        if descriptor.is_active and descriptor.is_byzantine
    }
    return active, byzantine


def recompute_fractions(state: SystemState):
    fractions = {}
    for cluster in state.clusters.clusters():
        if not cluster.members:
            fractions[cluster.cluster_id] = 0.0
            continue
        corrupt = sum(
            1
            for node_id in cluster.members
            if node_id in state.nodes and state.nodes.is_byzantine(node_id)
        )
        fractions[cluster.cluster_id] = corrupt / len(cluster.members)
    return fractions


def assert_counters_match(state: SystemState) -> None:
    active, byzantine = recompute_node_stats(state)
    assert state.nodes.active_nodes() == active
    assert state.nodes.active_count() == len(active)
    assert state.nodes.active_byzantine() == byzantine
    expected_fraction = len(byzantine) / len(active) if active else 0.0
    assert state.nodes.byzantine_fraction() == pytest.approx(expected_fraction)

    fractions = recompute_fractions(state)
    assert state.byzantine_fractions() == fractions
    assert state.network_size == sum(len(c) for c in state.clusters.clusters())
    expected_worst = max(fractions.values()) if fractions else 0.0
    assert state.worst_cluster_fraction() == pytest.approx(expected_worst)
    threshold = state.parameters.byzantine_alarm_fraction
    expected_compromised = sorted(
        cluster_id for cluster_id, fraction in fractions.items() if fraction >= threshold
    )
    assert state.compromised_clusters() == expected_compromised


# ----------------------------------------------------------------------
# Structural property test: arbitrary registry-level operation sequences
# ----------------------------------------------------------------------
OP_CODES = st.integers(min_value=0, max_value=8)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OP_CODES, min_size=1, max_size=60), seed=st.integers(0, 2**32 - 1))
def test_counters_match_recompute_after_arbitrary_operations(ops, seed):
    rng = random.Random(seed)
    params = default_parameters(max_size=512, k=2.0, tau=0.2, epsilon=0.05)
    state = SystemState(parameters=params, rng=random.Random(seed + 1))

    def active_unassigned():
        return [
            d.node_id
            for d in state.nodes.descriptors()
            if d.is_active and not state.clusters.contains_node(d.node_id)
        ]

    def assigned():
        return [
            d.node_id for d in state.nodes.descriptors() if state.clusters.contains_node(d.node_id)
        ]

    for op in ops:
        if op == 0:  # register (possibly Byzantine)
            role = NodeRole.BYZANTINE if rng.random() < 0.3 else NodeRole.HONEST
            state.nodes.register(role=role)
        elif op == 1:  # a random active node leaves
            candidates = [d.node_id for d in state.nodes.descriptors() if d.is_active]
            if candidates:
                state.nodes.mark_left(rng.choice(candidates), time_step=1)
        elif op == 2:  # a departed node re-joins
            candidates = [d.node_id for d in state.nodes.descriptors() if not d.is_active]
            if candidates:
                state.nodes.reactivate(rng.choice(candidates), time_step=2)
        elif op == 3:  # adaptive corruption / repair: flip a node's role in place
            candidates = [d.node_id for d in state.nodes.descriptors()]
            if candidates:
                descriptor = state.nodes.get(rng.choice(candidates))
                descriptor.role = (
                    NodeRole.HONEST if descriptor.is_byzantine else NodeRole.BYZANTINE
                )
        elif op == 4:  # form a cluster out of unassigned active nodes
            pool = active_unassigned()
            if pool:
                rng.shuffle(pool)
                state.clusters.create_cluster(pool[: rng.randint(1, len(pool))])
        elif op == 5:  # move a member to another cluster
            members = assigned()
            targets = state.clusters.cluster_ids()
            if members and len(targets) >= 2:
                state.clusters.move_member(rng.choice(members), rng.choice(targets))
        elif op == 6:  # swap members between two clusters (an exchange step)
            targets = state.clusters.cluster_ids()
            if len(targets) >= 2:
                first, second = rng.sample(targets, 2)
                first_members = state.clusters.get(first).member_list()
                second_members = state.clusters.get(second).member_list()
                if first_members and second_members:
                    state.clusters.swap_members(
                        first, rng.choice(first_members), second, rng.choice(second_members)
                    )
        elif op == 7:  # remove a member from its cluster
            members = assigned()
            if members:
                node_id = rng.choice(members)
                state.clusters.remove_member(state.clusters.cluster_of(node_id), node_id)
        elif op == 8:  # dissolve a cluster
            targets = state.clusters.cluster_ids()
            if targets:
                state.clusters.dissolve_cluster(rng.choice(targets))
        assert_counters_match(state)


# ----------------------------------------------------------------------
# Engine-level parity: real churn through the maintenance operations
# ----------------------------------------------------------------------
class TestEngineLevelParity:
    def test_now_engine_counters_survive_churn(self):
        params = default_parameters(max_size=1024, k=2.0, tau=0.15, epsilon=0.05)
        engine = NowEngine.bootstrap(params, initial_size=120, byzantine_fraction=0.15, seed=11)
        workload = UniformChurn(random.Random(12), byzantine_join_fraction=0.15)
        SimulationRunner(engine, workload).run(120)
        assert_counters_match(engine.state)

    def test_now_engine_counters_survive_adaptive_corruption(self):
        params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)
        engine = NowEngine.bootstrap(params, initial_size=100, byzantine_fraction=0.1, seed=21)
        rng = random.Random(22)
        workload = UniformChurn(rng, byzantine_join_fraction=0.1)
        for _ in range(60):
            event = workload.next_event(engine)
            if event is not None:
                engine.apply_event(event)
            if rng.random() < 0.25:  # corrupt a random member mid-run
                engine.state.nodes.get(engine.random_member()).role = NodeRole.BYZANTINE
        assert_counters_match(engine.state)

    def test_baseline_engine_counters_survive_churn(self):
        from repro.baselines import NoShuffleEngine

        params = default_parameters(max_size=1024, k=2.0, tau=0.2, epsilon=0.05)
        engine = NoShuffleEngine.bootstrap(
            params, initial_size=100, byzantine_fraction=0.2, seed=31
        )
        workload = UniformChurn(random.Random(32), byzantine_join_fraction=0.2)
        SimulationRunner(engine, workload).run(120)
        assert_counters_match(engine.state)


# ----------------------------------------------------------------------
# O(1) sampling paths
# ----------------------------------------------------------------------
class TestSampling:
    def test_sampled_members_are_active_and_honest_when_requested(self):
        params = default_parameters(max_size=512, k=2.0, tau=0.25, epsilon=0.05)
        engine = NowEngine.bootstrap(params, initial_size=80, byzantine_fraction=0.25, seed=41)
        byzantine = engine.state.nodes.active_byzantine()
        for _ in range(50):
            member = engine.random_member()
            assert engine.state.nodes.is_active(member)
            honest = engine.random_member(honest_only=True)
            assert honest not in byzantine
            assert engine.state.nodes.is_active(honest)

    def test_sampling_errors_when_empty(self):
        params = default_parameters(max_size=512, k=2.0, tau=0.1, epsilon=0.05)
        state = SystemState(parameters=params, rng=random.Random(1))
        with pytest.raises(ConfigurationError):
            state.nodes.sample_active(state.rng)
        with pytest.raises(ConfigurationError):
            state.nodes.sample_active_honest(state.rng)

    def test_honest_sampling_errors_when_all_byzantine(self):
        params = default_parameters(max_size=512, k=2.0, tau=0.1, epsilon=0.05)
        state = SystemState(parameters=params, rng=random.Random(2))
        state.nodes.register(role=NodeRole.BYZANTINE)
        with pytest.raises(ConfigurationError):
            state.nodes.sample_active_honest(state.rng)

    def test_scan_counters_stay_flat_during_sampling(self):
        params = default_parameters(max_size=512, k=2.0, tau=0.2, epsilon=0.05)
        engine = NowEngine.bootstrap(params, initial_size=80, byzantine_fraction=0.2, seed=51)
        before = engine.state.nodes.full_scan_count
        for _ in range(100):
            engine.random_member()
            engine.random_member(honest_only=True)
            engine.random_cluster()
        assert engine.state.nodes.full_scan_count == before
