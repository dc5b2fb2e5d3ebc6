"""Tests for the checkpoint half of ``repro.trace``.

The load-bearing property is *resume equals uninterrupted*: a run
checkpointed at step S and resumed to step T must land in a state
bit-identical (same state hash, which includes the RNG stream digest and
every RNG-visible array order) to the same scenario run straight through to
T.  That property is checked directly for every engine flavour the
scenarios support and property-tested under random churn mixes with
hypothesis.
"""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.core.cluster import Cluster, ClusterRegistry
from repro.core.engine import NowEngine
from repro.core.state import NodeRegistry
from repro.errors import ConfigurationError
from repro.network.metrics import MetricsRegistry
from repro.overlay.graph import OverlayGraph
from repro.scenarios.runner import SimulationRunner
from repro.trace import (
    Checkpoint,
    record_scenario,
    resume_from_checkpoint,
    state_fingerprint,
    state_hash,
    write_json_atomic,
)

PARAMS = dict(max_size=1024, initial_size=100, tau=0.1, k=2.0, seed=7)


def small_scenario(**overrides) -> Scenario:
    fields = dict(PARAMS)
    fields.update(overrides)
    return Scenario(name=fields.pop("name", "ckpt-test"), **fields)


def run_split(scenario: Scenario, first: int, second: int, tmp_path) -> str:
    """Run ``first`` steps, checkpoint, resume ``second`` steps; final hash."""
    path = os.path.join(str(tmp_path), "split.ckpt.json")
    record_scenario(scenario, steps=first, checkpoint_path=path, checkpoint_every=10**9)
    resumed = resume_from_checkpoint(path, steps=second)
    return resumed.final_state_hash


def run_straight(scenario: Scenario, steps: int) -> str:
    """Run ``steps`` steps uninterrupted; final hash."""
    engine = scenario.build_engine()
    runner = scenario.build_runner(engine=engine)
    runner.run(steps)
    return state_hash(engine)


class TestComponentSnapshots:
    def test_engine_snapshot_is_json_serialisable(self):
        scenario = small_scenario(steps=10)
        engine = scenario.build_engine()
        snapshot = engine.capture_snapshot()
        rebuilt = json.loads(json.dumps(snapshot))
        restored = NowEngine.restore(rebuilt)
        assert state_hash(restored) == state_hash(engine)

    def test_restored_engine_hash_and_fingerprint_match(self):
        scenario = small_scenario(steps=30)
        engine = scenario.build_engine()
        runner = scenario.build_runner(engine=engine)
        runner.run(30)
        restored = NowEngine.restore(engine.capture_snapshot())
        assert state_fingerprint(restored) == state_fingerprint(engine)

    def test_node_registry_round_trip_preserves_sampling_order(self):
        scenario = small_scenario(steps=20)
        engine = scenario.build_engine()
        scenario.build_runner(engine=engine).run(20)
        registry = engine.state.nodes
        restored = NodeRegistry.from_snapshot(
            json.loads(json.dumps(registry.snapshot_state()))
        )
        # Identical arrays => identical uniform draws for the same RNG state.
        assert restored.snapshot_state() == registry.snapshot_state()
        rng_a, rng_b = random.Random(3), random.Random(3)
        for _ in range(50):
            assert restored.sample_active(rng_a) == registry.sample_active(rng_b)
        assert restored.active_count() == registry.active_count()
        assert restored.byzantine_fraction() == registry.byzantine_fraction()

    def test_cluster_registry_round_trip(self):
        registry = ClusterRegistry()
        first = registry.create_cluster([1, 2, 3], created_at=4)
        registry.create_cluster([4, 5], created_at=5)
        first.exchanges_performed = 7
        restored = ClusterRegistry.from_snapshot(
            json.loads(json.dumps(registry.snapshot_state()))
        )
        assert restored.snapshot_state() == registry.snapshot_state()
        assert restored.cluster_of(5) == registry.cluster_of(5)
        assert restored.get(first.cluster_id).exchanges_performed == 7

    def test_cluster_snapshot_round_trip(self):
        cluster = Cluster(cluster_id=9, members={5, 1, 3}, created_at=2)
        cluster.last_full_exchange = 11
        restored = Cluster.from_snapshot(json.loads(json.dumps(cluster.snapshot_state())))
        assert restored.members == cluster.members
        assert restored.member_list() == [1, 3, 5]
        assert restored.last_full_exchange == 11

    def test_overlay_graph_round_trip_preserves_version_and_tables(self):
        graph = OverlayGraph()
        for vertex in (4, 1, 9):
            graph.add_vertex(vertex, weight=float(vertex))
        graph.add_edge(4, 1)
        graph.add_edge(9, 1)
        graph.remove_vertex(4)
        restored = OverlayGraph.from_snapshot(json.loads(json.dumps(graph.snapshot_state())))
        assert restored.version == graph.version
        assert restored.snapshot_state() == graph.snapshot_state()
        assert restored.neighbour_table(1) == graph.neighbour_table(1)
        rng_a, rng_b = random.Random(5), random.Random(5)
        for _ in range(20):
            assert restored.sample_weighted_vertex(rng_a) == graph.sample_weighted_vertex(rng_b)

    def test_metrics_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.scope("join").charge(10, 2, label="x")
        restored = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(registry.snapshot()))
        )
        assert restored.snapshot() == registry.snapshot()


class TestCheckpointFile:
    def test_capture_save_load_restore(self, tmp_path):
        scenario = small_scenario(steps=15)
        engine = scenario.build_engine()
        runner = scenario.build_runner(engine=engine)
        runner.run(15)
        checkpoint = Checkpoint.capture(
            engine, source=runner.source, scenario=scenario, steps_done=15, events_done=runner.total_events
        )
        path = os.path.join(str(tmp_path), "c.json")
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.steps_done == 15
        assert loaded.captured_hash == state_hash(engine)
        assert state_hash(loaded.restore_engine()) == state_hash(engine)

    def test_restore_detects_tampered_state(self, tmp_path):
        scenario = small_scenario(steps=5)
        engine = scenario.build_engine()
        checkpoint = Checkpoint.capture(engine, scenario=scenario)
        data = json.loads(json.dumps(checkpoint.data))
        data["engine"]["state"]["time_step"] += 1
        with pytest.raises(ConfigurationError):
            Checkpoint(data).restore_engine()

    def test_restore_detects_tampered_honest_order(self, tmp_path):
        # honest_list order is RNG-visible (honest_only draws index into
        # it); the integrity hash must cover it.
        scenario = small_scenario(steps=5)
        engine = scenario.build_engine()
        checkpoint = Checkpoint.capture(engine, scenario=scenario)
        data = json.loads(json.dumps(checkpoint.data))
        honest = data["engine"]["state"]["nodes"]["honest_list"]
        honest[0], honest[1] = honest[1], honest[0]
        with pytest.raises(ConfigurationError):
            Checkpoint(data).restore_engine()

    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = os.path.join(str(tmp_path), "doc.json")
        write_json_atomic(path, {"a": 1})
        write_json_atomic(path, {"a": 2})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"a": 2}
        assert [entry for entry in os.listdir(str(tmp_path)) if entry.startswith(".tmp-")] == []

    def test_capture_rejects_engine_without_snapshot_support(self):
        class Opaque:
            pass

        with pytest.raises(ConfigurationError):
            Checkpoint.capture(Opaque())

    def test_resume_requires_scenario(self, tmp_path):
        scenario = small_scenario(steps=5)
        engine = scenario.build_engine()
        checkpoint = Checkpoint.capture(engine)  # no scenario attached
        path = os.path.join(str(tmp_path), "c.json")
        checkpoint.save(path)
        with pytest.raises(ConfigurationError):
            resume_from_checkpoint(path, steps=1)


class TestResumeEqualsUninterrupted:
    def test_uniform_churn(self, tmp_path):
        total, cut = 80, 35
        straight = run_straight(small_scenario(steps=total), total)
        split = run_split(small_scenario(steps=total), cut, total - cut, tmp_path)
        assert split == straight

    def test_adversary_mix(self, tmp_path):
        fields = dict(
            steps=80,
            tau=0.2,
            adversary={"kind": "join_leave", "target_cluster": "first"},
            adversary_weight=0.5,
        )
        straight = run_straight(small_scenario(**fields), 80)
        split = run_split(small_scenario(**fields), 30, 50, tmp_path)
        assert split == straight

    def test_simulated_walk_mode(self, tmp_path):
        fields = dict(steps=60, engine_options={"walk_mode": "simulated"})
        straight = run_straight(small_scenario(**fields), 60)
        split = run_split(small_scenario(**fields), 25, 35, tmp_path)
        assert split == straight

    def test_oscillating_workload_state_survives(self, tmp_path):
        fields = dict(
            steps=90,
            workload={"kind": "oscillating", "low_size": 90, "high_size": 130},
        )
        straight = run_straight(small_scenario(**fields), 90)
        split = run_split(small_scenario(**fields), 45, 45, tmp_path)
        assert split == straight

    def test_default_resume_completes_original_budget(self, tmp_path):
        scenario = small_scenario(steps=50)
        straight = run_straight(small_scenario(steps=50), 50)
        path = os.path.join(str(tmp_path), "c.json")
        record_scenario(scenario, steps=20, checkpoint_path=path, checkpoint_every=10**9)
        resumed = resume_from_checkpoint(path)  # no steps: finish the budget
        assert resumed.result.steps == 30
        assert resumed.final_state_hash == straight

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cut=st.integers(min_value=1, max_value=59),
        adversarial=st.booleans(),
    )
    def test_property_random_churn(self, seed, cut, adversarial, tmp_path_factory):
        total = 60
        fields = dict(steps=total, seed=seed)
        if adversarial:
            fields.update(
                tau=0.2,
                adversary={"kind": "oblivious"},
                adversary_weight=0.4,
            )
        straight = run_straight(small_scenario(**fields), total)
        tmp_path = tmp_path_factory.mktemp("resume-prop")
        split = run_split(small_scenario(**fields), cut, total - cut, tmp_path)
        assert split == straight


class TestResumeBookkeeping:
    def test_counters_continue_across_resume(self, tmp_path):
        scenario = small_scenario(steps=40)
        path = os.path.join(str(tmp_path), "c.json")
        record_scenario(scenario, steps=25, checkpoint_path=path, checkpoint_every=10)
        checkpoint = Checkpoint.load(path)
        assert checkpoint.steps_done == 25
        resumed = resume_from_checkpoint(path, steps=15, checkpoint_every=10)
        assert resumed.result.steps == 15
        final = Checkpoint.load(path)
        assert final.steps_done == 40

    def test_runner_source_attribute_is_the_event_source(self):
        scenario = small_scenario(steps=5)
        engine = scenario.build_engine()
        source = scenario.build_source(engine)
        runner = SimulationRunner(engine, source, name="t")
        assert runner.source is source


class TestRetiredKeys:
    """Files written before ``record_history``/``keep_reports`` were retired.

    Checkpoints carried ``record_history`` in the engine config and
    ``keep_reports`` in the scenario; live-trace headers carried both (the
    live scenario set ``engine_options.record_history``).  Neither ever
    affected simulated state, so such files must still resume and replay to
    the same state hash.
    """

    def test_checkpoint_with_retired_keys_resumes_bit_identically(self, tmp_path):
        scenario = small_scenario(steps=30)
        path = os.path.join(str(tmp_path), "legacy.ckpt.json")
        record_scenario(scenario, steps=12, checkpoint_path=path, checkpoint_every=10**9)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["engine"]["config"]["record_history"] = True
        data["scenario"]["keep_reports"] = False
        write_json_atomic(path, data)
        resumed = resume_from_checkpoint(path, steps=18)
        assert resumed.final_state_hash == run_straight(scenario, 30)

    def test_live_trace_header_with_retired_keys_replays(self, tmp_path):
        from repro.service import LiveEngineSession, live_scenario
        from repro.trace import replay_trace

        path = tmp_path / "legacy-live.jsonl"
        session = LiveEngineSession(live_scenario(seed=5, initial_size=90, max_size=256))
        session.attach_trace(str(path), index_every=5)
        for index in range(12):
            session.execute({"op": "leave" if index % 3 == 0 else "join", "id": index})
        recorded = state_hash(session.engine)
        session.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["scenario"]["keep_reports"] = False
        header["scenario"]["engine_options"]["record_history"] = False
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = replay_trace(str(path))
        assert report.ok
        assert report.final_hash == recorded

    def test_other_unknown_keys_are_still_rejected(self):
        data = small_scenario().to_dict()
        data["keep_history"] = True
        with pytest.raises(ConfigurationError, match="keep_history"):
            Scenario.from_dict(data)
