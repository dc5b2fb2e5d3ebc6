"""Unit tests for the scenarios subsystem (Scenario / SimulationRunner / probes)."""

from __future__ import annotations

import random

import pytest

from repro import EngineProtocol, NowEngine, Scenario, SimulationRunner, default_parameters
from repro.baselines import CuckooRuleEngine, NoShuffleEngine, StaticClusterEngine
from repro.errors import ConfigurationError
from repro.scenarios import (
    NAMED_SCENARIOS,
    CallbackProbe,
    CorruptionTrajectoryProbe,
    CostLedgerProbe,
    SizeTrajectoryProbe,
    named_scenario,
    stop_when_size_at_least,
)
from repro.workloads import GrowthWorkload, UniformChurn

PARAMS = dict(max_size=1024, initial_size=100, tau=0.1, k=2.0, seed=7)


def small_scenario(**overrides) -> Scenario:
    fields = dict(PARAMS)
    fields.update(overrides)
    return Scenario(name=fields.pop("name", "test"), **fields)


class TestSimulationRunner:
    def test_fixed_step_run_counts_events(self):
        scenario = small_scenario(steps=25)
        result = scenario.run()
        assert result.steps == 25
        assert result.events + result.idle_steps == 25
        assert result.stop_reason == "steps exhausted"
        assert result.final_size > 0
        assert result.events_per_second > 0

    def test_callback_probe_collects_per_step_reports(self):
        probe = CallbackProbe(lambda engine, report, step: report)
        result = small_scenario(steps=10).run(probes=[probe])
        assert len(probe.values) == result.events
        assert all(hasattr(report, "worst_byzantine_fraction") for report in probe.values)

    def test_idle_streak_stops_finite_workloads(self):
        scenario = small_scenario(
            steps=500,
            workload={"kind": "growth", "target_size": PARAMS["initial_size"] + 10},
            max_idle_streak=3,
        )
        result = scenario.run()
        assert result.stop_reason == "source idle"
        assert result.final_size == PARAMS["initial_size"] + 10

    def test_stop_condition_ends_run_with_reason(self):
        scenario = small_scenario(
            steps=500, workload={"kind": "growth", "target_size": 400}
        )
        target = PARAMS["initial_size"] + 15
        result = scenario.run(stop_conditions=[stop_when_size_at_least(target)])
        assert result.stop_reason == f"size >= {target}"
        assert result.final_size == target
        assert result.steps < 500

    def test_run_until_size_grows_and_is_reentrant(self):
        engine = small_scenario().build_engine()
        workload = GrowthWorkload(random.Random(8), target_size=300, byzantine_join_fraction=0.1)
        runner = SimulationRunner(engine, workload, max_idle_streak=2)
        first = runner.run_until_size(PARAMS["initial_size"] + 10, max_steps=200)
        assert engine.network_size == PARAMS["initial_size"] + 10
        second = runner.run_until_size(PARAMS["initial_size"] + 10, max_steps=200)
        assert second.steps == 0  # already at the target
        third = runner.run_until_size(PARAMS["initial_size"] + 20, max_steps=200)
        assert engine.network_size == PARAMS["initial_size"] + 20
        assert runner.total_events == first.events + third.events

    def test_rejects_sources_without_next_event(self):
        engine = small_scenario().build_engine()
        with pytest.raises(ConfigurationError):
            SimulationRunner(engine, object())

    def test_rejects_duplicate_probe_names(self):
        engine = small_scenario().build_engine()
        workload = UniformChurn(random.Random(3))
        with pytest.raises(ConfigurationError, match="duplicate probe names"):
            SimulationRunner(
                engine,
                workload,
                probes=[CallbackProbe(lambda *a: None), CallbackProbe(lambda *a: None)],
            )

    def test_summary_table_renders(self):
        result = small_scenario(steps=5).run()
        table = result.summary_table()
        assert "events applied" in table
        assert "stop reason" in table


class TestProbes:
    def test_corruption_probe_tracks_every_event(self):
        probe = CorruptionTrajectoryProbe()
        result = small_scenario(steps=20).run(probes=[probe])
        assert len(probe.series) == result.events
        assert probe.peak == max(probe.series)
        assert result.probes["corruption"]["peak"] == probe.peak
        summary = probe.summary()
        assert summary.count == result.events

    def test_corruption_probe_threshold_capture(self):
        probe = CorruptionTrajectoryProbe(threshold=0.0)
        small_scenario(steps=5).run(probes=[probe])
        assert probe.captured
        assert probe.first_step_at_threshold == 1

    def test_size_probe_matches_engine(self):
        probe = SizeTrajectoryProbe()
        scenario = small_scenario(steps=15)
        result = scenario.run(probes=[probe])
        assert len(probe.sizes) == result.events
        assert probe.result()["final_size"] == result.final_size

    def test_cost_probe_groups_by_operation(self):
        probe = CostLedgerProbe()
        result = small_scenario(steps=30).run(probes=[probe])
        assert set(probe.messages_by_operation) <= {"join", "leave"}
        assert sum(probe.count(name) for name in probe.messages_by_operation) == result.events
        assert probe.total_messages() > 0
        assert probe.mean_messages_overall() > 0

    def test_cost_probe_records_zero_for_baselines(self):
        probe = CostLedgerProbe()
        small_scenario(steps=10, engine="no_shuffle").run(probes=[probe])
        assert probe.total_messages() == 0
        assert sum(probe.count(name) for name in probe.messages_by_operation) > 0

    def test_callback_probe_sampling_interval(self):
        probe = CallbackProbe(lambda engine, report, step: engine.network_size, every=5)
        result = small_scenario(steps=20).run(probes=[probe])
        assert len(probe.values) == result.events // 5

    def test_callback_probe_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CallbackProbe(lambda *a: None, every=0)


class TestScenario:
    def test_json_round_trip(self):
        scenario = named_scenario("join-leave-attack", seed=9)
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"name": "x", "bogus": 1})

    def test_unknown_engine_workload_adversary_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario(engine="nope").build_engine()
        with pytest.raises(ConfigurationError):
            small_scenario(workload={"kind": "nope"}).run()
        with pytest.raises(ConfigurationError):
            small_scenario(adversary={"kind": "nope"}).run()

    def test_scenario_without_sources_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario(workload=None).run()

    def test_builds_every_engine_flavour(self):
        assert isinstance(small_scenario().build_engine(), NowEngine)
        assert isinstance(
            small_scenario(engine="no_shuffle").build_engine(), NoShuffleEngine
        )
        assert isinstance(
            small_scenario(engine="cuckoo_rule").build_engine(), CuckooRuleEngine
        )
        assert isinstance(
            small_scenario(engine="static_clusters").build_engine(), StaticClusterEngine
        )

    def test_engines_satisfy_engine_protocol(self):
        for flavour in ("now", "no_shuffle", "cuckoo_rule", "static_clusters"):
            engine = small_scenario(engine=flavour).build_engine()
            assert isinstance(engine, EngineProtocol)

    def test_adversary_target_first_resolves(self):
        scenario = small_scenario(
            steps=20,
            tau=0.2,
            adversary={"kind": "join_leave", "target_cluster": "first"},
            adversary_weight=0.5,
        )
        result = scenario.run(probes=[CorruptionTrajectoryProbe()])
        assert result.events > 0

    def test_walk_mode_string_in_engine_options(self):
        scenario = small_scenario(engine_options={"walk_mode": "simulated"}, steps=5)
        result = scenario.run()
        assert result.events == 5

    def test_named_scenarios_all_build(self):
        for name in NAMED_SCENARIOS:
            scenario = named_scenario(name, initial_size=80, max_size=512, steps=3)
            assert scenario.name == name
            assert scenario.build_engine().network_size == 80

    def test_named_scenario_unknown(self):
        with pytest.raises(ConfigurationError):
            named_scenario("does-not-exist")

    def test_seed_reproducibility(self):
        sizes = [
            CallbackProbe(lambda engine, report, step: report.network_size) for _ in range(2)
        ]
        first = small_scenario(steps=15).run(probes=[sizes[0]])
        second = small_scenario(steps=15).run(probes=[sizes[1]])
        assert sizes[0].values == sizes[1].values
        assert first.final_worst_fraction == second.final_worst_fraction


class TestEngineProtocolSurface:
    def test_baselines_share_now_observation_surface(self):
        now = small_scenario().build_engine()
        baseline = small_scenario(engine="no_shuffle").build_engine()
        for engine in (now, baseline):
            assert engine.network_size > 0
            assert engine.cluster_count > 0
            assert set(engine.cluster_sizes()) == set(engine.byzantine_fractions())
            assert 0.0 <= engine.worst_cluster_fraction() <= 1.0
            assert isinstance(engine.compromised_clusters(), list)
            assert engine.random_member() in engine.active_nodes()
            assert engine.random_cluster() in engine.state.clusters
            assert engine.metrics is engine.state.metrics
