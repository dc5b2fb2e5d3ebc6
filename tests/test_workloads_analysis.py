"""Unit tests for workload generators, drivers and the analysis helpers."""

from __future__ import annotations

import math
import random

import pytest

from repro import NowEngine, default_parameters
from repro.adversary import ObliviousChurnAdversary
from repro.analysis import (
    ExperimentTable,
    azuma_exceedance_bound,
    chernoff_cluster_tail,
    expected_fraction_after_exchange,
    fit_polylog,
    fit_power_law,
    format_table,
    recommended_k,
    summarize_values,
)
from repro.analysis.bounds import exact_binomial_tail, expected_recovery_exchanges
from repro.analysis.complexity import is_consistent_with_polylog
from repro.analysis.statistics import longest_run_above, quantile
from repro.core.events import ChurnKind

try:
    import numpy as _np
except ImportError:
    _np = None

requires_numpy = pytest.mark.skipif(
    _np is None, reason="requires numpy (least-squares complexity fits)"
)
from repro.errors import ConfigurationError
from repro.scenarios import CallbackProbe, SimulationRunner
from repro.workloads import (
    GrowthWorkload,
    MixedDriver,
    OscillatingWorkload,
    ShrinkWorkload,
    UniformChurn,
)


@pytest.fixture
def churn_engine():
    params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)
    return NowEngine.bootstrap(params, initial_size=120, byzantine_fraction=0.1, seed=9)


class TestWorkloads:
    def test_uniform_churn_keeps_size_roughly_stable(self, churn_engine):
        workload = UniformChurn(random.Random(1))
        SimulationRunner(churn_engine, workload).run(40)
        assert abs(churn_engine.network_size - 120) <= 20

    def test_uniform_churn_respects_lower_bound(self, churn_engine):
        workload = UniformChurn(random.Random(1), join_probability=0.0)
        SimulationRunner(churn_engine, workload).run(30)
        assert churn_engine.network_size >= min(120, churn_engine.parameters.lower_size_bound) - 30

    def test_uniform_churn_validates_probability(self):
        with pytest.raises(ConfigurationError):
            UniformChurn(random.Random(1), join_probability=1.5)

    def test_growth_workload_reaches_target_then_idles(self, churn_engine):
        workload = GrowthWorkload(random.Random(2), target_size=140)
        SimulationRunner(churn_engine, workload).run(60)
        assert churn_engine.network_size == 140
        assert workload.next_event(churn_engine) is None

    def test_shrink_workload_reaches_target(self, churn_engine):
        workload = ShrinkWorkload(random.Random(2), target_size=100)
        SimulationRunner(churn_engine, workload).run(60)
        assert churn_engine.network_size == 100

    def test_oscillating_workload_switches_direction(self, churn_engine):
        workload = OscillatingWorkload(
            random.Random(3), low_size=110, high_size=130, byzantine_join_fraction=0.1
        )
        kinds = []
        for _ in range(80):
            event = workload.next_event(churn_engine)
            kinds.append(event.kind)
            churn_engine.apply_event(event)
        assert ChurnKind.JOIN in kinds
        assert ChurnKind.LEAVE in kinds

    def test_oscillating_validates_sizes(self):
        with pytest.raises(ConfigurationError):
            OscillatingWorkload(random.Random(3), low_size=100, high_size=100)

    def test_growth_workload_validates_target(self):
        with pytest.raises(ConfigurationError):
            GrowthWorkload(random.Random(2), target_size=0)


class TestDrivers:
    def test_drive_returns_reports(self, churn_engine):
        workload = UniformChurn(random.Random(4))
        probe = CallbackProbe(lambda engine, report, step: report)
        result = SimulationRunner(churn_engine, workload, probes=[probe]).run(10)
        assert result.events == len(probe.values) == 10
        assert [report.time_step for report in probe.values] == list(range(1, 11))
        assert churn_engine.state.time_step == 10

    def test_drive_rejects_negative_steps(self, churn_engine):
        with pytest.raises(ConfigurationError):
            SimulationRunner(churn_engine, UniformChurn(random.Random(4))).run(-1)

    def test_mixed_driver_combines_sources(self, churn_engine):
        workload = UniformChurn(random.Random(5))
        adversary = ObliviousChurnAdversary(random.Random(6))
        driver = MixedDriver([(workload, 0.5), (adversary, 0.5)], random.Random(7))
        result = SimulationRunner(churn_engine, driver).run(20)
        assert result.events >= 15  # a source may occasionally idle

    def test_mixed_driver_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            MixedDriver([], random.Random(0))
        with pytest.raises(ConfigurationError):
            MixedDriver([(None, 0.0)], random.Random(0))


class TestBounds:
    def test_chernoff_tail_decreases_with_cluster_size(self):
        small = chernoff_cluster_tail(20, tau=0.2, epsilon=0.3)
        large = chernoff_cluster_tail(200, tau=0.2, epsilon=0.3)
        assert large < small < 1.0

    def test_chernoff_edge_cases(self):
        assert chernoff_cluster_tail(0, 0.2, 0.3) == 1.0
        assert chernoff_cluster_tail(50, 0.0, 0.3) == 0.0

    def test_exact_binomial_tail_matches_closed_form_small_case(self):
        # P[Bin(3, 0.5) >= 2] = 0.5
        assert exact_binomial_tail(3, 0.5, 2.0 / 3.0) == pytest.approx(0.5)

    def test_exact_tail_below_chernoff_regime(self):
        exact = exact_binomial_tail(60, 0.15, 1.0 / 3.0)
        assert 0.0 < exact < 0.05

    def test_azuma_bound_decreases_with_cluster_size(self):
        loose = azuma_exceedance_bound(20, epsilon=0.3, tau=0.2, exchanges=40)
        tight = azuma_exceedance_bound(80, epsilon=0.3, tau=0.2, exchanges=40)
        assert tight < loose <= 1.0

    def test_expected_fraction_after_exchange_is_tau(self):
        assert expected_fraction_after_exchange(0.21) == 0.21

    def test_expected_recovery_exchanges_positive(self):
        assert expected_recovery_exchanges(40, tau=0.2, epsilon=0.3) > 0

    def test_recommended_k_grows_with_stricter_failure_probability(self):
        lenient = recommended_k(4096, tau=0.2, epsilon=0.3, failure_probability=1e-2)
        strict = recommended_k(4096, tau=0.2, epsilon=0.3, failure_probability=1e-9)
        assert strict > lenient >= 1.0


@requires_numpy
class TestComplexityFitting:
    def test_power_law_recovers_exponent(self):
        sizes = [256, 1024, 4096, 16384]
        costs = [5.0 * n ** 1.5 for n in sizes]
        fit = fit_power_law(sizes, costs)
        assert fit.exponent == pytest.approx(1.5, abs=0.01)
        assert fit.r_squared > 0.999
        assert fit.predict(256) == pytest.approx(costs[0], rel=0.05)

    def test_polylog_recovers_exponent(self):
        sizes = [256, 1024, 4096, 16384, 65536]
        costs = [3.0 * math.log2(n) ** 4 for n in sizes]
        fit = fit_polylog(sizes, costs)
        assert fit.exponent == pytest.approx(4.0, abs=0.05)

    def test_polylog_data_judged_polylog(self):
        sizes = [256, 1024, 4096, 16384, 65536]
        polylog_costs = [math.log2(n) ** 5 for n in sizes]
        linear_costs = [25.0 * n for n in sizes]
        assert is_consistent_with_polylog(sizes, polylog_costs)
        assert not is_consistent_with_polylog(sizes, linear_costs)

    def test_fit_validations(self):
        with pytest.raises(ValueError):
            fit_power_law([10], [5])
        with pytest.raises(ValueError):
            fit_power_law([10, 20], [5])
        with pytest.raises(ValueError):
            fit_power_law([1, 10], [5, 5])
        with pytest.raises(ValueError):
            fit_power_law([10, 20], [0, 5])


class TestStatistics:
    def test_summarize_values_basic(self):
        summary = summarize_values([1, 2, 3, 4, 5], threshold=4)
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.maximum == 5
        assert summary.steps_above_threshold == 2
        assert summary.fraction_above_threshold == pytest.approx(0.4)

    def test_summarize_empty(self):
        summary = summarize_values([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_quantiles(self):
        values = sorted([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert quantile(values, 0.5) == pytest.approx(5.5)
        assert quantile(values, 0.0) == 1
        assert quantile(values, 1.0) == 10
        assert math.isnan(quantile([], 0.5))

    def test_longest_run_above(self):
        series = [0.1, 0.4, 0.5, 0.2, 0.4, 0.4, 0.4, 0.1]
        assert longest_run_above(series, 0.35) == 3
        assert longest_run_above([], 0.5) == 0

    def test_as_dict_round_trip(self):
        summary = summarize_values([1.0, 2.0], threshold=1.5)
        data = summary.as_dict()
        assert data["count"] == 2
        assert data["steps_above"] == 1


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["join", 123], ["leave", 4.5678]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| name")
        assert all(line.startswith("|") for line in lines)

    def test_format_table_large_and_small_floats(self):
        text = format_table(["x"], [[1e9], [1e-6], [0.0], [True]])
        assert "e+09" in text or "1.000e+09" in text
        assert "yes" in text

    def test_experiment_table_row_validation(self):
        table = ExperimentTable(title="demo", headers=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)
        table.add_note("a note")
        rendered = table.render()
        assert "demo" in rendered
        assert "a note" in rendered
