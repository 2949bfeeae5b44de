"""Tests for the experiment harness."""

import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.harness import (
    LoadSweepPoint,
    measure_aggregated_solve_runtime,
    measure_lp_build_runtime,
    measure_policy_runtime,
    measure_policy_solve_under_churn,
    run_load_sweep,
    run_policy_on_trace,
    steady_state_job_ids,
)
from repro.simulator import SimulatorConfig
from repro.workloads import ThroughputOracle, TraceGenerator


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def spec():
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


class TestSteadyState:
    def test_window_excludes_warmup_and_cooldown(self, oracle):
        trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=5, seed=0)
        window = steady_state_job_ids(trace, warmup_fraction=0.2, cooldown_fraction=0.2)
        assert window == [2, 3, 4, 5, 6, 7]

    def test_degenerate_window_falls_back_to_all_jobs(self, oracle):
        trace = TraceGenerator(oracle).generate_continuous(num_jobs=2, jobs_per_hour=5, seed=0)
        window = steady_state_job_ids(trace, warmup_fraction=0.5, cooldown_fraction=0.5)
        assert window == [0, 1]


class TestRunPolicyOnTrace:
    def test_accepts_policy_name_or_object(self, oracle, spec):
        trace = TraceGenerator(oracle).generate_continuous(num_jobs=6, jobs_per_hour=4, seed=1)
        by_name = run_policy_on_trace("max_min_fairness", trace, spec, oracle=oracle)
        assert by_name.completion_rate() == 1.0

        from repro.core import MaxMinFairnessPolicy

        by_object = run_policy_on_trace(MaxMinFairnessPolicy(), trace, spec, oracle=oracle)
        assert by_object.average_jct_hours() == pytest.approx(by_name.average_jct_hours())


class TestLoadSweep:
    def test_higher_load_does_not_reduce_jct(self, oracle, spec):
        points = run_load_sweep(
            "max_min_fairness",
            jobs_per_hour_values=[1.0, 8.0],
            cluster_spec=spec,
            num_jobs=14,
            seeds=(0,),
            oracle=oracle,
        )
        assert len(points) == 2
        assert all(isinstance(point, LoadSweepPoint) for point in points)
        assert points[1].mean >= points[0].mean * 0.8

    def test_multiple_seeds_produce_std(self, oracle, spec):
        points = run_load_sweep(
            "max_min_fairness",
            jobs_per_hour_values=[3.0],
            cluster_spec=spec,
            num_jobs=10,
            seeds=(0, 1),
            oracle=oracle,
        )
        assert len(points[0].values) == 2
        assert points[0].std >= 0.0

    def test_invalid_metric_rejected(self, oracle, spec):
        with pytest.raises(ConfigurationError):
            run_load_sweep(
                "max_min_fairness",
                jobs_per_hour_values=[1.0],
                cluster_spec=spec,
                metric="median_jct",
                oracle=oracle,
            )

    def test_ftf_metric_supported(self, oracle, spec):
        points = run_load_sweep(
            "finish_time_fairness",
            jobs_per_hour_values=[2.0],
            cluster_spec=spec,
            num_jobs=8,
            seeds=(0,),
            oracle=oracle,
            metric="average_finish_time_fairness",
        )
        assert points[0].mean > 0


class TestPolicyRuntime:
    def test_runtime_measured_for_each_size(self, oracle):
        runtimes = measure_policy_runtime(
            "max_min_fairness", num_jobs_values=[8, 16], oracle=oracle
        )
        assert set(runtimes) == {8, 16}
        assert all(value > 0 for value in runtimes.values())

    def test_space_sharing_override(self, oracle):
        runtimes = measure_policy_runtime(
            "max_min_fairness_ss", num_jobs_values=[8], oracle=oracle, space_sharing=True
        )
        assert runtimes[8] > 0


class TestFigure12Series:
    def test_lp_build_is_one_timing_per_job_count(self, oracle):
        build = measure_lp_build_runtime("max_min_fairness+ss", [8, 16], oracle=oracle)
        assert set(build) == {8, 16}
        assert all(isinstance(seconds, float) and seconds > 0 for seconds in build.values())

    def test_churn_times_both_strategies_of_one_policy(self, oracle):
        churn = measure_policy_solve_under_churn(
            "max_min_fairness_water_filling", [8], num_events=2, oracle=oracle
        )
        assert set(churn[8]) == {"scratch", "session"}
        assert all(seconds > 0 for seconds in churn[8].values())

    def test_aggregated_point_times_cold_solve_and_kept_session_resolve(self, oracle):
        # 12 jobs: fewer than the harness's events, so the mean is over the 12 that ran.
        series = measure_aggregated_solve_runtime("max_min_fairness", [12, 40], oracle=oracle)
        for point in series.values():
            assert point["aggregated"] > 0 and point["per_job"] > 0
            assert 0 < point["resolve"] < point["aggregated"] * 10
            assert 0 < point["lp_rows"] <= point["active_types"]
