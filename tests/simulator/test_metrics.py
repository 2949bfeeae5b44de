"""Tests for simulation metrics."""

from dataclasses import fields

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulator import JobRecord, SimulationResult, cdf_points
from repro.workloads import Job


def _record(job_id, arrival=0.0, completion=None, slo=None, reference_duration=None):
    job = Job(
        job_id=job_id,
        job_type="a3c-bs4",
        total_steps=100.0,
        arrival_time=arrival,
        slo_seconds=slo,
        duration_seconds_on_reference=reference_duration,
    )
    return JobRecord(job=job, completion_time=completion)


def _result(records, end_time=1000.0):
    return SimulationResult(
        policy_name="test",
        records={record.job.job_id: record for record in records},
        end_time=end_time,
        num_rounds=10,
        busy_worker_seconds={"v100": 500.0, "k80": 100.0},
        capacity_worker_seconds={"v100": 1000.0, "k80": 1000.0},
        total_cost_dollars=42.0,
        isolated_durations={0: 100.0, 1: 200.0},
    )


class TestJobRecord:
    def test_jct_computed_from_arrival(self):
        record = _record(0, arrival=100.0, completion=4600.0)
        assert record.jct_seconds == pytest.approx(4500.0)
        assert record.completed

    def test_incomplete_job_has_no_jct(self):
        record = _record(0)
        assert record.jct_seconds is None
        assert not record.completed

    def test_slo_violation_detection(self):
        met = _record(0, completion=50.0, slo=100.0)
        missed = _record(1, completion=500.0, slo=100.0)
        no_slo = _record(2, completion=500.0)
        assert met.slo_violated is False
        assert missed.slo_violated is True
        assert no_slo.slo_violated is None

    def test_unfinished_job_with_slo_counts_as_violation(self):
        assert _record(0, slo=100.0).slo_violated is True

    def test_finish_time_fairness(self):
        record = _record(0, completion=200.0)
        assert record.finish_time_fairness(100.0) == pytest.approx(2.0)

    def test_copy_carries_every_field_and_owns_its_seconds_map(self):
        record = JobRecord(
            job=_record(0).job,
            completion_time=9.0,
            steps_done=8.0,
            cost_dollars=7.0,
            accelerator_seconds={"v100": 6.0},
            preemptions=5,
            checkpoint_seconds=4.0,
            cancelled=True,
            first_allocation_time=3.0,
        )
        defaults = JobRecord(job=record.job)
        for spec in fields(JobRecord):  # every field set to a non-default value above
            assert spec.name == "job" or getattr(record, spec.name) != getattr(defaults, spec.name)
        clone = record.copy()
        assert clone == record and clone.job is record.job
        clone.accelerator_seconds["v100"] += 1.0
        clone.steps_done += 1.0
        assert record.accelerator_seconds == {"v100": 6.0} and record.steps_done == 8.0
        assert record.finish_time_fairness(0.0) is None


class TestSimulationResult:
    def test_average_jct_hours(self):
        result = _result([_record(0, completion=3600.0), _record(1, completion=7200.0)])
        assert result.average_jct_hours() == pytest.approx(1.5)

    def test_average_jct_with_subset(self):
        result = _result([_record(0, completion=3600.0), _record(1, completion=7200.0)])
        assert result.average_jct_hours([1]) == pytest.approx(2.0)

    def test_average_jct_no_completions_raises(self):
        result = _result([_record(0)])
        with pytest.raises(ConfigurationError):
            result.average_jct_hours()

    def test_makespan(self):
        result = _result([_record(0, completion=3600.0), _record(1, completion=7200.0)])
        assert result.makespan_hours() == pytest.approx(2.0)

    def test_completion_rate(self):
        result = _result([_record(0, completion=10.0), _record(1)])
        assert result.completion_rate() == pytest.approx(0.5)

    def test_finish_time_fairness_values(self):
        result = _result([_record(0, completion=200.0), _record(1, completion=100.0)])
        values = result.finish_time_fairness_values()
        assert values == [pytest.approx(2.0), pytest.approx(0.5)]
        assert result.average_finish_time_fairness() == pytest.approx(1.25)

    def test_slo_violation_rate(self):
        result = _result(
            [
                _record(0, completion=50.0, slo=100.0),
                _record(1, completion=500.0, slo=100.0),
                _record(2, completion=10.0),
            ]
        )
        assert result.slo_violation_rate() == pytest.approx(0.5)

    def test_utilization(self):
        result = _result([_record(0, completion=1.0)])
        assert result.utilization() == pytest.approx(600.0 / 2000.0)
        by_type = result.utilization_by_type()
        assert by_type["v100"] == pytest.approx(0.5)
        assert by_type["k80"] == pytest.approx(0.1)

    def test_split_short_long_by_reference_duration(self):
        result = _result(
            [
                _record(0, completion=100.0, reference_duration=3600.0),
                _record(1, completion=100.0, reference_duration=3600.0 * 100),
            ]
        )
        short, long = result.split_short_long(threshold_hours=10.0)
        assert short == [0]
        assert long == [1]


class TestCdfPoints:
    def test_empty(self):
        xs, ys = cdf_points([])
        assert len(xs) == 0 and len(ys) == 0

    def test_sorted_and_normalized(self):
        xs, ys = cdf_points([3.0, 1.0, 2.0])
        np.testing.assert_allclose(xs, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(ys, [1 / 3, 2 / 3, 1.0])
