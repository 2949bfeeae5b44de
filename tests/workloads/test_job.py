"""Tests for the Job model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.workloads import Job, JobIdAllocator


class TestJobValidation:
    def test_basic_construction(self):
        job = Job(job_id=0, job_type="resnet50-bs64", total_steps=1000.0)
        assert job.scale_factor == 1
        assert job.priority_weight == 1.0
        assert job.slo_seconds is None

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=-1, job_type="x", total_steps=1.0)

    def test_empty_type_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="", total_steps=1.0)

    def test_non_positive_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="x", total_steps=0.0)

    def test_infinite_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="x", total_steps=float("inf"))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="x", total_steps=1.0, arrival_time=-1.0)

    def test_fractional_scale_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="x", total_steps=1.0, scale_factor=1.5)

    def test_non_positive_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="x", total_steps=1.0, priority_weight=0.0)

    def test_non_positive_slo_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(job_id=0, job_type="x", total_steps=1.0, slo_seconds=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["arrival_time", "priority_weight", "slo_seconds"])
    def test_non_finite_value_rejected(self, field, value):
        """A NaN or infinite weight starves every job; a NaN arrival poisons the JCT."""
        with pytest.raises(ConfigurationError, match=field):
            Job(job_id=0, job_type="x", total_steps=1.0, **{field: value})


class TestJobTransforms:
    def test_with_priority_returns_new_job(self):
        job = Job(job_id=0, job_type="x", total_steps=1.0)
        upgraded = job.with_priority(5.0)
        assert upgraded.priority_weight == 5.0
        assert job.priority_weight == 1.0

    def test_with_entity(self):
        job = Job(job_id=0, job_type="x", total_steps=1.0).with_entity(2)
        assert job.entity_id == 2

    def test_with_slo(self):
        job = Job(job_id=0, job_type="x", total_steps=1.0).with_slo(3600.0)
        assert job.slo_seconds == 3600.0

    def test_str_mentions_type_and_id(self):
        text = str(Job(job_id=7, job_type="lstm-bs20", total_steps=10.0))
        assert "7" in text and "lstm-bs20" in text

    @given(steps=st.floats(min_value=1.0, max_value=1e9), scale=st.integers(1, 64))
    def test_valid_jobs_roundtrip(self, steps, scale):
        job = Job(job_id=1, job_type="x", total_steps=steps, scale_factor=scale)
        assert job.total_steps == steps
        assert job.scale_factor == scale


class TestJobIdAllocator:
    def test_ids_are_sequential(self):
        allocator = JobIdAllocator()
        assert [allocator.next_id() for _ in range(3)] == [0, 1, 2]
        assert allocator.num_allocated == 3

    def test_custom_start(self):
        allocator = JobIdAllocator(start=10)
        assert allocator.next_id() == 10

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            JobIdAllocator(start=-1)
