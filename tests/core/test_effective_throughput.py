"""Tests for effective throughput and its reference normalizers."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import Allocation, ThroughputMatrix
from repro.core.effective_throughput import (
    effective_throughput,
    effective_throughputs,
    equal_share_reference_throughput,
    fastest_reference_throughput,
    isolated_reference_throughput,
    isolated_reference_throughputs,
)
from repro.exceptions import ConfigurationError


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def matrix(registry):
    return ThroughputMatrix(
        registry,
        {
            (0,): np.array([[4.0, 2.0, 1.0]]),
            (1,): np.array([[3.0, 2.0, 1.0]]),
            (0, 1): np.array([[2.0, 1.0, 0.5], [1.5, 1.0, 0.5]]),
        },
    )


class TestEffectiveThroughput:
    def test_single_row_only(self, registry, matrix):
        allocation = Allocation(
            registry,
            {
                (0,): np.array([0.5, 0.0, 0.0]),
                (1,): np.array([0.0, 0.0, 0.0]),
                (0, 1): np.array([0.0, 0.0, 0.0]),
            },
        )
        assert effective_throughput(matrix, allocation, 0) == pytest.approx(2.0)
        assert effective_throughput(matrix, allocation, 1) == pytest.approx(0.0)

    def test_pair_rows_contribute(self, registry, matrix):
        allocation = Allocation(
            registry,
            {
                (0,): np.array([0.0, 0.5, 0.0]),
                (1,): np.array([0.0, 0.0, 0.0]),
                (0, 1): np.array([0.4, 0.0, 0.0]),
            },
        )
        # 0.5 * 2.0 (alone on P100) + 0.4 * 2.0 (paired on V100).
        assert effective_throughput(matrix, allocation, 0) == pytest.approx(1.8)
        # Job 1 only runs in the pair row: 0.4 * 1.5.
        assert effective_throughput(matrix, allocation, 1) == pytest.approx(0.6)

    def test_mirrors_paper_definition_without_space_sharing(self, registry):
        """throughput(m, X) = sum_j T_mj X_mj for singleton-only matrices."""
        matrix = ThroughputMatrix(registry, {(0,): np.array([[4.0, 2.0, 1.0]])})
        allocation = Allocation(registry, {(0,): np.array([0.2, 0.3, 0.5])})
        expected = 4.0 * 0.2 + 2.0 * 0.3 + 1.0 * 0.5
        assert effective_throughput(matrix, allocation, 0) == pytest.approx(expected)


class TestVectorisedAgainstScalar:
    """``effective_throughputs`` is the scalar reference, all jobs in one pass."""

    @staticmethod
    def _assert_equal_to_scalar(matrix, allocation):
        vectorised = effective_throughputs(matrix, allocation)
        assert tuple(vectorised) == matrix.job_ids
        for job_id in matrix.job_ids:
            # Same products, summed in another order: a few ulps at most.
            assert vectorised[job_id] == pytest.approx(
                effective_throughput(matrix, allocation, job_id), rel=1e-12, abs=0.0
            )

    def test_random_pair_matrices(self, registry):
        rng = np.random.default_rng(4)
        for _ in range(20):
            num_jobs = int(rng.integers(1, 7))
            entries = {(j,): rng.uniform(0.0, 9.0, size=(1, 3)) for j in range(num_jobs)}
            for a in range(num_jobs):
                for b in range(a + 1, num_jobs):
                    if rng.random() < 0.5:
                        entries[(a, b)] = rng.uniform(0.0, 5.0, size=(2, 3))
            matrix = ThroughputMatrix(registry, entries)
            allocation = Allocation(
                registry, {c: rng.uniform(0.0, 1.0, size=3) for c in matrix.combinations}
            )
            self._assert_equal_to_scalar(matrix, allocation)

    def test_rows_the_allocation_does_not_cover_contribute_nothing(self, registry, matrix):
        singles_only = Allocation(
            registry, {(0,): np.array([0.5, 0.25, 0.0]), (1,): np.array([0.0, 0.0, 1.0])}
        )
        self._assert_equal_to_scalar(matrix, singles_only)
        assert effective_throughputs(matrix, singles_only) == {0: 2.5, 1: 1.0}

    def test_same_group_pair_row_counts_both_members(self, registry):
        matrix = ThroughputMatrix(
            registry,
            {(0,): np.array([[4.0, 2.0, 1.0]]), (0, 0): np.array([[3.0, 1.0, 0.5]] * 2)},
        )
        allocation = Allocation(
            registry, {(0,): np.array([1.0, 0.0, 0.0]), (0, 0): np.array([0.5, 0.0, 0.0])}
        )
        self._assert_equal_to_scalar(matrix, allocation)
        assert effective_throughputs(matrix, allocation)[0] == pytest.approx(4.0 + 2 * 1.5)


    def test_isolated_references_of_all_jobs_at_once(self, registry):
        """``isolated_reference_throughputs`` is the scalar reference, one pass over the jobs.

        Small clusters (the 1/n slice is a time fraction below 1) and large
        ones (the fraction is capped at 1), scale factors from 1 to 8.
        """
        rng = np.random.default_rng(9)
        for _ in range(20):
            num_jobs = int(rng.integers(1, 9))
            matrix = ThroughputMatrix(
                registry, {(j,): rng.uniform(0.0, 9.0, size=(1, 3)) for j in range(num_jobs)}
            )
            spec = ClusterSpec.from_counts(
                dict(zip(("v100", "p100", "k80"), rng.integers(0, 12, size=3).tolist())),
                registry=registry,
            )
            scales = rng.choice([1, 2, 4, 8], size=num_jobs)
            vectorised = isolated_reference_throughputs(matrix, spec, scales)
            assert vectorised.shape == (num_jobs,)
            for position, job_id in enumerate(matrix.job_ids):
                # Same products, summed in another order: a few ulps at most.
                assert vectorised[position] == pytest.approx(
                    isolated_reference_throughput(
                        matrix, spec, job_id, num_jobs=num_jobs, scale_factor=int(scales[position])
                    ),
                    rel=1e-12,
                    abs=0.0,
                )

    def test_isolated_references_reject_misaligned_or_non_positive_scales(self, registry, matrix):
        spec = ClusterSpec.from_counts({"v100": 1}, registry=registry)
        with pytest.raises(ConfigurationError, match="one scale factor per job"):
            isolated_reference_throughputs(matrix, spec, np.ones(3))
        with pytest.raises(ConfigurationError, match="must be positive"):
            isolated_reference_throughputs(matrix, spec, np.array([1.0, 0.0]))


class TestReferences:
    def test_equal_share_weights_by_worker_counts(self, registry, matrix):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 0, "k80": 1}, registry=registry)
        # X^equal = [0.5, 0, 0.5]; throughput = 0.5*4 + 0.5*1 = 2.5.
        assert equal_share_reference_throughput(matrix, spec, 0) == pytest.approx(2.5)

    def test_equal_share_matches_paper_example_shape(self, registry, matrix):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 1, "k80": 1}, registry=registry)
        expected = (2 * 4.0 + 1 * 2.0 + 1 * 1.0) / 4
        assert equal_share_reference_throughput(matrix, spec, 0) == pytest.approx(expected)

    def test_isolated_divides_by_num_jobs(self, registry, matrix):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)
        four_jobs = isolated_reference_throughput(matrix, spec, 0, num_jobs=4)
        eight_jobs = isolated_reference_throughput(matrix, spec, 0, num_jobs=8)
        assert four_jobs > eight_jobs
        assert four_jobs == pytest.approx(2 * eight_jobs)

    def test_isolated_caps_total_time_fraction(self, registry, matrix):
        """With 1 job on a big cluster the fraction sum is capped at 1."""
        spec = ClusterSpec.from_counts({"v100": 10, "p100": 10, "k80": 10}, registry=registry)
        throughput = isolated_reference_throughput(matrix, spec, 0, num_jobs=1)
        # The best the job could do running 100% of the time is its average
        # over the (equally sized) pools — never more than its fastest type.
        assert throughput <= fastest_reference_throughput(matrix, 0) + 1e-9

    def test_isolated_scale_factor_reduces_time_share(self, registry, matrix):
        spec = ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4}, registry=registry)
        single = isolated_reference_throughput(matrix, spec, 0, num_jobs=4, scale_factor=1)
        distributed = isolated_reference_throughput(matrix, spec, 0, num_jobs=4, scale_factor=4)
        assert distributed < single

    def test_isolated_invalid_arguments(self, registry, matrix):
        spec = ClusterSpec.from_counts({"v100": 1}, registry=registry)
        with pytest.raises(ConfigurationError):
            isolated_reference_throughput(matrix, spec, 0, num_jobs=0)
        with pytest.raises(ConfigurationError):
            isolated_reference_throughput(matrix, spec, 0, num_jobs=1, scale_factor=0)

    def test_fastest_reference_is_row_max(self, matrix):
        assert fastest_reference_throughput(matrix, 0) == 4.0
        assert fastest_reference_throughput(matrix, 1) == 3.0
