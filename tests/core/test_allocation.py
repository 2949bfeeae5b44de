"""Tests for allocation matrices and their validity constraints."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import Allocation, ThroughputMatrix
from repro.exceptions import AllocationError, UnknownJobError


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def spec(registry):
    return ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)


class TestConstruction:
    def test_rows_normalized_and_copied(self, registry):
        allocation = Allocation(registry, {(1, 0): np.array([0.5, 0.0, 0.0])})
        assert allocation.combinations == ((0, 1),)

    def test_bad_row_shape_rejected(self, registry):
        with pytest.raises(AllocationError):
            Allocation(registry, {(0,): np.array([0.5, 0.5])})

    def test_zeros_constructor(self, registry):
        matrix = ThroughputMatrix(registry, {(0,): np.ones((1, 3)), (1,): np.ones((1, 3))})
        allocation = Allocation.zeros(matrix)
        assert allocation.job_total(0) == 0.0
        assert allocation.combinations == ((0,), (1,))


    def test_from_matrix_adopts_sorted_rows(self, registry):
        rows = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.0]])
        allocation = Allocation.from_matrix(registry, ((0,), (0, 1)), rows, scale_factors={0: 2})
        built = Allocation(
            registry, {(1, 0): [0.0, 0.25, 0.0], (0,): [0.5, 0.0, 0.0]}, scale_factors={0: 2}
        )
        assert allocation.combinations == built.combinations
        np.testing.assert_array_equal(allocation.matrix, built.matrix)
        np.testing.assert_array_equal(allocation.worker_usage(), built.worker_usage())
        assert allocation.job_ids == (0, 1)
        assert not allocation.matrix.flags.writeable
        with pytest.raises(AllocationError):
            Allocation.from_matrix(registry, ((0,),), rows)


class TestQueries:
    @pytest.fixture
    def allocation(self, registry):
        return Allocation(
            registry,
            {
                (0,): np.array([0.6, 0.4, 0.0]),
                (1,): np.array([0.2, 0.0, 0.2]),
                (0, 1): np.array([0.0, 0.0, 0.3]),
            },
        )

    def test_job_total_includes_pair_rows(self, allocation):
        assert allocation.job_total(0) == pytest.approx(1.3)
        assert allocation.job_total(1) == pytest.approx(0.7)

    def test_job_row_sums_rows_containing_job(self, allocation):
        np.testing.assert_allclose(allocation.job_row(1), [0.2, 0.0, 0.5])

    def test_job_sums_agree_with_a_walk_over_the_rows(self, registry):
        rng = np.random.default_rng(1)
        entries = {(j,): rng.uniform(size=3) for j in range(5)}
        entries.update({(a, b): rng.uniform(size=3) for a, b in [(0, 1), (0, 4), (2, 3), (3, 3)]})
        allocation = Allocation(registry, entries)
        for job_id in range(5):
            walked = sum(values for combination, values in entries.items() if job_id in combination)
            np.testing.assert_allclose(allocation.job_row(job_id), walked, rtol=1e-15)
            assert allocation.job_total(job_id) == pytest.approx(walked.sum(), rel=1e-15)
        # A job the allocation has never heard of receives nothing.
        np.testing.assert_array_equal(allocation.job_row(9), np.zeros(3))
        assert allocation.job_total(9) == 0.0

    def test_job_row_is_a_copy(self, allocation):
        allocation.job_row(0)[0] = 99.0
        np.testing.assert_allclose(allocation.job_row(0), [0.6, 0.4, 0.3])

    def test_value_lookup(self, allocation):
        assert allocation.value((0,), "v100") == pytest.approx(0.6)
        assert allocation.value((1, 0), "k80") == pytest.approx(0.3)

    def test_unknown_combination_raises(self, allocation):
        with pytest.raises(UnknownJobError):
            allocation.row((5,))

    def test_worker_usage_counts_scale_factors(self, registry):
        allocation = Allocation(
            registry,
            {(0,): np.array([0.5, 0.0, 0.0])},
            scale_factors={0: 4},
        )
        np.testing.assert_allclose(allocation.worker_usage(), [2.0, 0.0, 0.0])

    def test_as_dict_returns_copies(self, allocation):
        exported = allocation.as_dict()
        exported[(0,)][0] = 99.0
        assert allocation.value((0,), "v100") == pytest.approx(0.6)


class TestValidation:
    def test_valid_allocation_passes(self, registry, spec):
        allocation = Allocation(
            registry,
            {(0,): np.array([0.5, 0.3, 0.2]), (1,): np.array([0.5, 0.5, 0.0])},
        )
        allocation.validate(spec)
        assert allocation.is_valid(spec)

    def test_entry_above_one_fails(self, registry, spec):
        allocation = Allocation(registry, {(0,): np.array([1.2, 0.0, 0.0])})
        with pytest.raises(AllocationError):
            allocation.validate(spec)

    def test_job_total_above_one_fails(self, registry, spec):
        allocation = Allocation(
            registry,
            {(0,): np.array([0.8, 0.0, 0.0]), (0, 1): np.array([0.0, 0.4, 0.0])},
        )
        # Also add job 1's singleton so the structure is complete.
        with pytest.raises(AllocationError):
            allocation.validate(spec)

    def test_worker_oversubscription_fails(self, registry, spec):
        allocation = Allocation(
            registry,
            {
                (0,): np.array([0.9, 0.0, 0.0]),
                (1,): np.array([0.9, 0.0, 0.0]),
            },
            scale_factors={0: 1, 1: 1},
        )
        # 1.8 expected V100 workers > 1 available.
        with pytest.raises(AllocationError):
            allocation.validate(spec)

    def test_clipped_removes_round_off(self, registry, spec):
        allocation = Allocation(registry, {(0,): np.array([1.0 + 1e-6, -1e-9, 0.0])})
        clipped = allocation.clipped()
        assert clipped.value((0,), "v100") == 1.0
        assert clipped.value((0,), "p100") == 0.0

    def test_repr_lists_rows(self, registry):
        allocation = Allocation(registry, {(0,): np.array([0.1, 0.2, 0.3])})
        assert "(0,)" in repr(allocation)
