"""Tests for the per-round priority tracker (Figure 4).

The tracker's state and results are dense arrays: one row per combination in
sorted order (``tracker.row(combination)``), one column per accelerator type.
"""

import math

import numpy as np
import pytest

from repro.cluster import default_registry
from repro.core import Allocation
from repro.exceptions import SchedulingError
from repro.scheduler import PriorityTracker


@pytest.fixture
def allocation():
    registry = default_registry()
    return Allocation(
        registry,
        {
            (0,): np.array([0.6, 0.4, 0.0]),
            (1,): np.array([0.2, 0.6, 0.2]),
            (2,): np.array([0.2, 0.0, 0.8]),
        },
    )


class TestTimeAccounting:
    def test_initial_time_is_zero(self, allocation):
        tracker = PriorityTracker(allocation)
        assert tracker.combinations == ((0,), (1,), (2,))
        assert tracker.row_of == {(0,): 0, (1,): 1, (2,): 2}
        np.testing.assert_array_equal(tracker.time_received, np.zeros((3, 3)))
        np.testing.assert_array_equal(tracker.target, allocation.matrix)

    def test_record_time_accumulates(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "v100", 360.0)
        tracker.record_time((0,), "v100", 360.0)
        assert tracker.time_received[tracker.row((0,)), 0] == pytest.approx(720.0)

    def test_add_time_records_a_round_of_cells_at_once(self, allocation):
        """The indexed add equals one ``record_time`` per cell, whatever the array's layout."""
        by_cell, by_round = PriorityTracker(allocation), PriorityTracker(allocation)
        by_round.restore_state(np.asfortranarray(by_round.time_received))
        for _ in range(2):
            by_round.add_time([2, 0, 1], [2, 0, 1], 360.0)
            for combination, name in [((2,), "k80"), ((0,), "v100"), ((1,), "p100")]:
                by_cell.record_time(combination, name, 360.0)
        np.testing.assert_array_equal(by_round.time_received, np.diag([720.0] * 3))
        np.testing.assert_array_equal(by_round.time_received, by_cell.time_received)
        assert by_round.num_jobs == 3
        with pytest.raises(SchedulingError):
            by_round.add_time([0], [0], float("nan"))

    def test_negative_time_rejected(self, allocation):
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.record_time((0,), "v100", -1.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, allocation, seconds):
        """A NaN slips past a ``seconds < 0`` guard and poisons the row's priorities for good."""
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.record_time((0,), "v100", seconds)
        np.testing.assert_array_equal(tracker.time_received, np.zeros((3, 3)))
        assert not np.isnan(tracker.priorities()).any()

    def test_unknown_combination_rejected(self, allocation):
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.record_time((9,), "v100", 1.0)

    def test_combination_member_order_is_irrelevant(self):
        pair = Allocation(default_registry(), {(0, 1): np.array([0.5, 0.0, 0.0])})
        tracker = PriorityTracker(pair)
        tracker.record_time([1, 0], "v100", 10.0)
        assert tracker.time_received[tracker.row((0, 1)), 0] == 10.0

    def test_demand_is_largest_member_scale_factor(self):
        allocation = Allocation(
            default_registry(),
            {(0,): np.full(3, 0.1), (1,): np.full(3, 0.1), (0, 1): np.full(3, 0.1)},
            scale_factors={0: 4},
        )
        tracker = PriorityTracker(allocation)
        assert tracker.combinations == ((0,), (0, 1), (1,))
        assert tracker.demand == (4, 4, 1)

    def test_snapshot_state_round_trips(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((1,), "p100", 360.0)
        state = tracker.snapshot_state()
        tracker.record_time((1,), "p100", 360.0)  # the copy must not follow
        twin = PriorityTracker(allocation)
        twin.restore_state(state)
        assert twin.time_received[1, 1] == 360.0
        twin.record_time((1,), "p100", 360.0)
        np.testing.assert_array_equal(twin.priorities(), tracker.priorities())

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (9,)])
    def test_restore_state_rejects_wrong_shape(self, allocation, shape):
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.restore_state(np.zeros(shape))

    def test_total_time_per_type(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "v100", 100.0)
        tracker.record_time((1,), "v100", 300.0)
        np.testing.assert_allclose(tracker.total_time_per_type(), [400.0, 0.0, 0.0])


class TestFractionsAndPriorities:
    def test_fractions_normalize_per_type(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "v100", 300.0)
        tracker.record_time((1,), "v100", 100.0)
        fractions = tracker.fractions()
        assert fractions[0, 0] == pytest.approx(0.75)
        assert fractions[1, 0] == pytest.approx(0.25)
        # A type nobody has run on yet has no shares, not 0/0.
        np.testing.assert_array_equal(fractions[:, 1:], np.zeros((3, 2)))

    def test_priority_zero_when_target_zero(self, allocation):
        tracker = PriorityTracker(allocation)
        priorities = tracker.priorities()
        assert priorities[0, 2] == 0.0  # job 0 target on K80 is 0

    def test_priority_infinite_before_any_time(self, allocation):
        tracker = PriorityTracker(allocation)
        priorities = tracker.priorities()
        assert math.isinf(priorities[0, 0])

    def test_underserved_combination_has_higher_priority(self, allocation):
        """Figure 4: jobs that received less than their target get higher priority."""
        tracker = PriorityTracker(allocation)
        # Job 0 has hogged the V100; jobs 1 and 2 received nothing on it.
        tracker.record_time((0,), "v100", 900.0)
        tracker.record_time((1,), "v100", 100.0)
        tracker.record_time((2,), "v100", 100.0)
        priorities = tracker.priorities()
        assert priorities[1, 0] > priorities[0, 0]
        assert priorities[2, 0] > priorities[0, 0]

    def test_matched_allocation_gives_equal_priorities(self, allocation):
        """When received fractions exactly match the target, priorities are all 1."""
        tracker = PriorityTracker(allocation)
        for combination in allocation.combinations:
            for column, name in enumerate(allocation.registry.names):
                target = allocation.row(combination)[column]
                if target > 0:
                    tracker.record_time(combination, name, target * 1000.0)
        priorities = tracker.priorities()
        wanted = allocation.matrix > 0
        np.testing.assert_allclose(priorities[wanted], 1.0)
        np.testing.assert_array_equal(priorities[~wanted], 0.0)

    def test_paper_figure4_example(self):
        """The worked example of Figure 4: rounds_received = [[3,1,0],[1,3,0],[0,0,4]]."""
        registry = default_registry()
        x_example = Allocation(
            registry,
            {
                (0,): np.array([0.6, 0.4, 0.0]),
                (1,): np.array([0.2, 0.6, 0.2]),
                (2,): np.array([0.2, 0.0, 0.8]),
            },
        )
        tracker = PriorityTracker(x_example)
        rounds_received = {(0,): [3, 1, 0], (1,): [1, 3, 0], (2,): [0, 0, 4]}
        for combination, rounds in rounds_received.items():
            for column, name in enumerate(registry.names):
                if rounds[column]:
                    tracker.record_time(combination, name, float(rounds[column]))
        priorities = tracker.priorities()
        # Figure 4 reports priorities 0.2/0.4/0 for job 0, 0.2/0.2/inf for job 1
        # and inf/0/0.2 for job 2 (element-wise X / fraction-of-rounds).
        assert priorities[0, 0] == pytest.approx(0.6 / 0.75)
        assert priorities[0, 1] == pytest.approx(0.4 / 0.25)
        assert math.isinf(priorities[1, 2])
        assert math.isinf(priorities[2, 0])
        assert priorities[2, 2] == pytest.approx(0.8 / 1.0)
