"""Tests for the round-based scheduling mechanism (Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, ClusterTopology, Placer, default_registry
from repro.core import Allocation
from repro.exceptions import SchedulingError
from repro.scheduler import PriorityTracker, RoundPicks, RoundScheduler, ScheduledCombination


@pytest.fixture
def registry():
    return default_registry()


def _tracker(registry, entries, scale_factors=None):
    return PriorityTracker(Allocation(registry, entries, scale_factors=scale_factors))


class TestRoundScheduling:
    def test_single_job_per_worker_respected(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([0.5, 0.5, 0.0]),
                (1,): np.array([0.5, 0.5, 0.0]),
            },
        )
        scheduled = RoundScheduler(spec).schedule_round(tracker)
        # Each job can be scheduled at most once per round.
        jobs = [job for item in scheduled for job in item.combination]
        assert sorted(jobs) == sorted(set(jobs))
        RoundScheduler(spec).validate_round(scheduled)

    def test_all_workers_used_when_demand_exists(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}, registry=registry)
        entries = {(i,): np.full(3, 1 / 3) for i in range(6)}
        tracker = _tracker(registry, entries)
        scheduled = RoundScheduler(spec).schedule_round(tracker)
        assert len(scheduled) == 6

    def test_zero_allocation_jobs_not_scheduled(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([1.0, 0.0, 0.0]),
                (1,): np.array([0.0, 0.0, 0.0]),
            },
        )
        scheduled = RoundScheduler(spec).schedule_round(tracker)
        assert all(item.combination != (1,) for item in scheduled)

    def test_distributed_job_needs_enough_workers(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(registry, {(0,): np.array([1.0, 0.0, 0.0])}, scale_factors={0: 4})
        assert tracker.demand == (4,)
        assert list(RoundScheduler(spec).schedule_round(tracker)) == []

    def test_pair_occupies_its_larger_members_workers(self, registry):
        spec = ClusterSpec.from_counts({"v100": 3, "p100": 0, "k80": 0}, registry=registry)
        entries = {(0, 1): np.array([0.9, 0.0, 0.0]), (2,): np.array([0.5, 0.0, 0.0])}
        tracker = _tracker(registry, entries, scale_factors={0: 1, 1: 2, 2: 2})
        scheduled = RoundScheduler(spec).schedule_round(tracker)
        # Both are never-run (+inf); the larger target goes first and leaves 1 worker.
        assert [(item.combination, item.scale_factor) for item in scheduled] == [((0, 1), 2)]

    def test_never_run_combination_reports_infinite_priority(self, registry):
        """The result carries the real priority, not a finite sort sentinel."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 0}, registry=registry)
        tracker = _tracker(
            registry, {(0,): np.array([0.5, 0.0, 0.0]), (1,): np.array([0.0, 0.5, 0.0])}
        )
        tracker.record_time((1,), "p100", 360.0)
        by_job = {item.combination: item for item in RoundScheduler(spec).schedule_round(tracker)}
        assert by_job[(0,)].priority == float("inf")
        assert by_job[(1,)].priority == pytest.approx(0.5)

    def test_picks_are_the_placement_requests(self, registry):
        """The placer takes the picks' index lists as they are; rows are its tie-break keys."""
        spec = ClusterSpec.from_counts({"v100": 4, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(registry, {(0,): np.array([1.0, 0.0, 0.0])}, scale_factors={0: 4})
        picks = RoundScheduler(spec).schedule_round(tracker)
        assert (picks.rows, picks.columns, picks.scales) == ([0], [0], [4])
        placer = Placer(ClusterTopology(spec))
        assert placer.place(picks.rows, picks.columns, picks.scales) == [True]
        [workers] = placer.worker_ids(picks.rows, picks.columns, picks.scales)
        assert len(workers) == 4

    def test_picks_materialise_scheduled_combinations_on_demand(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 0}, registry=registry)
        tracker = _tracker(
            registry, {(0,): np.array([0.5, 0.0, 0.0]), (1, 2): np.array([0.0, 0.5, 0.0])}
        )
        picks = RoundScheduler(spec).schedule_round(tracker)
        assert isinstance(picks, RoundPicks) and len(picks) == 2
        assert [tracker.combinations[row] for row in picks.rows] == [(0,), (1, 2)]
        assert list(picks) == [picks[0], picks[1]] == [
            ScheduledCombination((0,), "v100", 1, float("inf")),
            ScheduledCombination((1, 2), "p100", 1, float("inf")),
        ]

    def test_round_ends_once_every_job_is_busy(self, registry):
        """The second exit: with all jobs placed no later candidate can be disjoint."""
        spec = ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4}, registry=registry)
        tracker = _tracker(registry, {(i,): np.full(3, 0.3) for i in range(2)})
        assert tracker.num_jobs == 2
        walked = []

        class _Watched(tuple):
            def __getitem__(self, row):
                walked.append(row)
                return tuple.__getitem__(self, row)

        tracker.combinations = _Watched(tracker.combinations)
        picks = RoundScheduler(spec).schedule_round(tracker)
        # Candidates come row by row (all tie but for the row); job 1's cells on
        # p100 and v100 are never looked at.
        assert walked == [0, 0, 0, 1]
        assert [item.combination for item in picks] == [(0,), (1,)]

    def test_accelerator_name_breaks_the_last_tie(self, registry):
        """Equal priority, target and combination: names order k80 < p100 < v100,
        which is *not* the registry's column order."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)
        tracker = _tracker(registry, {(0,): np.full(3, 0.3)})
        [only] = RoundScheduler(spec).schedule_round(tracker)
        assert only.accelerator_name == "k80"

    def test_underserved_job_scheduled_before_overserved(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([0.5, 0.0, 0.0]),
                (1,): np.array([0.5, 0.0, 0.0]),
            },
        )
        # Job 0 already ran for three rounds on the V100; job 1 never did.
        tracker.record_time((0,), "v100", 3 * 360.0)
        scheduled = RoundScheduler(spec).schedule_round(tracker)
        assert len(scheduled) == 1
        assert scheduled[0].combination == (1,)

    def test_pair_combination_conflicts_with_singletons(self, registry):
        """Once a pair is scheduled, neither of its jobs may run alone this round."""
        spec = ClusterSpec.from_counts({"v100": 3, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([0.1, 0.0, 0.0]),
                (1,): np.array([0.1, 0.0, 0.0]),
                (0, 1): np.array([0.8, 0.0, 0.0]),
            },
        )
        scheduled = RoundScheduler(spec).schedule_round(tracker)
        combinations = [item.combination for item in scheduled]
        assert (0, 1) in combinations
        assert (0,) not in combinations and (1,) not in combinations

    def test_deterministic_given_same_state(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 1, "k80": 1}, registry=registry)
        entries = {(i,): np.array([0.3, 0.3, 0.3]) for i in range(5)}
        first = RoundScheduler(spec).schedule_round(_tracker(registry, entries))
        second = RoundScheduler(spec).schedule_round(_tracker(registry, entries))
        assert [(s.combination, s.accelerator_name) for s in first] == [
            (s.combination, s.accelerator_name) for s in second
        ]


class TestRoundValidation:
    @staticmethod
    def _picks(registry, scheduled):
        """Picks holding ``(combination, accelerator name, scale)`` items, one row each."""
        return RoundPicks(
            combinations=[combination for combination, _, _ in scheduled],
            names=registry.names,
            rows=list(range(len(scheduled))),
            columns=[registry.index_of(name) for _, name, _ in scheduled],
            scales=[scale for _, _, scale in scheduled],
            priorities=[1.0] * len(scheduled),
        )

    def test_duplicate_job_detected(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2}, registry=registry)
        picks = self._picks(registry, [((0,), "v100", 1), ((0, 1), "v100", 1)])
        with pytest.raises(SchedulingError, match="job 0 scheduled more than once"):
            RoundScheduler(spec).validate_round(picks)

    def test_oversubscription_detected(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1}, registry=registry)
        picks = self._picks(registry, [((0,), "v100", 1), ((1,), "v100", 1)])
        with pytest.raises(SchedulingError, match="oversubscribes v100: 2 > 1"):
            RoundScheduler(spec).validate_round(picks)

    def test_valid_round_passes(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "k80": 1}, registry=registry)
        picks = self._picks(registry, [((0,), "v100", 2), ((1, 2), "k80", 1)])
        RoundScheduler(spec).validate_round(picks)


class TestLongRunConvergence:
    def test_received_fractions_converge_to_allocation(self, registry):
        """Simulating many rounds, time fractions approach X_opt (Figure 13b's premise)."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 0, "k80": 0}, registry=registry)
        allocation = Allocation(
            registry,
            {
                (0,): np.array([0.75, 0.0, 0.0]),
                (1,): np.array([0.25, 0.0, 0.0]),
            },
        )
        tracker = PriorityTracker(allocation)
        scheduler = RoundScheduler(spec)
        for _ in range(100):
            scheduled = scheduler.schedule_round(tracker)
            for item in scheduled:
                tracker.record_time(item.combination, item.accelerator_name, 360.0)
        fractions = tracker.fractions()
        assert fractions[0, 0] == pytest.approx(0.75, abs=0.02)
        assert fractions[1, 0] == pytest.approx(0.25, abs=0.02)


class TestTieBreakDeterminism:
    def test_tied_priorities_schedule_identically_across_runs(self, registry):
        """Repeated rounds over tied candidates must pick the same winners."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 0}, registry=registry)
        entries = {(i,): np.array([0.25, 0.25, 0.0]) for i in range(8)}
        schedules = []
        for _ in range(10):
            tracker = _tracker(registry, dict(entries))
            scheduled = RoundScheduler(spec).schedule_round(tracker)
            schedules.append(
                tuple((item.combination, item.accelerator_name) for item in scheduled)
            )
        assert len(set(schedules)) == 1

    def test_tie_break_independent_of_entry_insertion_order(self, registry):
        """The schedule is a function of allocation values, not dict ordering."""
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 1, "k80": 1}, registry=registry)
        entries = {(i,): np.array([0.3, 0.3, 0.3]) for i in range(6)}
        baseline = None
        for ordering in (list(entries), list(reversed(list(entries)))):
            tracker = _tracker(registry, {key: entries[key] for key in ordering})
            scheduled = RoundScheduler(spec).schedule_round(tracker)
            snapshot = tuple(
                (item.combination, item.accelerator_name) for item in scheduled
            )
            if baseline is None:
                baseline = snapshot
            assert snapshot == baseline

    def test_nan_priority_skipped_not_scheduled(self, registry):
        """NaN priorities must not poison the sort order (non-total comparisons)."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)
        allocation = Allocation(
            registry,
            {
                (0,): np.array([1.0, 0.0, 0.0]),
                (1,): np.array([0.0, 1.0, 0.0]),
            },
        )
        tracker = PriorityTracker(allocation)
        priorities = tracker.candidate_priorities()
        v100 = registry.index_of("v100")
        [poisoned] = np.flatnonzero(tracker.candidates.cells == tracker.row((0,)) * 3 + v100)
        priorities[poisoned] = float("nan")

        class _PatchedTracker:
            """Duck-typed tracker: what Algorithm 1 reads, with a poisoned cell."""

            combinations = tracker.combinations
            demand = tracker.demand
            num_jobs = tracker.num_jobs
            candidates = tracker.candidates

            @staticmethod
            def candidate_priorities():
                return priorities

        scheduled = RoundScheduler(spec).schedule_round(_PatchedTracker())
        assert [item.combination for item in scheduled] == [(1,)]
