"""Property-based tests for the round-based scheduling mechanism.

For random valid allocations and cluster shapes, every round produced by
Algorithm 1 must (a) never run a job twice, (b) never oversubscribe an
accelerator type, and (c) over many rounds drive the received time fractions
towards the target allocation (the mechanism's fidelity claim, §7.5).

The array implementation is also compared, cell for cell and pick for pick,
with the scalar reference in ``reference_mechanism.py`` — same IEEE
operations in the same order, so equality is exact, not approximate — and the
placer, flag for flag and worker for worker, with the list-of-ids placer in
``reference_round.py``.  Algorithm 1 prices and orders only the period's
candidate cells (positive target), pre-sorted once by the static tie-breaks,
so the comparison also covers where that could part from the reference: time
on cells without a target, columns nobody has run on, exact ties across rows
and accelerator names, pair rows and multi-worker demand.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSpec, ClusterTopology, Placer, default_registry
from repro.core import Allocation, make_policy
from repro.scheduler import PriorityTracker, RoundScheduler, SchedulerConfig
from repro.scheduler.priorities import Candidates

from repro.simulator import Simulator
from repro.workloads import ThroughputOracle, TraceGenerator

from reference_mechanism import (
    reference_fractions,
    reference_priorities,
    reference_schedule_round,
)
from reference_round import reference_place

_REGISTRY = default_registry()
_ROUND = 360.0


@st.composite
def _allocation_and_cluster(draw):
    num_jobs = draw(st.integers(2, 6))
    counts = {
        "v100": draw(st.integers(1, 3)),
        "p100": draw(st.integers(0, 3)),
        "k80": draw(st.integers(0, 3)),
    }
    cluster = ClusterSpec.from_counts(counts, registry=_REGISTRY)
    capacity = cluster.counts_vector()
    raw = np.array(
        [[draw(st.floats(0.0, 1.0)) for _ in range(3)] for _ in range(num_jobs)]
    )
    # Normalize rows to keep per-job totals <= 1.
    for row in range(num_jobs):
        total = raw[row].sum()
        if total > 1.0:
            raw[row] /= total
    # Scale columns down to respect worker capacity.
    for column in range(3):
        usage = raw[:, column].sum()
        if usage > capacity[column]:
            raw[:, column] *= 0.0 if capacity[column] == 0 else capacity[column] / usage
    allocation = Allocation(_REGISTRY, {(i,): raw[i] for i in range(num_jobs)})
    return allocation, cluster


class TestMechanismProperties:
    @given(data=_allocation_and_cluster())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rounds_always_valid(self, data):
        allocation, cluster = data
        tracker = PriorityTracker(allocation)
        scheduler = RoundScheduler(cluster)
        for _ in range(5):
            scheduled = scheduler.schedule_round(tracker)
            scheduler.validate_round(scheduled)
            for item in scheduled:
                tracker.record_time(item.combination, item.accelerator_name, 360.0)

    @given(data=_allocation_and_cluster())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fractions_track_targets_over_many_rounds(self, data):
        allocation, cluster = data
        tracker = PriorityTracker(allocation)
        scheduler = RoundScheduler(cluster)
        for _ in range(80):
            scheduled = scheduler.schedule_round(tracker)
            for item in scheduled:
                tracker.record_time(item.combination, item.accelerator_name, 360.0)
        fractions = tracker.fractions()
        totals = tracker.total_time_per_type()
        capacity = cluster.counts_vector()
        column_targets = [
            sum(allocation.row(other)[column] for other in allocation.combinations)
            for column in range(3)
        ]
        contended = [
            column_targets[column] >= capacity[column] - 1e-9 for column in range(3)
        ]
        for row, combination in enumerate(allocation.combinations):
            target = allocation.row(combination)
            for column in range(3):
                # Only compare on accelerator types that actually received
                # work, have a meaningful target, and are *contended* — when
                # capacity exceeds the total demand every job simply runs all
                # the time and the proportional-share prediction does not apply.
                if totals[column] == 0 or target[column] < 0.05:
                    continue
                if not contended[column]:
                    continue
                # The prediction also breaks under cross-column coupling: a
                # job can run at most once per round, so when any job sharing
                # this column also holds a meaningful target on an
                # *uncontended* column, it can soak up rounds there and skew
                # this column's shares.
                coupled = any(
                    allocation.row(other)[column] >= 0.05
                    and any(
                        not contended[other_column]
                        and allocation.row(other)[other_column] >= 0.05
                        for other_column in range(3)
                        if other_column != column
                    )
                    for other in allocation.combinations
                )
                if coupled:
                    continue
                expected = (
                    target[column] / column_targets[column]
                    if column_targets[column] > 0
                    else 0.0
                )
                assert fractions[row, column] == pytest.approx(expected, abs=0.25)


# Few distinct values on purpose: exact ties in priority *and* target are what
# the (combination, accelerator-name) tie-breaks exist for.
_TARGETS = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.5))
# Received times are 0 or at least a millisecond, which keeps every finite
# priority far below the reference's 1e18 sort sentinel for "never run" (the
# one place the two differ on purpose: see test_never_run_outranks_any_finite_priority).
_SECONDS = st.one_of(
    st.sampled_from([0.0, 0.0, _ROUND, 2 * _ROUND, 7 * _ROUND]), st.floats(1e-3, 1e6)
)


@st.composite
def _allocation_period(draw):
    """A random allocation period: targets, worker demand, capacity, time received so far.

    Covers singleton and space-sharing rows, scale factors 1-8 (so requests
    that fit one 4-worker server, fill it, or must span two), accelerator
    types with zero capacity, a job whose own row is all zero (unless a pair
    row runs it, it is never busy and the round cannot end on "every job is
    busy"), the all-``inf`` first round (nothing received yet) and arbitrary
    mid-period states.
    """
    num_jobs = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(num_jobs) for j in range(i + 1, num_jobs)]
    combinations = [(i,) for i in range(num_jobs)]
    combinations += draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    entries = {
        combination: np.array([draw(_TARGETS) for _ in range(3)])
        for combination in draw(st.permutations(combinations))
    }
    if draw(st.booleans()):
        entries[(draw(st.integers(0, num_jobs - 1)),)] = np.zeros(3)
    scale_factors = {
        job: draw(st.sampled_from([1, 1, 1, 2, 3, 4, 8])) for job in range(num_jobs)
    }
    allocation = Allocation(_REGISTRY, entries, scale_factors=scale_factors)
    counts = {name: draw(st.integers(0, 9)) for name in _REGISTRY.names}
    counts["p100"] = max(counts["p100"], 1 - counts["v100"] - counts["k80"])  # at least one worker
    cluster = ClusterSpec.from_counts(counts, registry=_REGISTRY)
    first_round = draw(st.booleans())
    received = {
        combination: np.array([0.0 if first_round else draw(_SECONDS) for _ in range(3)])
        for combination in allocation.combinations
    }
    return allocation, scale_factors, cluster, received


def _dense(allocation, by_combination):
    """A per-combination dict of rows as the tracker's matrix (sorted row order)."""
    return np.array([by_combination[c] for c in allocation.combinations]).reshape(-1, 3)


def _tracker_with(allocation, received):
    tracker = PriorityTracker(allocation)
    tracker.restore_state(_dense(allocation, received))
    return tracker


def _picks(scheduled):
    return [
        (item.combination, item.accelerator_name, item.scale_factor, item.priority)
        for item in scheduled
    ]


def _assert_placed_like_the_reference(cluster, picks, expected):
    """Consolidated flags *and* worker ids of ``picks`` equal the list-of-ids placer's."""
    topology = ClusterTopology(cluster)
    placer = Placer(topology)
    placements = reference_place(topology, expected)
    requests = (picks.rows, picks.columns, picks.scales)
    assert placer.place(*requests) == [placement.consolidated for placement in placements]
    assert placer.worker_ids(*requests) == [placement.worker_ids for placement in placements]


def _assert_rounds_like_the_reference(tracker, scale_factors, cluster, received, rounds):
    """``rounds`` rounds of Algorithm 1 pick, place and price like the reference, cell by cell.

    ``received`` is the reference's state (the tracker's, by combination) and
    follows the picks as the tracker does.
    """
    allocation = tracker.allocation
    scheduler = RoundScheduler(cluster)
    for _ in range(rounds):
        priorities = reference_priorities(allocation, received)
        np.testing.assert_array_equal(tracker.priorities(), _dense(allocation, priorities))
        expected = reference_schedule_round(allocation, priorities, scale_factors, cluster)
        scheduled = scheduler.schedule_round(tracker)
        assert _picks(scheduled) == expected
        scheduler.validate_round(scheduled)
        _assert_placed_like_the_reference(cluster, scheduled, expected)
        for combination, accelerator_name, _scale, _priority in expected:
            received[combination][_REGISTRY.index_of(accelerator_name)] += _ROUND
            tracker.record_time(combination, accelerator_name, _ROUND)


@st.composite
def _tied_period(draw):
    """A period whose candidates all tie on priority *and* target.

    Every row, singletons and pairs alike, has one target on every
    accelerator type and has received the same time on each, so only the
    combination and then the accelerator name order the candidates; scale
    factors up to 8 make a tied candidate skip for want of workers.
    """
    num_jobs = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(num_jobs) for j in range(i + 1, num_jobs)]
    combinations = [(i,) for i in range(num_jobs)]
    combinations += draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    share = draw(st.sampled_from([0.1, 0.25, 0.5]))
    scale_factors = {job: draw(st.sampled_from([1, 1, 2, 4, 8])) for job in range(num_jobs)}
    allocation = Allocation(
        _REGISTRY,
        {combination: np.full(3, share) for combination in combinations},
        scale_factors=scale_factors,
    )
    counts = {name: draw(st.integers(1, 9)) for name in _REGISTRY.names}
    cluster = ClusterSpec.from_counts(counts, registry=_REGISTRY)
    seconds = draw(st.sampled_from([0.0, _ROUND, 3 * _ROUND]))
    received = {combination: np.full(3, seconds) for combination in allocation.combinations}
    return allocation, scale_factors, cluster, received


class TestArrayMechanismMatchesScalarReference:
    @given(period=_allocation_period())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fractions_and_priorities_are_bit_identical(self, period):
        allocation, _scale_factors, _cluster, received = period
        tracker = _tracker_with(allocation, received)
        np.testing.assert_array_equal(
            tracker.fractions(), _dense(allocation, reference_fractions(allocation, received))
        )
        np.testing.assert_array_equal(
            tracker.priorities(), _dense(allocation, reference_priorities(allocation, received))
        )

    @given(period=_allocation_period(), rounds=st.integers(1, 6))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scheduled_sequence_is_identical_round_after_round(self, period, rounds):
        """Same picks in the same order, with the true priority, as the period advances."""
        allocation, scale_factors, cluster, received = period
        _assert_rounds_like_the_reference(
            _tracker_with(allocation, received), scale_factors, cluster, received, rounds
        )

    def test_never_run_outranks_any_finite_priority(self):
        """The reference sorted ``inf`` as 1e18, so a larger finite priority beat it.

        Sorting on the true priority removes that inversion; it needs a
        received share below 1e-18 and so never arose in a real period.
        """
        entries = {(0,): np.array([0.25, 0.0, 1.0]), (1,): np.array([0.0, 0.0, 0.0])}
        allocation = Allocation(_REGISTRY, entries)
        cluster = ClusterSpec.from_counts({"v100": 1, "k80": 1}, registry=_REGISTRY)
        received = {(0,): np.array([0.0, 0.0, 1e-213]), (1,): np.array([0.0, 0.0, _ROUND])}
        [pick] = RoundScheduler(cluster).schedule_round(_tracker_with(allocation, received))
        assert (pick.accelerator_name, pick.priority) == ("v100", math.inf)
        [stale] = reference_schedule_round(
            allocation, reference_priorities(allocation, received), {}, cluster
        )
        assert stale[1] == "k80" and 1e18 < stale[3] < math.inf

    @given(period=_allocation_period(), data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_nan_priorities_are_skipped_identically(self, period, data):
        """``not (priority > 0)`` must keep rejecting NaN cells, wherever they fall."""
        allocation, scale_factors, cluster, received = period
        priorities = reference_priorities(allocation, received)
        for combination in allocation.combinations:
            for column in range(3):
                if data.draw(st.integers(0, 3)) == 0:
                    priorities[combination][column] = math.nan

        class _Poisoned(PriorityTracker):
            def candidate_priorities(self):
                return _dense(allocation, priorities).take(self.candidates.cells)

        scheduled = RoundScheduler(cluster).schedule_round(_Poisoned(allocation))
        expected = reference_schedule_round(allocation, priorities, scale_factors, cluster)
        assert _picks(scheduled) == expected
        assert not any(math.isnan(item.priority) for item in scheduled)
        _assert_placed_like_the_reference(cluster, scheduled, expected)

    @given(period=_allocation_period(), data=st.data(), rounds=st.integers(1, 4))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_time_recorded_on_cells_without_a_target(self, period, data, rounds):
        """``record_time`` on a target-0 cell: no candidate, but counted in its column's total."""
        allocation, scale_factors, cluster, received = period
        tracker = _tracker_with(allocation, received)
        for combination in allocation.combinations:
            for column, name in enumerate(_REGISTRY.names):
                if allocation.row(combination)[column] <= 0 and data.draw(st.booleans()):
                    seconds = data.draw(_SECONDS)
                    received[combination][column] += seconds
                    tracker.record_time(combination, name, seconds)
        _assert_rounds_like_the_reference(tracker, scale_factors, cluster, received, rounds)

    @given(
        period=_allocation_period(),
        idle=st.sets(st.integers(0, 2), min_size=1),
        rounds=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_columns_nobody_ran_on(self, period, idle, rounds):
        """A column whose total is 0 has fraction 0 everywhere: its candidates are ``inf``."""
        allocation, scale_factors, cluster, received = period
        for row in received.values():
            row[list(idle)] = 0.0
        tracker = _tracker_with(allocation, received)
        _assert_rounds_like_the_reference(tracker, scale_factors, cluster, received, rounds)

    @given(period=_tied_period(), rounds=st.integers(1, 4))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ties_across_rows_and_accelerator_names(self, period, rounds):
        allocation, scale_factors, cluster, received = period
        tracker = _tracker_with(allocation, received)
        _assert_rounds_like_the_reference(tracker, scale_factors, cluster, received, rounds)

    def test_tied_pair_rows_with_multi_worker_demand(self):
        """All tie: combination order, then k80 < p100 < v100; demand decides what fits.

        Job 0 takes two k80s; the pair shares job 0; job 1 needs four
        workers, more than the two k80s left, and takes the p100s.
        """
        entries = {combination: np.full(3, 0.5) for combination in [(0,), (1,), (0, 1)]}
        scale_factors = {0: 2, 1: 4}
        allocation = Allocation(_REGISTRY, entries, scale_factors=scale_factors)
        cluster = ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4}, registry=_REGISTRY)
        received = {combination: np.zeros(3) for combination in allocation.combinations}
        scheduled = RoundScheduler(cluster).schedule_round(_tracker_with(allocation, received))
        assert _picks(scheduled) == [
            ((0,), "k80", 2, math.inf),
            ((1,), "p100", 4, math.inf),
        ]
        _assert_rounds_like_the_reference(
            _tracker_with(allocation, received), scale_factors, cluster, received, 6
        )


class TestCandidateIndex:
    """The period's candidate cells and their static order are derived once per tracker."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = Candidates.build.__func__

        def counting(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(Candidates, "build", classmethod(counting))
        return calls

    def test_built_once_per_tracker_not_per_round(self, builds):
        entries = {(0,): np.array([0.5, 0.25, 0.0]), (1,): np.array([0.5, 0.0, 0.75])}
        allocation = Allocation(_REGISTRY, entries)
        cluster = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=_REGISTRY)
        tracker = PriorityTracker(allocation)
        scheduler = RoundScheduler(cluster)
        for _ in range(10):
            picks = scheduler.schedule_round(tracker)
            tracker.add_time(picks.rows, picks.columns, _ROUND)
        assert len(builds) == 1
        candidates = tracker.candidates
        # Target descending, then row, then name (k80 < p100 < v100).
        assert list(zip(candidates.rows.tolist(), candidates.columns.tolist())) == [
            (1, 2), (0, 0), (1, 0), (0, 1),
        ]  # fmt: skip
        np.testing.assert_array_equal(candidates.target, [0.75, 0.5, 0.5, 0.25])

    def test_a_round_mode_drain_builds_one_per_period(self, builds):
        oracle = ThroughputOracle()
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        trace = TraceGenerator(oracle).generate_continuous(num_jobs=8, jobs_per_hour=6.0, seed=5)
        config = SchedulerConfig(mode="round")
        policy = make_policy("max_min_fairness")
        result = Simulator(policy, spec, oracle=oracle, config=config).run(trace)
        assert len(builds) == result.num_policy_recomputations
        assert result.num_rounds > 4 * len(builds)
