"""The index-native round against the scalar round it replaced.

``ClusterScheduler.step()`` runs a round on ``(row, column)`` indices, a
member table whose entries live as long as their jobs, and the live-job
table's columns; ``reference_round.py`` is the per-item code it replaced,
which looks every job up by id for every item.  A scheduler stepped
by the first and a twin stepped by the second must agree after every round:
the picks, the consolidated flags and the concrete workers of the round, and
every field of the state the round wrote — bit for bit, because both perform
the same IEEE operations in the same order (and, in ``physical`` mode, the
same jitter draws in the same order).

Three groups: random job sets and clusters in ``round``, ``physical``, ``+ss``
and type-aggregated ``round``; the lifetime of the member table across every
intervention (cancel, resize, policy swap, restore), over the three
fingerprint scenarios per-job and type-aggregated; and a count showing that a
step constructs no per-item object.
"""

import contextlib
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSpec, Placer
from repro.scheduler import ClusterScheduler, RoundScheduler, SchedulerConfig, mechanism
from repro.workloads import Job, ThroughputOracle

from live_rows import records, rows
from reference_round import reference_step
from round_fingerprint_scenarios import SCENARIOS, run_scenario

_ORACLE = ThroughputOracle()
_JOB_TYPES = _ORACLE.job_types.names
_ROUND = 360.0

#: name -> (policy, scheduler configuration) of the generated-workload runs.
_MODES = {
    "round": ("max_min_fairness", SchedulerConfig(mode="round")),
    # Overhead on every preemption/migration, and a jitter draw per member per round.
    "physical": (
        "max_min_fairness",
        SchedulerConfig(
            mode="physical", checkpoint_overhead_seconds=30.0, throughput_jitter_std=0.05, seed=3
        ),
    ),
    "space_sharing": ("max_min_fairness+ss", SchedulerConfig(mode="round")),
    # The LP over groups of interchangeable jobs, expanded to per-job rows.
    "type": ("max_min_fairness", SchedulerConfig(mode="round", aggregation="type")),
}

#: The aggregation modes the member-table lifetime tests run every scenario in.
_AGGREGATIONS = ["job", "type"]


@contextlib.contextmanager
def _recorded_rounds():
    """Each round the index-native path runs, as ``[picks, consolidated flags, worker ids]``."""
    rounds = []
    schedule_round, place = RoundScheduler.schedule_round, Placer.place

    def recording_schedule_round(self, tracker):
        picks = schedule_round(self, tracker)
        rounds.append([picks])
        return picks

    def recording_place(self, keys, columns, scales):
        flags = place(self, keys, columns, scales)
        rounds[-1] += [flags, self.worker_ids(keys, columns, scales)]
        return flags

    with mock.patch.object(RoundScheduler, "schedule_round", recording_schedule_round):
        with mock.patch.object(Placer, "place", recording_place):
            yield rounds


def _state(scheduler):
    """Everything a round reads or writes, comparably (floats compare exactly)."""
    tracker = scheduler._tracker
    return {
        "time": scheduler.now,
        "num_rounds": scheduler._num_rounds,
        "recomputations": scheduler._recomputations,
        "allocation_stale": scheduler._allocation_stale,
        # Every column of every live row (``alone`` as the rates it names), in row order.
        "active": rows(scheduler),
        # Every record as a result would show it: a live job's made from its row.
        "records": records(scheduler),
        "busy_seconds": dict(scheduler._busy_seconds),
        "checkpoint_seconds": dict(scheduler._checkpoint_seconds),
        "total_cost": scheduler._total_cost,
        "jitter_rng": scheduler._rng.bit_generator.state,
        "combinations": None if tracker is None else tracker.combinations,
        "time_received": None if tracker is None else tracker.time_received.tolist(),
    }


def _step_both(real, twin, rounds):
    """One ``step()`` of ``real``, one reference step of ``twin``; returns whether a round ran."""
    seen = len(rounds)
    real.step()
    reference = reference_step(twin)
    assert (len(rounds) > seen) == (reference is not None)
    if reference is not None:
        picks, flags, workers = rounds[-1]
        assert [
            (item.combination, item.accelerator_name, item.scale_factor, item.priority)
            for item in picks
        ] == reference.picks
        assert flags == [placement.consolidated for placement in reference.placements]
        assert workers == [placement.worker_ids for placement in reference.placements]
    assert _state(real) == _state(twin)
    return reference is not None


def _run_both(real, twin, rounds, max_steps=10_000):
    """Step both to the end of the work (or ``max_steps``); returns the rounds run."""
    ran = 0
    for _ in range(max_steps):
        if not real.has_work:
            break
        ran += _step_both(real, twin, rounds)
    assert real.has_work == twin.has_work
    return ran


@st.composite
def _workload(draw):
    """Jobs and a cluster: scale factors 1-8, zero-capacity types, jobs that can never fit."""
    counts = {name: draw(st.sampled_from([0, 1, 2, 4, 5, 8])) for name in ("v100", "p100", "k80")}
    if not any(counts.values()):
        counts["p100"] = 3
    jobs = []
    for job_id in range(draw(st.integers(1, 7))):
        job_type = draw(st.sampled_from(_JOB_TYPES))
        scale_factor = draw(st.sampled_from([1, 1, 1, 2, 4, 8]))
        # Work worth a fraction of a round up to a few rounds on the fastest
        # type, so completions fall inside rounds and periods stay short.
        rounds_of_work = draw(st.floats(0.05, 4.0))
        jobs.append(
            Job(
                job_id=job_id,
                job_type=job_type,
                total_steps=_ORACLE.throughput(job_type, "v100", scale_factor=scale_factor)
                * _ROUND
                * rounds_of_work,
                arrival_time=draw(st.sampled_from([0.0, 0.0, 100.0, _ROUND, 1000.0, 2500.0])),
                scale_factor=scale_factor,
            )
        )
    return jobs, counts


def _twins(policy, config, jobs, counts):
    schedulers = []
    for _ in range(2):
        scheduler = ClusterScheduler(
            policy, ClusterSpec.from_counts(counts), oracle=_ORACLE, config=config
        )
        for job in jobs:
            scheduler.submit(job)
        schedulers.append(scheduler)
    return schedulers


class TestRoundMatchesScalarReference:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    @given(workload=_workload())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_round_leaves_the_same_state(self, mode, workload):
        jobs, counts = workload
        real, twin = _twins(*_MODES[mode], jobs, counts)
        with _recorded_rounds() as rounds:
            # A job wider than every accelerator type never runs, so the work
            # may never run out: a fixed number of steps, not a drain.
            _run_both(real, twin, rounds, max_steps=14)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fingerprint_scenarios_agree_round_for_round(self, name):
        """The recorded runs (14 jobs, hundreds of rounds), against the reference throughout."""
        real, twin = run_scenario(name, until=0.0), run_scenario(name, until=0.0)
        with _recorded_rounds() as rounds:
            assert _run_both(real, twin, rounds) > 100
        assert not real.has_work


def _mid_period(name, rounds, aggregation):
    """Scenario ``name`` and its reference twin, stopped with a period under way.

    The member table is populated (rounds have run), the allocation is not
    stale, and at least three jobs are active, so the next round would run
    off the table if nothing intervened.
    """
    real, twin = (run_scenario(name, until=0.0, aggregation=aggregation) for _ in range(2))
    while not (
        real.now >= 20_000.0
        and not real._allocation_stale
        and len(real._active.ids) >= 3
        and any(real._members)
    ):
        _step_both(real, twin, rounds)
    return real, twin


#: ``fifo`` cannot run type-aggregated.
_SWAP_TO = {"job": "fifo", "type": "max_total_throughput"}

#: name -> (intervention, whether a member-table row survives it: ``(row, cancelled job)``).
_INTERVENTIONS = {
    "cancel": (
        lambda scheduler: scheduler.cancel(min(scheduler._active.ids)),
        lambda combination, cancelled: cancelled not in combination,
    ),
    "resize": (
        lambda scheduler: scheduler.resize({"v100": -1, "k80": +1}),
        lambda *_: True,
    ),
    "swap_policy": (
        lambda scheduler: scheduler.swap_policy(_SWAP_TO[scheduler._config.aggregation]),
        lambda *_: True,
    ),
    "restore_rollback": (
        lambda scheduler: scheduler.restore(scheduler.snapshot()),
        lambda *_: False,
    ),
}


class TestMemberTableLifetime:
    """The table's entries name live jobs: its rows live as long as their jobs."""

    @pytest.mark.parametrize("aggregation", _AGGREGATIONS)
    @pytest.mark.parametrize("intervention", sorted(_INTERVENTIONS))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_next_round_runs_on_live_objects(self, name, intervention, aggregation):
        """Same intervention on both; the reference holds no table, so it cannot be stale.

        A cancel drops the rows of its job, a restore every row (it replaces
        the rate table the entries' rates come from); a resize or a policy
        swap drops none.
        """
        intervene, survives = _INTERVENTIONS[intervention]
        with _recorded_rounds() as rounds:
            real, twin = _mid_period(name, rounds, aggregation)
            table, cancelled = dict(real._members), min(real._active.ids)
            for scheduler in (real, twin):
                intervene(scheduler)
            kept = {row for row in table if survives(row, cancelled)}
            assert real._members.keys() == kept
            assert all(real._members[row] is table[row] for row in kept)
            assert _state(real) == _state(twin)
            assert _run_both(real, twin, rounds) > 10
        assert not real.has_work
        # The rest of the run was written into the records results are read from.
        for job_id, record in real.result().records.items():
            assert record.completed or record.cancelled, job_id
        # Every job left, and took its rows with it.
        assert not real._members

    @pytest.mark.parametrize("aggregation", _AGGREGATIONS)
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_restore_onto_a_fresh_scheduler(self, name, aggregation):
        policy, config, _per_type, _multi = SCENARIOS[name]
        with _recorded_rounds() as rounds:
            original, twin = _mid_period(name, rounds, aggregation)
            checkpoint = original.snapshot()
            resumed = ClusterScheduler(
                policy, checkpoint.cluster_spec, config=replace(config, aggregation=aggregation)
            )
            resumed.restore(checkpoint)
            assert not any(resumed._members)  # resolved lazily, row by row, as rounds pick them
            assert _state(resumed) == _state(twin)
            assert _run_both(resumed, twin, rounds) > 10
        # The scheduler the snapshot came from was not touched by its copy's run.
        assert _state(original) != _state(resumed)
        original.run_until()
        assert _state(original) == _state(resumed)

    @pytest.mark.parametrize("aggregation", _AGGREGATIONS)
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_rollback_discards_rounds_run_after_the_snapshot(self, name, aggregation):
        """Rounds after the snapshot wrote through the old table; the rollback must not see them."""
        with _recorded_rounds() as rounds:
            real, twin = _mid_period(name, rounds, aggregation)
            checkpoint = real.snapshot()
            for _ in range(3):
                real.step()
            real.restore(checkpoint)
            assert _state(real) == _state(twin)
            assert _run_both(real, twin, rounds) > 10

    @pytest.mark.parametrize("aggregation", _AGGREGATIONS)
    def test_snapshot_does_not_read_the_table(self, aggregation):
        """``snapshot()`` gained no per-job work: it never looks at the table."""
        with _recorded_rounds() as rounds:
            real, _twin = _mid_period("round", rounds, aggregation)
        real._members = None  # any read of it would raise
        real.snapshot()


class TestNoPerItemObjects:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_run_constructs_no_scheduled_combination_and_no_worker_tuple(
        self, monkeypatch, name
    ):
        """Picks stay indices and placements stay flags from the first step to the last."""
        built = []
        monkeypatch.setattr(mechanism, "ScheduledCombination", lambda *args: built.append(args))
        monkeypatch.setattr(Placer, "worker_ids", lambda *args: built.append(args))
        scheduler = run_scenario(name)
        assert not scheduler.has_work and scheduler.result().num_rounds > 100
        assert len(built) == 0
