"""Soak and bounded-session-history tests for the ClusterScheduler service.

The soak scenario drives one long-lived scheduler through hundreds of
submits, cancels, resizes and policy swaps and asserts that nothing grows
without bound: the engine's matrix rows track the active set, the live LP's
columns are recycled (the released-variable pool drains back into new rows
instead of the program growing), and the live session's solve count stays
within the configured cap.

Jobs are deliberately short (a few rounds each) so completions — and with
them allocation recomputations, row removals and column releases — happen
continuously throughout the run.
"""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.core.session import IncrementalProgramSession
from repro.exceptions import ConfigurationError
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle

from tests.outcomes import result_fingerprint

#: Single-worker job types mixing fast and slow models (and with beneficial
#: colocations between them, so space-sharing rows churn too).
_SOAK_TYPES = [
    "resnet18-bs16",
    "resnet50-bs16",
    "resnet18-bs32",
    "resnet50-bs32",
    "resnet18-bs64",
    "resnet18-bs128",
]


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def soak_jobs():
    """A few hundred short jobs (each completes within a handful of rounds)."""
    return [
        Job(
            job_id=i,
            job_type=_SOAK_TYPES[i % len(_SOAK_TYPES)],
            total_steps=900.0 + 250.0 * (i % 5),
            arrival_time=0.0,
        )
        for i in range(320)
    ]


class TestSoakChurn:
    def test_long_horizon_churn_is_bounded(self, oracle, soak_jobs):
        """Hundreds of submits/cancels/resizes/swaps leave no unbounded state."""
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        config = SchedulerConfig(
            round_duration_seconds=360.0, max_session_history=8, seed=0
        )
        scheduler = ClusterScheduler(
            make_policy("max_min_fairness+ss"), spec, oracle=oracle, config=config
        )

        max_active = 10
        num_vars_seen = []
        engine_rows_seen = []
        history_seen = []
        for job in soak_jobs[:max_active]:
            scheduler.submit(job)
        next_job = max_active
        swaps = ["fifo+ss", "max_min_fairness+ss"]

        for event in range(160):
            scheduler.step()
            status = scheduler.status()
            # Cancel an active job every fourth event to force row removals
            # beyond natural completions, and keep the active set topped up.
            if event % 4 == 0 and status.active_job_ids:
                scheduler.cancel(status.active_job_ids[0])
            status = scheduler.status()
            in_flight = len(status.active_job_ids) + len(status.pending_job_ids)
            while in_flight < max_active and next_job < len(soak_jobs):
                scheduler.submit(soak_jobs[next_job])
                next_job += 1
                in_flight += 1
            if event % 40 == 20:
                scheduler.resize({"v100": +1})
            if event % 40 == 39:
                scheduler.resize({"v100": -1})
            if event % 60 == 45:
                scheduler.swap_policy(swaps[(event // 60) % len(swaps)])
            engine_rows_seen.append(scheduler._engine.num_rows())
            history_seen.append(scheduler._session_solves)
            session = scheduler._session
            if isinstance(session, IncrementalProgramSession):
                num_vars_seen.append(session.program.num_variables())

        assert next_job > 150, "soak should have cycled through much of the job list"

        # Engine rows track the active set: at most n singletons plus all
        # beneficial pairs over n = max_active single-worker jobs.
        max_rows = max_active + max_active * (max_active - 1) // 2
        assert max(engine_rows_seen) <= max_rows

        # Live LP columns are recycled, not grown: the column count is
        # bounded by the peak row count times worker types (plus epigraph
        # slack), independent of how many jobs churned through.
        assert num_vars_seen, "incremental session never observed"
        columns_bound = (max_rows * 3) * 2 + 64
        assert max(num_vars_seen) <= columns_bound

        # The pinned solve history respects the configured cap, so snapshot
        # size is bounded too.
        assert max(history_seen) <= config.max_session_history
        assert len(scheduler.snapshot().session_history) <= config.max_session_history

    def test_released_variable_pool_drains(self, oracle):
        """Recycled columns are consumed by later arrivals (pool does not leak)."""
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        scheduler = ClusterScheduler(
            make_policy("max_min_fairness+ss"),
            spec,
            oracle=oracle,
            config=SchedulerConfig(round_duration_seconds=360.0),
        )
        # Long-running jobs: nothing completes on its own during the test.
        long_jobs = [
            Job(
                job_id=i,
                job_type=_SOAK_TYPES[i % len(_SOAK_TYPES)],
                total_steps=500_000.0,
                arrival_time=0.0,
            )
            for i in range(12)
        ]
        for job in long_jobs[:8]:
            scheduler.submit(job)
        scheduler.step()
        program = scheduler._session.program
        baseline = program.num_variables()
        # Cancel three jobs, then top back up: the replacement rows must
        # reuse the released columns instead of growing the program.
        for job_id in scheduler.status().active_job_ids[:3]:
            scheduler.cancel(job_id)
        scheduler.step()
        free_after_cancel = len(program._free_variables)
        assert free_after_cancel > 0
        for job in long_jobs[8:11]:
            scheduler.submit(job)
        scheduler.step()
        assert program.num_variables() <= baseline + 8
        assert len(program._free_variables) < free_after_cancel


class TestContinuousSoak:
    def test_continuous_churn_keeps_state_bounded(self, oracle, soak_jobs):
        """The event loop leaves no unbounded state under steady churn.

        Engine rows must track the active set (not the total churn count),
        the pinned solve history must respect its cap, and scheduled control
        events must drain off the central heap instead of accumulating.
        """
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        config = SchedulerConfig(mode="continuous", max_session_history=8, seed=0)
        scheduler = ClusterScheduler(
            make_policy("max_min_fairness+ss"), spec, oracle=oracle, config=config
        )
        max_active = 10
        engine_rows_seen = []
        heap_seen = []
        history_seen = []
        for job in soak_jobs[:max_active]:
            scheduler.submit(job)
        next_job = max_active
        for event in range(160):
            if not scheduler.step():
                break
            status = scheduler.status()
            # Queue a scheduled cancel a little into the future every fourth
            # event so the central heap sees steady traffic (cancels landing
            # on already-finished jobs are skipped, which is fine here).
            if event % 4 == 0 and status.active_job_ids:
                scheduler.schedule_cancel(
                    status.active_job_ids[0], at=status.current_time + 30.0
                )
            status = scheduler.status()
            in_flight = len(status.active_job_ids) + len(status.pending_job_ids)
            while in_flight < max_active and next_job < len(soak_jobs):
                scheduler.submit(soak_jobs[next_job])
                next_job += 1
                in_flight += 1
            engine_rows_seen.append(scheduler._engine.num_rows())
            heap_seen.append(scheduler.status().num_queued_events)
            history_seen.append(scheduler._session_solves)

        assert next_job > 100, "soak should have cycled through much of the job list"
        max_rows = max_active + max_active * (max_active - 1) // 2
        assert max(engine_rows_seen) <= max_rows
        # The control heap holds only the not-yet-due cancels (one queued per
        # four events, each 30 simulated seconds out) — it never accumulates.
        assert max(heap_seen) <= 12
        assert max(history_seen) <= config.max_session_history
        scheduler.run_until(math.inf)
        assert scheduler.status().num_queued_events == 0
        # Continuous mode incorporates every churn event at its instant.
        assert scheduler.result().mean_allocation_staleness_seconds() == 0.0


class TestWaterFillingSoak:
    """Churn soak for the water-filling family's persistent level-loop sessions."""

    @pytest.mark.parametrize("spec", ["max_min_fairness_water_filling", "hierarchical+ss"])
    def test_churn_keeps_level_loop_program_bounded(self, oracle, soak_jobs, spec):
        """Submits/cancels/completions leave no unbounded state in the session.

        The level-loop program's columns must track the active set (released
        variables are recycled, not grown; the bottleneck MILP runs on a
        throwaway program, so its indicator columns never enter the live one),
        the engine's rows must track the active set, and the pinned solve
        history must respect the cap.
        """
        cluster = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        config = SchedulerConfig(
            round_duration_seconds=360.0, max_session_history=6, seed=0
        )
        scheduler = ClusterScheduler(
            make_policy(spec), cluster, oracle=oracle, config=config
        )
        max_active = 8
        for job in soak_jobs[:max_active]:
            scheduler.submit(job)
        next_job = max_active
        num_vars_seen = []
        engine_rows_seen = []
        history_seen = []
        for event in range(60):
            scheduler.step()
            status = scheduler.status()
            if event % 5 == 0 and status.active_job_ids:
                scheduler.cancel(status.active_job_ids[-1])
            status = scheduler.status()
            in_flight = len(status.active_job_ids) + len(status.pending_job_ids)
            while in_flight < max_active and next_job < len(soak_jobs):
                scheduler.submit(soak_jobs[next_job])
                next_job += 1
                in_flight += 1
            engine_rows_seen.append(scheduler._engine.num_rows())
            history_seen.append(scheduler._session_solves)
            session = scheduler._session
            if isinstance(session, IncrementalProgramSession):
                num_vars_seen.append(session.program.num_variables())

        assert next_job > 40, "soak should have cycled through much of the job list"
        max_rows = max_active + max_active * (max_active - 1) // 2
        assert max(engine_rows_seen) <= max_rows
        assert num_vars_seen, "water-filling session never observed"
        # Allocation columns (rows x 3 types) + the epigraph variable, plus
        # headroom for transiently larger row sets between engine syncs;
        # independent of churn count.
        columns_bound = max_rows * 3 + 1 + 2 * max_active + 32
        assert max(num_vars_seen) <= columns_bound
        assert max(history_seen) <= config.max_session_history

    @pytest.mark.parametrize("spec", ["max_min_fairness_water_filling", "hierarchical"])
    def test_mid_churn_snapshot_restores_deterministically(self, oracle, soak_jobs, spec):
        """A snapshot between rounds restores the level-loop session byte-exactly.

        The restored scheduler clones the pinned session and rebuilds both
        warm programs from their HiGHS call journals — every level-loop edit
        sequence included — so its forward run must match the uninterrupted
        one exactly.
        """
        cluster = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        config = SchedulerConfig(round_duration_seconds=360.0, seed=0)

        def fresh():
            return ClusterScheduler(
                make_policy(spec), cluster, oracle=oracle, config=config
            )

        scheduler = fresh()
        for job in soak_jobs[:10]:
            scheduler.submit(job)
        for _ in range(7):
            scheduler.step()
        checkpoint = scheduler.snapshot()
        assert len(checkpoint.session_history) > 1
        scheduler.run_until(math.inf)
        reference = result_fingerprint(scheduler.result())

        resumed = fresh().restore(checkpoint)
        resumed.run_until(math.inf)
        assert result_fingerprint(resumed.result()) == reference


class TestBoundedSessionHistory:
    def test_bound_validates_and_caps_the_pinned_session(self, oracle, soak_jobs):
        """A snapshot's session has made at most ``max_session_history`` solves."""
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_session_history=0)
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1})

        def stepped(max_history):
            scheduler = ClusterScheduler(
                make_policy("max_min_fairness"),
                spec,
                oracle=oracle,
                config=SchedulerConfig(max_session_history=max_history),
            )
            for job in soak_jobs[:6]:
                scheduler.submit(job)
            for _ in range(8):
                scheduler.step()
            return scheduler

        unbounded = stepped(None).snapshot()
        assert len(unbounded.session_history) > 2
        bounded = stepped(2)
        snapshot = bounded.snapshot()
        assert 1 <= len(snapshot.session_history) <= 2
        solves = len(snapshot.session_history)
        bounded.run_until(math.inf)
        # Later solves and re-bases leave the snapshot untouched.
        assert len(snapshot.session_history) == solves

    @pytest.mark.parametrize("policy", ["max_min_fairness+ss", "fifo"])
    def test_bounded_history_snapshot_restores_to_same_forward_results(
        self, oracle, soak_jobs, policy
    ):
        """Restores from an unbounded and a one-solve-bounded run agree exactly.

        With ``max_session_history=1`` every solve starts a cold session, so
        a restore carries one solve's state; a cold session may in general
        select a different equally-optimal vertex than the warm one (see
        ``SchedulerConfig.max_session_history``).  These scenarios are ones
        where the optimum is unique, so the forward runs must agree exactly —
        guarding the checkpoint plumbing of a freshly created session.
        """
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})

        def fresh(max_history):
            return ClusterScheduler(
                make_policy(policy),
                spec,
                oracle=oracle,
                config=SchedulerConfig(
                    round_duration_seconds=360.0, max_session_history=max_history
                ),
            )

        restored = []
        for max_history in (None, 1):
            scheduler = fresh(max_history)
            for job in soak_jobs[:10]:
                scheduler.submit(job)
            for _ in range(4):
                scheduler.step()
            snapshot = scheduler.snapshot()
            assert max_history is None or len(snapshot.session_history) == 1
            restored.append(fresh(max_history).restore(snapshot).run_until(math.inf))
        full_restore, bounded_restore = restored
        assert result_fingerprint(full_restore.result()) == result_fingerprint(
            bounded_restore.result()
        )

    def test_bounded_history_run_matches_results_shape(self, oracle, soak_jobs):
        """max_session_history bounds checkpoint size without corrupting a run."""
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})

        def run(max_history):
            scheduler = ClusterScheduler(
                make_policy("max_min_fairness"),
                spec,
                oracle=oracle,
                config=SchedulerConfig(
                    round_duration_seconds=360.0, max_session_history=max_history
                ),
            )
            for job in soak_jobs[:10]:
                scheduler.submit(job)
            scheduler.run_until(math.inf)
            return scheduler

        bounded = run(4)
        unbounded = run(None)
        assert bounded._session_solves <= 4
        # Every job still completes, and in this unique-optimum scenario the
        # bounded run's schedule matches the unbounded one exactly (in
        # general a cold re-base may pick a different equally-optimal
        # allocation — see SchedulerConfig.max_session_history).
        assert result_fingerprint(bounded.result()) == result_fingerprint(
            unbounded.result()
        )
