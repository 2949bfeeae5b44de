"""Tests for the event-driven ClusterScheduler service."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.core.effective_throughput import effective_throughput
from repro.core.problem import PolicyProblem
from repro.exceptions import ConfigurationError, SchedulingError, UnknownJobError
from repro.scheduler import ClusterScheduler, SchedulerConfig, VirtualClock, WallClock
from repro.simulator import Simulator, SimulatorConfig
from repro.workloads import Job, ThroughputOracle, Trace, TraceGenerator

from round_fingerprint_scenarios import (
    SCENARIOS,
    WATER_FILLING_SPECS,
    run_scenario,
    scenario_scheduler,
)

from tests.outcomes import result_fingerprint

#: Round runs recorded before the basis survived row edits; never re-recorded.
RECORDED_COLD = Path(__file__).parent / "data" / "round_fingerprints_cold.json"


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def small_spec():
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


def _trace(oracle, num_jobs=10, jobs_per_hour=6.0, seed=5):
    return TraceGenerator(oracle).generate_continuous(
        num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed
    )


def _scheduler(oracle, spec, policy="max_min_fairness", config=None):
    return ClusterScheduler(
        make_policy(policy) if isinstance(policy, str) else policy,
        spec,
        oracle=oracle,
        config=config,
    )


class TestClocks:
    def test_virtual_clock_monotone(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance_to(10.0)
        clock.advance_to(5.0)  # never rewinds
        assert clock.now() == 10.0

    def test_virtual_clock_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualClock(start=-1.0)

    def test_wall_clock_advances_on_its_own(self):
        clock = WallClock()
        first = clock.now()
        clock.advance_to(first + 0.01)
        assert clock.now() >= first + 0.01


class TestTraceReplayParity:
    """submit-everything + run_until is exactly the simulator contract."""

    @pytest.mark.parametrize("mode", ["round", "ideal", "physical"])
    @pytest.mark.parametrize("policy", ["fifo", "max_min_fairness", "max_min_fairness+ss", "min_cost"])
    def test_manual_replay_matches_simulator(self, oracle, small_spec, policy, mode):
        trace = _trace(oracle)
        config = SchedulerConfig(mode=mode)
        simulated = Simulator(
            make_policy(policy), small_spec, oracle=oracle, config=config
        ).run(trace)

        scheduler = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.run_until()
        assert result_fingerprint(scheduler.result()) == result_fingerprint(simulated)

    def test_simulator_config_is_scheduler_config(self):
        assert SimulatorConfig is SchedulerConfig


class TestSchedulerConfig:
    @pytest.mark.parametrize(
        ("field", "value", "mode"),
        [
            ("checkpoint_overhead_seconds", math.nan, "physical"),
            ("checkpoint_overhead_seconds", math.inf, "physical"),
            ("max_simulated_seconds", math.nan, "round"),
            ("max_simulated_seconds", math.inf, "round"),
            ("max_simulated_seconds", -1.0, "round"),
            ("max_simulated_seconds", 0.0, "continuous"),
            ("resolve_interval_seconds", math.nan, "continuous"),
            ("resolve_interval_seconds", math.inf, "continuous"),
            ("round_duration_seconds", math.nan, "round"),
            ("round_duration_seconds", math.inf, "round"),
            ("throughput_jitter_std", math.nan, "physical"),
            ("colocation_threshold", math.nan, "round"),
            ("colocation_threshold", -1.0, "round"),
        ],
    )
    def test_non_finite_or_out_of_range_numbers_rejected(self, field, value, mode):
        """Each of these used to be accepted, and failed late, wrongly or never."""
        with pytest.raises(ConfigurationError, match=field):
            SchedulerConfig(mode=mode, **{field: value})


class TestSubmitCancel:
    def test_duplicate_submit_rejected(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        job = Job(job_id=1, job_type="resnet18-bs64", total_steps=1000.0, arrival_time=0.0)
        scheduler.submit(job)
        with pytest.raises(ConfigurationError):
            scheduler.submit(job)

    def test_unknown_job_type_rejected_at_submit(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        ghost = Job(job_id=0, job_type="no-such-model", total_steps=1000.0, arrival_time=2226.0)
        with pytest.raises(UnknownJobError):
            scheduler.submit(ghost)
        # Nothing was queued or recorded: the run and its result ignore the job.
        scheduler.submit(
            Job(job_id=1, job_type="resnet18-bs64", total_steps=1000.0, arrival_time=0.0)
        )
        scheduler.run_until()
        assert set(scheduler.result().records) == {1}
        assert scheduler.result().records[1].completed

    def test_cancel_unknown_job_rejected(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(UnknownJobError):
            scheduler.cancel(99)

    def test_cancel_pending_job_never_runs(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        early = Job(job_id=0, job_type="resnet18-bs64", total_steps=200_000.0, arrival_time=0.0)
        late = Job(job_id=1, job_type="resnet18-bs64", total_steps=200_000.0, arrival_time=1e6)
        scheduler.submit(early)
        scheduler.submit(late)
        scheduler.cancel(1)
        scheduler.run_until()
        result = scheduler.result()
        assert result.records[0].completed
        assert result.records[1].cancelled
        assert not result.records[1].completed
        assert result.records[1].steps_done == 0.0

    def test_cancel_active_job_frees_capacity(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        for i in range(4):
            scheduler.submit(
                Job(job_id=i, job_type="resnet18-bs64", total_steps=500_000.0, arrival_time=0.0)
            )
        scheduler.run_until(3600.0)
        recomputations_before = scheduler.status().num_policy_recomputations
        scheduler.cancel(0)
        assert 0 not in scheduler.status().active_job_ids
        scheduler.run_until()
        result = scheduler.result()
        assert scheduler.status().num_policy_recomputations > recomputations_before
        assert result.records[0].cancelled
        assert not result.records[0].completed
        assert 0 < result.records[0].steps_done < 500_000.0
        for i in (1, 2, 3):
            assert result.records[i].completed

    def test_cancelled_job_cannot_be_cancelled_twice(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=500_000.0, arrival_time=0.0)
        )
        scheduler.run_until(3600.0)
        scheduler.cancel(0)
        with pytest.raises(SchedulingError):
            scheduler.cancel(0)

    def test_submit_after_drain_resumes(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=50_000.0, arrival_time=0.0)
        )
        scheduler.run_until()
        assert not scheduler.has_work
        drained_at = scheduler.now
        scheduler.submit(
            Job(job_id=1, job_type="resnet18-bs64", total_steps=50_000.0, arrival_time=drained_at)
        )
        assert scheduler.has_work
        scheduler.run_until()
        assert scheduler.result().records[1].completed


class TestResize:
    def test_grow_speeds_up_completion(self, oracle):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1})
        jobs = [
            Job(job_id=i, job_type="resnet18-bs64", total_steps=400_000.0, arrival_time=0.0)
            for i in range(6)
        ]

        plain = _scheduler(oracle, spec)
        for job in jobs:
            plain.submit(job)
        plain.run_until()
        baseline_end = plain.result().end_time

        grown = _scheduler(oracle, spec)
        for job in jobs:
            grown.submit(job)
        grown.run_until(3600.0)
        grown.resize({"v100": +3})
        assert grown.cluster_spec.count("v100") == 4
        grown.run_until()
        result = grown.result()
        assert result.end_time < baseline_end
        assert all(record.completed for record in result.records.values())

    def test_capacity_accounting_integrates_epochs(self, oracle):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1})
        scheduler = _scheduler(oracle, spec)
        for i in range(4):
            scheduler.submit(
                Job(job_id=i, job_type="resnet18-bs64", total_steps=400_000.0, arrival_time=0.0)
            )
        scheduler.run_until(7200.0)
        resize_time = scheduler.now
        scheduler.resize({"v100": +1})
        scheduler.run_until()
        result = scheduler.result()
        expected_v100 = 1 * resize_time + 2 * (result.end_time - resize_time)
        assert result.capacity_worker_seconds["v100"] == pytest.approx(expected_v100)
        assert result.capacity_worker_seconds["k80"] == pytest.approx(result.end_time)
        assert 0.0 < result.utilization() <= 1.0

    def test_shrink_keeps_schedule_feasible(self, oracle):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        scheduler = _scheduler(oracle, spec)
        for i in range(5):
            scheduler.submit(
                Job(job_id=i, job_type="resnet18-bs64", total_steps=400_000.0, arrival_time=0.0)
            )
        scheduler.run_until(3600.0)
        scheduler.resize({"v100": -1, "p100": -1})
        scheduler.run_until()
        result = scheduler.result()
        assert all(record.completed for record in result.records.values())
        assert result.utilization() <= 1.0 + 1e-9

    def test_resize_accepts_full_spec(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        new_spec = ClusterSpec.from_counts(
            {"v100": 4, "p100": 1, "k80": 1}, registry=small_spec.registry
        )
        assert scheduler.resize(new_spec) is new_spec
        assert scheduler.cluster_spec.count("v100") == 4

    def test_resize_unknown_type_rejected(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(ConfigurationError):
            scheduler.resize({"tpu": +1})

    def test_resize_below_zero_rejected(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(ConfigurationError):
            scheduler.resize({"v100": -5})


class TestSwapPolicy:
    def test_swap_changes_decisions_and_completes(self, oracle, small_spec):
        trace = _trace(oracle, num_jobs=8)
        scheduler = _scheduler(oracle, small_spec, "max_min_fairness")
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.run_until(20_000.0)
        old = scheduler.swap_policy("fifo")
        assert old.name == "max_min_fairness"
        assert scheduler.policy.name == "fifo"
        scheduler.run_until()
        result = scheduler.result()
        assert result.policy_name.startswith("fifo")
        assert all(record.completed for record in result.records.values())

    def test_swap_to_space_sharing_rebuilds_engine(self, oracle, small_spec):
        trace = _trace(oracle, num_jobs=8)
        scheduler = _scheduler(oracle, small_spec, "max_min_fairness")
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.run_until(20_000.0)
        assert not scheduler._engine.space_sharing
        scheduler.swap_policy("max_min_fairness+ss")
        assert scheduler._engine.space_sharing
        assert set(scheduler._engine.job_ids) == set(scheduler.status().active_job_ids)
        scheduler.run_until()
        assert all(record.completed for record in scheduler.result().records.values())

    def test_swap_starts_new_allocation_period(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        for i in range(3):
            scheduler.submit(
                Job(job_id=i, job_type="resnet18-bs64", total_steps=500_000.0, arrival_time=0.0)
            )
        scheduler.run_until(3600.0)
        before = scheduler.status().num_policy_recomputations
        scheduler.swap_policy("fifo")
        scheduler.step()
        assert scheduler.status().num_policy_recomputations == before + 1


class TestStatusAndStepping:
    def test_status_reports_progress(self, oracle, small_spec):
        trace = _trace(oracle, num_jobs=6)
        scheduler = _scheduler(oracle, small_spec)
        for job in trace.jobs:
            scheduler.submit(job)
        initial = scheduler.status()
        assert initial.has_work
        assert initial.num_rounds == 0
        assert len(initial.pending_job_ids) == 6
        scheduler.run_until(30_000.0)
        middle = scheduler.status()
        assert middle.num_rounds > 0
        assert middle.current_time >= 30_000.0
        scheduler.run_until()
        final = scheduler.status()
        assert not final.has_work
        assert len(final.completed_job_ids) == 6
        assert final.policy_name == "max_min_fairness"

    def test_step_is_one_round(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=1e9, arrival_time=0.0)
        )
        assert scheduler.step()
        assert scheduler.status().num_rounds == 1
        assert scheduler.now == pytest.approx(360.0)

    def test_step_without_work_is_a_no_op(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        assert not scheduler.step()
        assert scheduler.status().num_rounds == 0

    def test_run_until_overshoots_at_most_one_round(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=1e9, arrival_time=0.0)
        )
        scheduler.run_until(1000.0)
        assert 1000.0 <= scheduler.now <= 1000.0 + 360.0

    def test_run_until_idles_to_horizon(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=1000.0, arrival_time=50_000.0)
        )
        scheduler.run_until(10_000.0)
        assert scheduler.now == pytest.approx(10_000.0)
        assert scheduler.status().num_rounds == 0  # arrival is beyond the horizon
        scheduler.run_until()
        assert scheduler.result().records[0].completed


class TestAggregatedScheduling:
    def test_type_mode_runs_with_aggregated_session(self, oracle, small_spec):
        from repro.core.aggregation import AggregatedSession

        config = SchedulerConfig(aggregation="type")
        scheduler = _scheduler(oracle, small_spec, "max_min_fairness", config)
        for job in _trace(oracle, num_jobs=8).jobs:
            scheduler.submit(job)
        scheduler.run_until()
        assert isinstance(scheduler._session, AggregatedSession)
        assert all(record.completed for record in scheduler.result().records.values())

    def test_type_mode_rejects_unsupported_policy(self, oracle, small_spec):
        config = SchedulerConfig(aggregation="type")
        with pytest.raises(ConfigurationError, match="aggregation"):
            _scheduler(oracle, small_spec, "finish_time_fairness", config)

    def test_swap_policy_applies_aggregation_mode(self, oracle, small_spec):
        config = SchedulerConfig(aggregation="type")
        scheduler = _scheduler(oracle, small_spec, "max_min_fairness", config)
        swapped = scheduler.swap_policy("min_cost")
        assert swapped.aggregation == "type"
        # The water-filling family aggregates too since the level loop runs
        # over group representatives.
        swapped = scheduler.swap_policy("hierarchical")
        assert swapped.aggregation == "type"
        with pytest.raises(ConfigurationError, match="aggregation"):
            scheduler.swap_policy("finish_time_fairness")

    @pytest.mark.parametrize("mode", ["round", "ideal", "physical"])
    @pytest.mark.parametrize(
        "policy", ["max_min_fairness_water_filling", "hierarchical"]
    )
    def test_aggregated_water_filling_snapshot_restore_is_deterministic(
        self, oracle, small_spec, policy, mode
    ):
        """Aggregated level-loop sessions restore byte-for-byte from a snapshot."""
        from repro.core.aggregation import AggregatedSession

        trace = _trace(oracle, num_jobs=10)
        config = SchedulerConfig(mode=mode, aggregation="type")

        uninterrupted = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            uninterrupted.submit(job)
        uninterrupted.run_until()
        reference = result_fingerprint(uninterrupted.result())

        interrupted = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            interrupted.submit(job)
        interrupted.run_until(40_000.0)
        checkpoint = interrupted.snapshot()

        resumed = _scheduler(oracle, small_spec, policy, config)
        resumed.restore(checkpoint)
        assert isinstance(resumed._session, AggregatedSession)
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference

    def test_mid_churn_swap_into_aggregated_water_filling_restores(
        self, oracle, small_spec
    ):
        """swap_policy into an aggregated iterative policy survives snapshot/restore."""
        from repro.core.aggregation import AggregatedSession
        from repro.core.water_filling import WaterFillingSession

        trace = _trace(oracle, num_jobs=10)
        config = SchedulerConfig(aggregation="type")

        scheduler = _scheduler(oracle, small_spec, "max_min_fairness", config)
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.run_until(20_000.0)
        swapped = scheduler.swap_policy("max_min_fairness_water_filling")
        assert swapped.aggregation == "type"
        scheduler.run_until(60_000.0)  # several rounds of session history
        checkpoint = scheduler.snapshot()
        assert len(checkpoint.session_history) > 1
        scheduler.run_until()
        reference = result_fingerprint(scheduler.result())

        resumed = _scheduler(oracle, small_spec, "max_min_fairness", config)
        resumed.restore(checkpoint)
        assert resumed.policy.name == "max_min_fairness_water_filling"
        assert isinstance(resumed._session, AggregatedSession)
        assert isinstance(resumed._session.inner, WaterFillingSession)
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference

    @pytest.mark.parametrize("policy", ["max_min_fairness", "max_min_fairness+ss"])
    def test_snapshot_restore_is_deterministic_under_type_mode(
        self, oracle, small_spec, policy
    ):
        trace = _trace(oracle, num_jobs=10)
        config = SchedulerConfig(aggregation="type")

        uninterrupted = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            uninterrupted.submit(job)
        uninterrupted.run_until()
        reference = result_fingerprint(uninterrupted.result())

        interrupted = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            interrupted.submit(job)
        interrupted.run_until(40_000.0)
        checkpoint = interrupted.snapshot()

        resumed = _scheduler(oracle, small_spec, policy, config)
        resumed.restore(checkpoint)
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference


class TestSnapshotRestore:
    @pytest.mark.parametrize("mode", ["round", "ideal", "physical"])
    @pytest.mark.parametrize(
        "policy",
        [
            "fifo",
            "max_min_fairness",
            "max_min_fairness+ss",
            "makespan",
            "min_cost",
            "max_min_fairness_water_filling",
        ],
    )
    def test_interrupt_and_resume_is_deterministic(self, oracle, small_spec, policy, mode):
        """Resuming a mid-trace snapshot reproduces the uninterrupted run exactly."""
        trace = _trace(oracle, num_jobs=10)
        config = SchedulerConfig(mode=mode)

        uninterrupted = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            uninterrupted.submit(job)
        uninterrupted.run_until()
        reference = result_fingerprint(uninterrupted.result())

        interrupted = _scheduler(oracle, small_spec, policy, config)
        for job in trace.jobs:
            interrupted.submit(job)
        interrupted.run_until(40_000.0)
        checkpoint = interrupted.snapshot()

        resumed = _scheduler(oracle, small_spec, policy, config)
        resumed.restore(checkpoint)
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference

    def test_rollback_on_same_instance(self, oracle, small_spec):
        trace = _trace(oracle, num_jobs=8)
        scheduler = _scheduler(oracle, small_spec)
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.run_until(30_000.0)
        checkpoint = scheduler.snapshot()
        scheduler.run_until()
        first = result_fingerprint(scheduler.result())
        scheduler.restore(checkpoint)
        assert scheduler.now == pytest.approx(checkpoint.time)
        scheduler.run_until()
        assert result_fingerprint(scheduler.result()) == first

    def test_snapshot_is_isolated_from_later_mutation(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        for i in range(4):
            scheduler.submit(
                Job(job_id=i, job_type="resnet18-bs64", total_steps=400_000.0, arrival_time=0.0)
            )
        scheduler.run_until(3600.0)
        checkpoint = scheduler.snapshot()
        steps_at_checkpoint = {j: r.steps_done for j, r in checkpoint.records.items()}
        seconds_at_checkpoint = {
            j: dict(r.accelerator_seconds) for j, r in checkpoint.records.items()
        }
        assert any(seconds_at_checkpoint.values())
        scheduler.run_until()
        assert {j: r.steps_done for j, r in checkpoint.records.items()} == steps_at_checkpoint
        assert {
            j: r.accelerator_seconds for j, r in checkpoint.records.items()
        } == seconds_at_checkpoint

    def test_restore_preserves_online_events(self, oracle, small_spec):
        """A snapshot taken after cancel/resize restores the changed state."""
        trace = _trace(oracle, num_jobs=8)
        scheduler = _scheduler(oracle, small_spec)
        for job in trace.jobs:
            scheduler.submit(job)
        scheduler.run_until(20_000.0)
        victim = scheduler.status().active_job_ids[0]
        scheduler.cancel(victim)
        scheduler.resize({"v100": +1})
        scheduler.run_until(40_000.0)
        checkpoint = scheduler.snapshot()
        scheduler.run_until()
        reference = result_fingerprint(scheduler.result())

        resumed = _scheduler(oracle, small_spec)
        resumed.restore(checkpoint)
        assert resumed.cluster_spec.count("v100") == 3
        assert resumed.status().cancelled_job_ids == (victim,)
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference

    def test_swap_to_water_filling_snapshot_restore_is_byte_deterministic(
        self, oracle, small_spec
    ):
        """swap_policy -> snapshot -> restore rebuilds the water-filling session.

        Before water filling became sessionful its RebuildSession kept no
        solver state; now the restore must rebuild the live level-loop
        programs (their HiGHS models from their call journals) so the
        restored run matches the uninterrupted one byte for byte.
        """
        trace = _trace(oracle, num_jobs=10)

        def fresh():
            scheduler = _scheduler(oracle, small_spec, "max_min_fairness")
            for job in trace.jobs:
                scheduler.submit(job)
            return scheduler

        scheduler = fresh()
        scheduler.run_until(20_000.0)
        scheduler.swap_policy("max_min_fairness_water_filling")
        scheduler.run_until(60_000.0)  # several rounds of session history
        checkpoint = scheduler.snapshot()
        assert len(checkpoint.session_history) > 1
        scheduler.run_until()
        reference = result_fingerprint(scheduler.result())

        resumed = _scheduler(oracle, small_spec, "max_min_fairness")
        resumed.restore(checkpoint)
        assert resumed.policy.name == "max_min_fairness_water_filling"
        from repro.core.water_filling import WaterFillingSession

        assert isinstance(resumed._session, WaterFillingSession)
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference

    def test_restore_requires_virtual_clock(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        checkpoint = scheduler.snapshot()
        live = ClusterScheduler(
            make_policy("max_min_fairness"), small_spec, oracle=oracle, clock=WallClock()
        )
        with pytest.raises(ConfigurationError):
            live.restore(checkpoint)


class TestSessionCorrectnessUnderChurn:
    """The long-lived session agrees with from-scratch solves through churn."""

    @staticmethod
    def _las_objective(problem, matrix, allocation):
        """Max-min objective value: the minimum normalized effective throughput."""
        from repro.core.effective_throughput import isolated_reference_throughput

        worst = math.inf
        for job_id in problem.job_ids:
            achieved = effective_throughput(matrix, allocation, job_id)
            reference = isolated_reference_throughput(
                matrix,
                problem.cluster_spec,
                job_id,
                num_jobs=problem.num_jobs,
                scale_factor=problem.scale_factor(job_id),
            )
            if reference > 0:
                worst = min(worst, achieved / reference)
        return worst

    @pytest.mark.parametrize("policy_name", ["max_min_fairness", "min_cost"])
    def test_session_solution_matches_scratch_through_cancel_resize(
        self, oracle, policy_name
    ):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
        policy = make_policy(policy_name)
        scheduler = _scheduler(oracle, spec, policy)
        trace = _trace(oracle, num_jobs=12, jobs_per_hour=10.0)
        for job in trace.jobs:
            scheduler.submit(job)

        events = [
            (20_000.0, "cancel"),
            (30_000.0, "resize", {"v100": +2}),
            (45_000.0, "cancel"),
            (60_000.0, "resize", {"v100": -1, "k80": +1}),
        ]
        for event in events:
            scheduler.run_until(event[0])
            if event[1] == "cancel":
                active = scheduler.status().active_job_ids
                if active:
                    scheduler.cancel(active[-1])
            else:
                scheduler.resize(event[2])
            if not scheduler.status().active_job_ids:
                continue
            scheduler.step()  # recompute through the live session

            # Rebuild the same problem snapshot and solve it from scratch.
            session = scheduler._session
            problem = session.problem
            session_allocation = session.solve(problem)
            scratch_allocation = policy.compute_allocation(problem)
            session_allocation.validate(problem.cluster_spec)
            scratch_allocation.validate(problem.cluster_spec)
            matrix = policy.effective_matrix(problem)
            if policy_name == "max_min_fairness":
                session_value = self._las_objective(problem, matrix, session_allocation)
                scratch_value = self._las_objective(problem, matrix, scratch_allocation)
                assert session_value == pytest.approx(scratch_value, rel=1e-4)
            else:
                for job_id in problem.job_ids:
                    assert effective_throughput(
                        matrix, session_allocation, job_id
                    ) == pytest.approx(
                        effective_throughput(matrix, scratch_allocation, job_id), rel=1e-4, abs=1e-9
                    )
        scheduler.run_until()
        assert not scheduler.has_work

    @pytest.mark.parametrize("mode", ["round", "ideal", "physical"])
    def test_water_filling_session_matches_rebuild_in_every_mode(
        self, oracle, small_spec, mode
    ):
        """A full run on the live water-filling session matches RebuildSession.

        ``round`` mode — the paper's actual mechanism — must match byte for
        byte.  In the fluid/jittered modes allocations feed progress directly,
        so two equally-optimal level-loop vertices may split a job's time
        differently across accelerator types; there the per-job completion
        times must still agree to well under one round.
        """
        from repro.core.hierarchical import WaterFillingFairnessPolicy
        from repro.core.session import RebuildSession

        class ForcedRebuild(WaterFillingFairnessPolicy):
            def session(self, problem):
                return RebuildSession(self, problem)

        trace = _trace(oracle, num_jobs=10)
        config = SchedulerConfig(mode=mode)
        results = {}
        for label, policy in (
            ("session", make_policy("max_min_fairness_water_filling")),
            ("rebuild", ForcedRebuild()),
        ):
            scheduler = _scheduler(oracle, small_spec, policy, config)
            for job in trace.jobs:
                scheduler.submit(job)
            scheduler.run_until()
            results[label] = scheduler.result()
        session, rebuild = results["session"], results["rebuild"]
        if mode == "round":
            assert result_fingerprint(session) == result_fingerprint(rebuild)
            return
        assert session.num_rounds == rebuild.num_rounds
        for job_id, record in session.records.items():
            assert record.completion_time == pytest.approx(
                rebuild.records[job_id].completion_time,
                abs=config.round_duration_seconds,
                rel=1e-3,
            )


class TestRoundMechanismReproducesRecordedRuns:
    """Seeded round runs (see ``round_fingerprint_scenarios``; pinned in ``tests/outcomes.py``)."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_run_keeps_what_no_tie_break_may_move_in_the_cold_recording(self, name):
        """Against the recording made before the basis survived row edits.

        Its runs were fed other (equally optimal) LAS vertices, so times and
        dollars differ; the jobs that complete, the cancelled set (empty) and
        the validity of the run may not.
        """
        result = run_scenario(name).result()
        recorded = json.loads(RECORDED_COLD.read_text(encoding="utf-8"))[name]
        completed = {str(job_id) for job_id, record in result.records.items() if record.completed}
        assert completed == {
            job_id for job_id, time in recorded["completion_time"].items() if time is not None
        }
        assert not any(record.cancelled for record in result.records.values())
        assert 0.0 < result.utilization() <= 1.0
        for record in result.records.values():
            assert record.first_allocation_time >= record.job.arrival_time
            assert record.completion_time > record.first_allocation_time
            assert record.steps_done >= record.job.total_steps * (1 - 1e-9)
            assert all(seconds >= 0.0 for seconds in record.accelerator_seconds.values())

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_mid_period_snapshot_resumes_byte_identically(self, name):
        """Snapshot between two re-allocations, with time already received this period."""
        reference = result_fingerprint(run_scenario(name).result())
        interrupted = run_scenario(name, until=30_000.0)
        checkpoint = interrupted.snapshot()
        while checkpoint.allocation_stale or not checkpoint.tracker_state.any():
            interrupted.step()
            checkpoint = interrupted.snapshot()
        resumed = scenario_scheduler(name).restore(checkpoint)
        np.testing.assert_array_equal(
            resumed.snapshot().tracker_state, checkpoint.tracker_state
        )
        resumed.run_until()
        assert result_fingerprint(resumed.result()) == reference


@pytest.mark.parametrize("spec", WATER_FILLING_SPECS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_water_filling_detection_accounts_for_every_milp(monkeypatch, name, spec):
    """``_solve_milp`` runs only as a counted fallback, and never without ``+ss``.

    Without space sharing every bottleneck detection of these runs is decided
    by its LP relaxation.  Pair rows make two fractional indicators possible:
    ``round`` x ``hierarchical+ss`` has one such detection, which the integer
    re-solve then confirms.
    """
    from repro.core.water_filling import _LevelLoopProgram
    from repro.solver.lp import LinearProgram

    milp_calls = []
    solve_milp = LinearProgram._solve_milp

    def counted_milp(self, integrality):
        milp_calls.append(self.name)
        return solve_milp(self, integrality)

    results = []
    run = _LevelLoopProgram.run

    def recorded_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(LinearProgram, "_solve_milp", counted_milp)
    monkeypatch.setattr(_LevelLoopProgram, "run", recorded_run)
    scheduler = run_scenario(name, policy=spec)
    assert not scheduler.has_work
    assert sum(result.detection_solves for result in results) > 0
    assert sum(result.infeasible_detections for result in results) == 0
    fallbacks = sum(result.milp_fallbacks for result in results)
    assert milp_calls == ["water_filling_detection"] * fallbacks
    if not spec.endswith("+ss"):
        assert fallbacks == 0


@pytest.mark.parametrize(
    "aggregation, max_history", [("job", None), ("type", None), ("job", 4)]
)
def test_restored_hierarchical_twin_re_solves_both_programs_from_the_same_bases(
    oracle, small_spec, monkeypatch, aggregation, max_history
):
    """``restore()`` rebuilds the level *and* the detection program's solver state.

    A water-filling session keeps two live programs, and which of several
    tying jobs a detection picks depends on the basis it starts from.  The
    rebuilt models must therefore leave both programs of the twin where the
    original's are: every forward solve agrees in program, warm-start flag
    and pivot count, not just in outcome.  After a ``max_session_history``
    re-base both start over, in the twin as in the original: one cold solve
    per program per re-base.
    """
    from repro.solver.lp import LinearProgram

    solved = []
    solve = LinearProgram.solve

    def recording(program, *args, **kwargs):
        solution = solve(program, *args, **kwargs)
        solved.append((program.name, solution.warm_started, solution.simplex_iterations))
        return solution

    monkeypatch.setattr(LinearProgram, "solve", recording)
    config = SchedulerConfig(
        mode="round", aggregation=aggregation, max_session_history=max_history
    )

    def loaded():
        scheduler = _scheduler(oracle, small_spec, policy="hierarchical", config=config)
        for job in _trace(oracle, num_jobs=12, jobs_per_hour=6.0, seed=7).jobs:
            scheduler.submit(job)
        return scheduler

    original = loaded()
    while original.result().num_policy_recomputations < 6:
        original.step()
    snapshot = original.snapshot()
    if max_history is not None:
        assert len(snapshot.session_history) <= max_history
    twin = _scheduler(oracle, small_spec, policy="hierarchical", config=config).restore(
        snapshot
    )

    solved.clear()
    original.run_until()
    forward = list(solved)
    solved.clear()
    twin.run_until()
    assert solved == forward
    programs = {name for name, _warm, _iterations in forward}
    assert programs == {"hierarchical", "water_filling_detection"}
    for name in programs:
        flags = [warm for program, warm, _iterations in forward if program == name]
        assert flags[0], f"{name}: the first solve after the snapshot starts from a basis"
        assert (flags.count(False) == 0) if max_history is None else (flags.count(False) >= 1)
    assert result_fingerprint(original.result()) == result_fingerprint(twin.result())
