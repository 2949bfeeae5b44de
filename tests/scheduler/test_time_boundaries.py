"""Regression tests for the service core's time-boundary semantics.

Four bugs lived here:

* ``step()``/``run_until()`` guarded the simulation cap with ``>`` instead of
  ``>=``, so a round *starting* exactly at ``max_simulated_seconds`` still
  executed and the clock overshot the configured maximum by a full round;
* the round modes jumped an idle scheduler to the next arrival without the
  clamp the fluid modes applied, so a round could start (and a job be
  admitted, allocated and run) *past* the cap when the arrival lay beyond it;
* the round modes also woke an idle scheduler at the next arrival only, so a
  control event queued inside the idle gap applied at the arrival, and
  ``run_until(t)`` with that event before ``t`` and the arrival after it ran
  a round past ``t``;
* ``_admit_arrivals`` admits jobs up to ``_ARRIVAL_EPSILON`` before their
  nominal arrival time, and ``_build_problem`` used to hide the resulting
  inconsistency by clamping ``time_elapsed`` with ``max(0.0, ...)`` instead
  of recording the true admission instant.

These tests pin the fixed behavior; each fails on the pre-fix code.
"""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle

from solved_problems import solved_problems


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def small_spec():
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


def _scheduler(oracle, spec, config, policy="max_min_fairness"):
    return ClusterScheduler(make_policy(policy), spec, oracle=oracle, config=config)


def _huge_job(job_id=0, arrival_time=0.0):
    return Job(
        job_id=job_id,
        job_type="resnet18-bs64",
        total_steps=1e12,
        arrival_time=arrival_time,
    )


class TestSimulationCapBoundary:
    """A step may start strictly before the cap, never at or past it."""

    def test_round_starting_exactly_at_cap_does_not_execute(self, oracle, small_spec):
        # cap = 2 rounds exactly: rounds start at 0 and 360; a third round
        # would start at 720 == cap and (pre-fix) push the clock to 1080.
        config = SchedulerConfig(
            mode="round", round_duration_seconds=360.0, max_simulated_seconds=720.0
        )
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job())
        scheduler.run_until()
        result = scheduler.result()
        assert result.end_time == 720.0
        assert result.num_rounds == 2

    def test_step_returns_false_at_exact_cap(self, oracle, small_spec):
        config = SchedulerConfig(
            mode="round", round_duration_seconds=360.0, max_simulated_seconds=360.0
        )
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job())
        assert scheduler.step()  # the round starting at 0 runs
        assert not scheduler.step()  # the round starting at 360 == cap must not
        assert scheduler.result().end_time == 360.0

    def test_run_until_final_clamp_never_parks_past_cap(self, oracle, small_spec):
        config = SchedulerConfig(
            mode="round", round_duration_seconds=360.0, max_simulated_seconds=720.0
        )
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job())
        # A finite horizon beyond the cap must clamp the final advance to the
        # cap, not the horizon.
        scheduler.run_until(10_000.0)
        assert scheduler.result().end_time == 720.0

    def test_capacity_accounting_stops_at_cap(self, oracle, small_spec):
        # Overshooting the cap also inflated capacity worker-seconds; with
        # the >= guard both busy and capacity integrate over exactly the cap.
        config = SchedulerConfig(
            mode="round", round_duration_seconds=360.0, max_simulated_seconds=720.0
        )
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job())
        scheduler.run_until()
        capacity = scheduler.result().capacity_worker_seconds
        assert capacity["v100"] == pytest.approx(2 * 720.0)

    @pytest.mark.parametrize("mode", ["ideal", "continuous"])
    def test_fluid_modes_respect_the_same_boundary(self, oracle, small_spec, mode):
        # Fluid steps are atomic (they run to the next event, which here is
        # the job's completion far past the cap), but no step may *start* at
        # or past the cap: an arrival exactly at the cap never executes.
        config = SchedulerConfig(mode=mode, max_simulated_seconds=720.0)
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job(job_id=0, arrival_time=720.0))
        scheduler.run_until()
        result = scheduler.result()
        assert result.num_rounds == 0
        assert result.records[0].steps_done == 0.0
        assert result.end_time == 720.0


    @pytest.mark.parametrize("mode", ["round", "physical"])
    def test_idle_jump_in_round_modes_stops_at_the_cap(self, oracle, small_spec, mode):
        # Pre-fix: one step() jumped to the arrival at 5000, ran a round there
        # (clock 5360, progress, first allocation at 5000) although no step
        # may start at or past the cap.  Fluid modes always parked at the cap.
        config = SchedulerConfig(
            mode=mode, round_duration_seconds=360.0, max_simulated_seconds=1000.0
        )
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job(job_id=0, arrival_time=5000.0))
        assert scheduler.step()  # work remains: the job is still queued
        assert scheduler.now == 1000.0
        assert not scheduler.step()  # and the guard now refuses every further step
        result = scheduler.result()
        assert (result.end_time, result.num_rounds) == (1000.0, 0)
        assert result.num_policy_recomputations == 0
        record = result.records[0]
        assert record.steps_done == 0.0 and record.first_allocation_time is None
        assert scheduler.status().pending_job_ids == (0,)

    @pytest.mark.parametrize("mode", ["round", "physical"])
    def test_idle_jump_to_an_arrival_before_the_cap_still_runs_there(
        self, oracle, small_spec, mode
    ):
        config = SchedulerConfig(
            mode=mode, round_duration_seconds=360.0, max_simulated_seconds=1000.0
        )
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job(job_id=0, arrival_time=900.0))
        scheduler.run_until()
        result = scheduler.result()
        assert (result.end_time, result.num_rounds) == (1260.0, 1)
        assert result.records[0].first_allocation_time == 900.0


class TestIdleWake:
    """An idle scheduler wakes at the next arrival or control event, whichever is first."""

    @pytest.mark.parametrize("mode", ["round", "physical", "continuous", "ideal"])
    def test_run_until_stops_at_the_horizon_past_an_idle_control_event(
        self, oracle, small_spec, mode
    ):
        # Pre-fix, the round modes woke at the arrival (1000), applied the
        # resize there, admitted the job and ran a round to 1360.
        config = SchedulerConfig(mode=mode, round_duration_seconds=360.0)
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job(job_id=0, arrival_time=1000.0))
        scheduler.schedule_resize({"v100": +1}, 500.0)
        scheduler.run_until(800.0)
        result = scheduler.result()
        assert (scheduler.now, result.num_rounds) == (800.0, 0)
        assert scheduler.status().pending_job_ids == (0,)
        # The resize applied at its own timestamp.
        assert scheduler.cluster_spec.count("v100") == 3
        assert result.capacity_worker_seconds["v100"] == 2 * 500.0 + 3 * 300.0
        scheduler.step()  # the next wake is the arrival
        assert scheduler.result().records[0].first_allocation_time == 1000.0


class TestEpsilonAdmission:
    """Epsilon-early admissions must never feed negative elapsed time to policies."""

    def test_admission_time_is_never_before_arrival(self, oracle, small_spec):
        # With a job active from t=0, round boundaries sit at multiples of
        # 360; a second job arriving 1e-10 *after* a boundary is within
        # _ARRIVAL_EPSILON and gets admitted early at that boundary.  The
        # clock must be nudged to the true admission instant: pre-fix the
        # solve saw current_time=360 with an arrival in its future (and a
        # max(0.0, ...) clamp downstream hiding the negative elapsed time).
        arrival = 360.0 + 1e-10
        config = SchedulerConfig(mode="round", round_duration_seconds=360.0)
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job(job_id=0, arrival_time=0.0))
        scheduler.submit(_huge_job(job_id=1, arrival_time=arrival))
        with solved_problems() as problems:
            scheduler.step()  # round at 0: job 0 only
            scheduler.step()  # round at 360: admits job 1 epsilon-early
        problem = problems[-1]
        assert 1 in problem.jobs
        assert problem.current_time >= arrival
        assert all(value >= 0.0 for value in problem.time_elapsed.values())

    @pytest.mark.parametrize("policy", ["max_min_fairness", "finish_time_fairness"])
    @pytest.mark.parametrize("mode", ["round", "ideal"])
    def test_elapsed_time_stays_non_negative_under_churn(
        self, oracle, small_spec, policy, mode
    ):
        # Several jobs arriving epsilon-early relative to the admitting
        # step's clock; every problem snapshot handed to LAS/FTF solves must
        # carry non-negative elapsed times without any masking clamp.
        config = SchedulerConfig(mode=mode, round_duration_seconds=360.0)
        scheduler = _scheduler(oracle, small_spec, config, policy=policy)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=200_000.0, arrival_time=0.0)
        )
        for index in range(1, 4):
            # Epsilon above each round boundary: admitted early at that
            # boundary in round mode.
            scheduler.submit(
                Job(
                    job_id=index,
                    job_type="resnet18-bs64",
                    total_steps=200_000.0,
                    arrival_time=index * 360.0 + 1e-10,
                )
            )
        with solved_problems() as problems:
            scheduler.run_until(3600.0)
        assert problems, "no solves recorded"
        for problem in problems:
            for job_id, elapsed in problem.time_elapsed.items():
                assert elapsed >= 0.0, (
                    f"job {job_id} saw negative elapsed {elapsed} at "
                    f"t={problem.current_time}"
                )
            assert all(
                problem.current_time >= job.arrival_time - 1e-12
                for job in problem.jobs.values()
            )

    def test_elapsed_measures_time_since_admission(self, oracle, small_spec):
        # A job that waited in the pending queue (cluster saturated is not
        # needed — just a later arrival) accrues elapsed time from its
        # *admission*, which for a normal arrival equals its arrival time.
        config = SchedulerConfig(mode="round", round_duration_seconds=360.0)
        scheduler = _scheduler(oracle, small_spec, config)
        scheduler.submit(_huge_job(job_id=0, arrival_time=0.0))
        scheduler.submit(_huge_job(job_id=1, arrival_time=500.0))
        with solved_problems() as problems:
            scheduler.run_until(1440.0)
        problem = problems[-1]
        now = problem.current_time
        assert problem.time_elapsed[0] == pytest.approx(now)
        # Job 1 arrived at 500 but was admitted at the first round boundary
        # at or after that (720); elapsed counts from the admission instant.
        assert problem.time_elapsed[1] == pytest.approx(now - 720.0)
