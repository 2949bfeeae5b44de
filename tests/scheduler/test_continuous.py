"""Tests for the continuous (event-driven) scheduling mode.

``mode="continuous"`` runs the central event loop — arrivals, completions,
scheduled cancels/resizes/policy swaps, optional periodic re-solve ticks —
with ``ideal`` as its zero-overhead special case.  These tests pin:

* registry-wide byte-equivalence between the two modes under identical
  scheduled churn;
* mid-churn snapshot→restore byte-determinism with a queued event heap
  (cancels/resizes/swaps in flight at snapshot time);
* the periodic re-solve tick machinery and its config validation;
* the time-to-first-allocation and allocation-staleness latency metrics;
* round mode converging toward continuous completion times as the round
  duration shrinks (the Figure 13 story).
"""

import heapq
import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import available_policies, make_policy
from repro.exceptions import ConfigurationError, UnknownJobError
from repro.harness import steady_state_job_ids
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.workloads import Job, ThroughputOracle, TraceGenerator

from solved_problems import solved_problems

from tests.outcomes import result_fingerprint


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def small_spec():
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


def _scheduler(oracle, spec, policy="max_min_fairness", config=None):
    return ClusterScheduler(
        make_policy(policy) if isinstance(policy, str) else policy,
        spec,
        oracle=oracle,
        config=config,
    )


def _trace(oracle, num_jobs=10, jobs_per_hour=6.0, seed=5):
    return TraceGenerator(oracle).generate_continuous(
        num_jobs=num_jobs, jobs_per_hour=jobs_per_hour, seed=seed
    )


class TestModeEquivalenceRegistryWide:
    """Continuous must reproduce ideal byte-for-byte for every registry policy.

    Ideal is the continuous event loop without re-solve ticks, so with the
    same workload and the same queued control events (mid-run cancels, a
    resize, a same-spec policy hot-swap) the two modes must produce
    bit-identical outcomes, not objectives that agree to tolerance: any drift
    means a mode-dependent branch.
    """

    @pytest.mark.parametrize("spec", available_policies())
    def test_continuous_matches_ideal_under_churn(self, oracle, small_spec, spec):
        trace = _trace(oracle, seed=11)
        jobs = [job.with_entity(job.job_id % 3) for job in trace.jobs]
        mid_run = jobs[len(jobs) // 2].arrival_time + 600.0
        cancelled = jobs[2::4]
        assert len(jobs) >= 5 and cancelled

        def run(mode):
            config = SchedulerConfig(mode=mode, max_simulated_seconds=2_000_000.0)
            scheduler = _scheduler(oracle, small_spec, spec, config)
            for job in jobs:
                scheduler.submit(job)
            for job in cancelled:
                # May fire after the job finished; both modes skip it alike.
                scheduler.schedule_cancel(job.job_id, at=job.arrival_time + 900.0)
            scheduler.schedule_resize({small_spec.registry.names[0]: +1}, at=mid_run)
            scheduler.schedule_swap_policy(spec, at=mid_run + 600.0)
            scheduler.run_until()
            return result_fingerprint(scheduler.result())

        assert run("ideal") == run("continuous"), f"{spec}: continuous diverged from ideal"


class TestSnapshotRestoreMidChurn:
    def _loaded_scheduler(self, oracle, small_spec, mode="continuous"):
        config = SchedulerConfig(mode=mode, max_simulated_seconds=5_000_000.0)
        scheduler = _scheduler(oracle, small_spec, config=config)
        trace = _trace(oracle, num_jobs=12, jobs_per_hour=6.0, seed=7)
        for job in trace.jobs:
            scheduler.submit(job)
        # Queue churn both before and far after the snapshot point so the
        # serialized heap carries events in flight.
        scheduler.schedule_cancel(2, at=4_000.0)
        scheduler.schedule_cancel(5, at=40_000.0)
        scheduler.schedule_resize({"v100": +1}, at=50_000.0)
        scheduler.schedule_swap_policy("max_min_fairness_ss", at=60_000.0)
        return scheduler

    def test_mid_churn_snapshot_restore_is_byte_deterministic(self, oracle, small_spec):
        scheduler = self._loaded_scheduler(oracle, small_spec)
        scheduler.run_until(10_000.0)
        snapshot = scheduler.snapshot()
        # Events scheduled for after the snapshot instant are still queued.
        assert len(snapshot.event_heap) >= 3
        assert scheduler.status().num_queued_events >= 3

        restored = _scheduler(
            oracle,
            small_spec,
            config=SchedulerConfig(mode="continuous", max_simulated_seconds=5_000_000.0),
        )
        restored.restore(snapshot)
        scheduler.run_until()
        restored.run_until()
        assert result_fingerprint(scheduler.result()) == result_fingerprint(restored.result())
        assert scheduler.result().records[5].cancelled
        assert restored.status().num_queued_events == 0

    def test_snapshot_serializes_heap_in_deterministic_order(self, oracle, small_spec):
        scheduler = self._loaded_scheduler(oracle, small_spec)
        scheduler.run_until(10_000.0)
        snapshot = scheduler.snapshot()
        # The serialized heap is fully ordered by (time, seq) — no dependence
        # on the in-memory heap's internal layout.
        assert snapshot.event_heap == sorted(snapshot.event_heap)
        restored = _scheduler(
            oracle,
            small_spec,
            config=SchedulerConfig(mode="continuous", max_simulated_seconds=5_000_000.0),
        )
        restored.restore(snapshot)
        again = restored.snapshot()
        assert again.event_heap == snapshot.event_heap
        assert again.event_seq == snapshot.event_seq

    @pytest.mark.parametrize(
        "max_history, policy",
        [(None, "max_min_fairness"), (6, "max_min_fairness"), (None, "min_cost")],
        ids=["None", "6", "min_cost"],
    )
    def test_restored_twin_re_solves_from_the_same_basis(
        self, oracle, small_spec, monkeypatch, max_history, policy
    ):
        """``restore()`` rebuilds the solver state the next vertex depends on.

        The LAS optimum is not unique and a live program returns the vertex
        nearest its previous basis, so a restored run only matches byte for
        byte if the rebuilt model holds the very basis the original
        held: forward solves must agree in warm-start flag and pivot count,
        not just in outcome.  Min cost carries one more piece of state, the
        ratio its Dinkelbach iteration starts from (see
        :mod:`repro.solver.fractional`): the session clone must carry it too, or
        the twin would take other steps to the same ratio.  With ``max_session_history`` the history — and
        the basis — are dropped every so many re-allocations, in the original
        as in the twin: the snapshot is taken after such a re-base, the
        restore stays bit-exact *for that run*, and every later re-base
        shows up as one cold solve on both sides.
        """
        from repro.solver.lp import LinearProgram

        solved = []
        solve = LinearProgram.solve

        def recording(program, *args, **kwargs):
            solution = solve(program, *args, **kwargs)
            solved.append((solution.warm_started, solution.simplex_iterations))
            return solution

        monkeypatch.setattr(LinearProgram, "solve", recording)
        config = SchedulerConfig(mode="continuous", max_session_history=max_history)

        def loaded():
            scheduler = _scheduler(oracle, small_spec, policy, config=config)
            for job in _trace(oracle, num_jobs=12, jobs_per_hour=6.0, seed=7).jobs:
                scheduler.submit(job)
            return scheduler

        original = loaded()
        for _ in range(10):
            original.step()
        snapshot = original.snapshot()
        if max_history is not None:
            assert original.result().num_policy_recomputations > max_history
            assert len(snapshot.session_history) <= max_history
        twin = _scheduler(oracle, small_spec, policy, config=config).restore(snapshot)

        solved.clear()
        original.run_until()
        forward = list(solved)
        solved.clear()
        twin.run_until()
        assert solved == forward
        assert forward[0][0], "the first solve after the snapshot starts from a basis"
        cold = [warm for warm, _iterations in forward].count(False)
        assert (cold == 0) if max_history is None else (cold >= 1)
        assert result_fingerprint(original.result()) == result_fingerprint(twin.result())


    @pytest.mark.parametrize("max_history", [None, 6])
    def test_restored_finish_time_fairness_twin_re_solves_both_programs_from_the_same_bases(
        self, oracle, small_spec, monkeypatch, max_history
    ):
        """``restore()`` rebuilds the scaling *and* the witness program's solver state.

        A finish-time-fairness session keeps two live programs and starts
        every re-allocation from the same candidate, so the two bases are all
        a restore has to reproduce: every forward solve of the twin
        agrees with the original's in program, warm-start flag and pivot
        count — hence in the number of scaling LPs per re-allocation — not
        just in outcome.  After a ``max_session_history`` re-base both start
        over, in the twin as in the original: one cold solve per program.
        """
        from repro.solver.lp import LinearProgram

        solved = []
        solve = LinearProgram.solve

        def recording(program, *args, **kwargs):
            solution = solve(program, *args, **kwargs)
            solved.append((program.name, solution.warm_started, solution.simplex_iterations))
            return solution

        monkeypatch.setattr(LinearProgram, "solve", recording)
        config = SchedulerConfig(mode="continuous", max_session_history=max_history)

        def loaded():
            scheduler = _scheduler(
                oracle, small_spec, policy="finish_time_fairness", config=config
            )
            for job in _trace(oracle, num_jobs=12, jobs_per_hour=6.0, seed=7).jobs:
                scheduler.submit(job)
            return scheduler

        original = loaded()
        for _ in range(10):
            original.step()
        snapshot = original.snapshot()
        if max_history is not None:
            assert original.result().num_policy_recomputations > max_history
            assert len(snapshot.session_history) <= max_history
        twin = _scheduler(
            oracle, small_spec, policy="finish_time_fairness", config=config
        ).restore(snapshot)

        solved.clear()
        original.run_until()
        forward = list(solved)
        solved.clear()
        twin.run_until()
        assert solved == forward
        programs = {name for name, _warm, _iterations in forward}
        assert programs == {"finish_time_fairness", "throughput_scaling"}
        for name in programs:
            flags = [warm for program, warm, _iterations in forward if program == name]
            assert flags[0], f"{name}: the first solve after the snapshot starts from a basis"
            assert (flags.count(False) == 0) if max_history is None else (flags.count(False) >= 1)
        assert result_fingerprint(original.result()) == result_fingerprint(twin.result())


class TestResolveTicks:
    def test_interval_requires_continuous_mode(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(mode="round", resolve_interval_seconds=60.0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(mode="ideal", resolve_interval_seconds=60.0)

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(mode="continuous", resolve_interval_seconds=0.0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(mode="continuous", resolve_interval_seconds=-5.0)

    def test_ticks_add_grid_aligned_resolves(self, oracle, small_spec):
        interval = 500.0
        config = SchedulerConfig(
            mode="continuous",
            resolve_interval_seconds=interval,
            max_simulated_seconds=5_000_000.0,
        )
        scheduler = _scheduler(oracle, small_spec, config=config)
        baseline = _scheduler(
            oracle,
            small_spec,
            config=SchedulerConfig(mode="continuous", max_simulated_seconds=5_000_000.0),
        )
        trace = _trace(oracle, num_jobs=6, jobs_per_hour=4.0, seed=3)
        for sched in (scheduler, baseline):
            for job in trace.jobs:
                sched.submit(job)
        with solved_problems() as solves:
            scheduler.run_until()
        baseline.run_until()
        ticked = scheduler.result()
        untouched = baseline.result()
        # Ticks insert extra event boundaries without losing any work.
        assert ticked.num_rounds > untouched.num_rounds
        assert ticked.completion_rate() == 1.0
        # Grid alignment: some solves land exactly on multiples of the
        # interval (pure function of the clock — no snapshot state needed).
        times = [problem.current_time for problem in solves]
        on_grid = [
            t for t in times if t > 0 and math.isclose(t % interval, 0.0, abs_tol=1e-6)
        ]
        assert on_grid, f"no grid-aligned solves among {times}"

    def test_ticked_run_is_deterministic(self, oracle, small_spec):
        def run():
            config = SchedulerConfig(
                mode="continuous",
                resolve_interval_seconds=350.0,
                max_simulated_seconds=5_000_000.0,
            )
            scheduler = _scheduler(oracle, small_spec, config=config)
            for job in _trace(oracle, num_jobs=8, jobs_per_hour=6.0, seed=9).jobs:
                scheduler.submit(job)
            scheduler.run_until()
            return result_fingerprint(scheduler.result())

        assert run() == run()


class TestLatencyMetrics:
    def test_time_to_first_allocation_round_mode(self, oracle):
        # One v100 only: the second job waits until the first completes (FIFO
        # gives the whole cluster to the head of the queue).
        spec = ClusterSpec.from_counts({"v100": 1})
        config = SchedulerConfig(mode="round", round_duration_seconds=360.0)
        scheduler = _scheduler(oracle, spec, policy="fifo", config=config)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=50_000.0, arrival_time=0.0)
        )
        scheduler.submit(
            Job(job_id=1, job_type="resnet18-bs64", total_steps=50_000.0, arrival_time=0.0)
        )
        scheduler.run_until()
        result = scheduler.result()
        record0, record1 = result.records[0], result.records[1]
        assert record0.time_to_first_allocation == 0.0
        assert record1.time_to_first_allocation is not None
        assert record1.time_to_first_allocation > 0.0
        # Job 1 first ran no earlier than job 0's completion round.
        assert record1.first_allocation_time >= record0.completion_time - 360.0
        values = result.time_to_first_allocation_values()
        assert len(values) == 2
        assert result.average_time_to_first_allocation_seconds() == pytest.approx(
            sum(values) / 2
        )

    def test_unallocated_job_has_no_latency_value(self, oracle, small_spec):
        scheduler = _scheduler(
            oracle, small_spec, config=SchedulerConfig(mode="round")
        )
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=1e9, arrival_time=1e8)
        )
        assert scheduler.result().records[0].time_to_first_allocation is None
        with pytest.raises(ConfigurationError):
            scheduler.result().average_time_to_first_allocation_seconds()

    def test_staleness_orders_by_reallocation_granularity(self, oracle, small_spec):
        # Staleness = mean delay before a churn event (arrival/completion/
        # control) is incorporated into a re-solve.  Round mode incorporates
        # at the next round boundary (~d/2 mean lag for duration d);
        # continuous mode re-solves at the event instant (exactly zero lag).
        trace = _trace(oracle, num_jobs=8, jobs_per_hour=6.0, seed=5)

        def staleness(config):
            scheduler = _scheduler(oracle, small_spec, config=config)
            for job in trace.jobs:
                scheduler.submit(job)
            scheduler.run_until()
            result = scheduler.result()
            assert result.num_allocation_stale_events > 0
            return result.mean_allocation_staleness_seconds()

        coarse = staleness(SchedulerConfig(mode="round", round_duration_seconds=2880.0))
        fine = staleness(SchedulerConfig(mode="round", round_duration_seconds=360.0))
        continuous = staleness(SchedulerConfig(mode="continuous"))
        assert continuous == 0.0
        assert 0.0 < fine < coarse
        # The mean lag scales with the round duration: coarse rounds are 8x
        # longer, so their mean incorporation lag is far above fine's, and
        # both sit in the same ballpark as d/2.
        assert fine < 360.0
        assert coarse > fine * 2

    def test_staleness_zero_before_any_execution(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        assert scheduler.result().mean_allocation_staleness_seconds() == 0.0

    @pytest.mark.parametrize("mode", ["round", "continuous"])
    @pytest.mark.parametrize("kind", ["cancel", "resize", "swap_policy"])
    def test_past_dated_event_runs_as_if_scheduled_now(self, oracle, small_spec, kind, mode):
        """An event dated before now is scheduled now: it adds no staleness lag."""
        trace = _trace(oracle, num_jobs=8)

        def run(past):
            scheduler = _scheduler(oracle, small_spec, config=SchedulerConfig(mode=mode))
            for job in trace.jobs:
                scheduler.submit(job)
            scheduler.run_until(20_000.0)
            at = 0.0 if past else scheduler.now
            if kind == "cancel":
                scheduler.schedule_cancel(scheduler.status().active_job_ids[0], at=at)
            elif kind == "resize":
                scheduler.schedule_resize({"v100": 1}, at=at)
            else:
                scheduler.schedule_swap_policy("max_total_throughput", at=at)
            scheduler.run_until()
            return scheduler.result()

        past = run(past=True)
        assert result_fingerprint(past) == result_fingerprint(run(past=False))
        if mode == "continuous":
            assert past.allocation_staleness_integral == 0.0


class TestControlEventAPI:
    def test_schedule_cancel_unknown_job_rejected(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(UnknownJobError):
            scheduler.schedule_cancel(99, at=100.0)

    @pytest.mark.parametrize("when", [-1.0, math.inf, math.nan])
    def test_invalid_event_times_rejected(self, oracle, small_spec, when):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(ConfigurationError):
            scheduler.schedule_resize({"v100": +1}, at=when)

    def test_resize_with_unknown_accelerator_rejected_when_queued(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(ConfigurationError, match="unknown accelerator"):
            scheduler.schedule_resize({"a100": 1}, at=3600.0)
        assert scheduler.status().num_queued_events == 0

    def test_resize_to_other_accelerator_types_rejected_when_queued(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        narrower = ClusterSpec.from_counts(
            {"v100": 2, "k80": 2}, registry=small_spec.registry.subset(["v100", "k80"])
        )
        with pytest.raises(ConfigurationError, match="set of accelerator types"):
            scheduler.schedule_resize(narrower, at=3600.0)
        assert scheduler.status().num_queued_events == 0

    def test_unknown_policy_rejected_when_queued(self, oracle, small_spec):
        scheduler = _scheduler(oracle, small_spec)
        with pytest.raises(ConfigurationError, match="unknown policy"):
            scheduler.schedule_swap_policy("no_such_policy", at=3600.0)
        assert scheduler.status().num_queued_events == 0

    def test_swap_to_policy_type_aggregation_cannot_run_rejected_when_queued(
        self, oracle, small_spec
    ):
        config = SchedulerConfig(mode="continuous", aggregation="type")
        scheduler = _scheduler(oracle, small_spec, config=config)
        with pytest.raises(ConfigurationError, match="aggregation='type'"):
            scheduler.schedule_swap_policy("fifo", at=3600.0)
        with pytest.raises(ConfigurationError, match="aggregation='type'"):
            scheduler.schedule_swap_policy(make_policy("fifo"), at=3600.0)
        assert scheduler.status().num_queued_events == 0

    def test_negative_resize_delta_still_raises_when_it_fires(self, oracle, small_spec):
        """The count a delta lands on depends on the capacity at fire time."""
        scheduler = _scheduler(oracle, small_spec)
        scheduler.schedule_resize({"v100": -1}, at=100.0)
        scheduler.schedule_resize({"v100": -2}, at=200.0)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=1e9, arrival_time=0.0)
        )
        with pytest.raises(ConfigurationError):
            scheduler.run_until()
        assert scheduler.cluster_spec.count("v100") == 1

    def test_queued_events_visible_in_status_and_drained(self, oracle, small_spec):
        config = SchedulerConfig(mode="continuous", max_simulated_seconds=5_000_000.0)
        scheduler = _scheduler(oracle, small_spec, config=config)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=100_000.0, arrival_time=0.0)
        )
        scheduler.schedule_resize({"v100": +1}, at=1_000.0)
        scheduler.schedule_swap_policy("fifo", at=2_000.0)
        assert scheduler.status().num_queued_events == 2
        scheduler.run_until()
        assert scheduler.status().num_queued_events == 0
        assert scheduler.cluster_spec.count("v100") == 3
        assert "fifo" in scheduler.result().policy_name

    def test_round_mode_fires_events_at_round_boundaries(self, oracle, small_spec):
        config = SchedulerConfig(mode="round", round_duration_seconds=360.0)
        scheduler = _scheduler(oracle, small_spec, config=config)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=100_000.0, arrival_time=0.0)
        )
        # Fires at the first round boundary at or after t=500 (i.e. 720).
        scheduler.schedule_resize({"v100": +1}, at=500.0)
        scheduler.run_until(700.0)
        assert scheduler.cluster_spec.count("v100") == 2
        scheduler.run_until(1100.0)
        assert scheduler.cluster_spec.count("v100") == 3

    def test_cancel_of_finished_job_is_skipped(self, oracle, small_spec):
        config = SchedulerConfig(mode="continuous", max_simulated_seconds=5_000_000.0)
        scheduler = _scheduler(oracle, small_spec, config=config)
        scheduler.submit(
            Job(job_id=0, job_type="resnet18-bs64", total_steps=100.0, arrival_time=0.0)
        )
        scheduler.schedule_cancel(0, at=4_000_000.0)
        scheduler.run_until()
        record = scheduler.result().records[0]
        assert record.completed
        assert not record.cancelled


class TestRoundConvergence:
    @pytest.mark.parametrize("aggregation", ["job", "type"])
    @pytest.mark.parametrize("policy", ["max_min_fairness", "max_min_fairness+ss"])
    def test_round_jcts_approach_continuous_as_duration_shrinks(
        self, oracle, small_spec, policy, aggregation
    ):
        """Also with space sharing: pair rows run at one rate rule in every mode.

        Seen on this trace: continuous / 2 880 s / 60 s rounds give 39.256 /
        41.560 / 39.704 h for LAS and 34.999 / 37.529 / 36.485 h with space
        sharing, in both aggregations.
        """
        trace = _trace(oracle, num_jobs=14, jobs_per_hour=4.0, seed=2)
        window = steady_state_job_ids(trace)

        def average_jct(mode, **options):
            config = SchedulerConfig(mode=mode, aggregation=aggregation, **options)
            scheduler = _scheduler(oracle, small_spec, policy=policy, config=config)
            for job in trace.jobs:
                scheduler.submit(job)
            scheduler.run_until()
            return scheduler.result().average_jct_hours(window)

        continuous = average_jct("continuous")
        coarse = average_jct("round", round_duration_seconds=2880.0)
        fine = average_jct("round", round_duration_seconds=60.0)
        # The fine-grained round schedule must sit closer to the continuous
        # limit than the coarse one, and within a tight relative band.
        assert abs(fine - continuous) <= abs(coarse - continuous) + 1e-9
        assert fine == pytest.approx(continuous, rel=0.10)
