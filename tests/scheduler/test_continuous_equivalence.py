"""The array-native fluid event against the scalar event it replaced.

``ClusterScheduler.step()`` in ``continuous`` / ``ideal`` mode runs the event's
rates, progress, completion detection and billing as numpy over one per-job x
per-type block, straight on the live-job table's columns; ``reference_continuous.py`` is the per-job loop it replaced (plus the
pair fix).  A scheduler stepped by the first and a twin stepped by the second
must agree after every step: every per-job field bit for bit — both perform the
same IEEE operations in the same order — and the run-level busy time to
``rel=1e-12`` (the reference adds it row by row in allocation order, the
scheduler job by job in admission order, as the loop always had).

Also here: a step makes no per-job registry or allocation lookup; the
results are plain floats in every mode; and a space-sharing pair occupies its
device once and is billed once, split between its members.
"""

import contextlib
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import AcceleratorRegistry, ClusterSpec
from repro.core import Allocation, Policy
from repro.scheduler import ClusterScheduler, SchedulerConfig, service
from repro.workloads import Job, ThroughputOracle, TraceGenerator

from live_rows import records, rows
from reference_continuous import reference_step

_ORACLE = ThroughputOracle()
_JOB_TYPES = sorted(_ORACLE.job_types.names)
#: Far more steps than any test runs: such a job never completes.
_ENDLESS = 1e12


def _trace(num_jobs=10, seed=5):
    return TraceGenerator(_ORACLE).generate_continuous(
        num_jobs=num_jobs, jobs_per_hour=6.0, seed=seed
    ).jobs


def _scaled_jobs():
    """Single-, two- and four-worker jobs arriving over two hours."""
    jobs = []
    for job_id, scale in enumerate([1, 2, 4, 1, 2, 4, 1, 4]):
        job_type = _JOB_TYPES[(3 * job_id) % len(_JOB_TYPES)]
        rate = _ORACLE.throughput(job_type, "v100", scale_factor=scale)
        jobs.append(
            Job(
                job_id=job_id,
                job_type=job_type,
                total_steps=rate * 3600.0 * (1 + job_id % 3),
                arrival_time=900.0 * job_id,
                scale_factor=scale,
            )
        )
    return jobs


def _churn(scheduler, jobs):
    """Cancels, a resize that empties the V100s under running jobs, a policy swap."""
    for job in jobs[::3]:
        scheduler.schedule_cancel(job.job_id, job.arrival_time + 1200.0)
    mid = jobs[len(jobs) // 2].arrival_time
    scheduler.schedule_resize({"v100": -2, "k80": +1}, mid)
    scheduler.schedule_resize({"v100": +1}, mid + 5000.0)
    scheduler.schedule_swap_policy("finish_time_fairness", mid + 2500.0)


#: name -> (policy, config, jobs, cluster counts, control events or None)
_SCENARIOS = {
    "las": ("max_min_fairness", SchedulerConfig(mode="continuous"), _trace(), None),
    "space_sharing": (
        "max_min_fairness+ss",
        SchedulerConfig(mode="continuous"),
        _trace(num_jobs=12, seed=3),
        None,
    ),
    "scale_factors": (
        "max_min_fairness",
        SchedulerConfig(mode="continuous"),
        _scaled_jobs(),
        None,
    ),
    "churn": ("max_min_fairness+ss", SchedulerConfig(mode="continuous"), _trace(seed=9), _churn),
    "ticks": (
        "max_min_fairness",
        SchedulerConfig(mode="continuous", resolve_interval_seconds=600.0),
        _trace(num_jobs=8, seed=2),
        None,
    ),
    "ideal": ("max_min_fairness+ss", SchedulerConfig(mode="ideal"), _trace(seed=4), None),
    "aggregated_space_sharing": (
        "max_min_fairness+ss",
        SchedulerConfig(mode="continuous", aggregation="type"),
        _trace(num_jobs=12, seed=3),
        None,
    ),
}

_COUNTS = {"v100": 2, "p100": 2, "k80": 2}


def _twins(name):
    policy, config, jobs, control = _SCENARIOS[name]
    counts = {name: 4 for name in _COUNTS} if name == "scale_factors" else _COUNTS
    schedulers = []
    for _ in range(2):
        scheduler = ClusterScheduler(
            policy, ClusterSpec.from_counts(counts), oracle=_ORACLE, config=config
        )
        for job in jobs:
            scheduler.submit(job)
        if control is not None:
            control(scheduler, jobs)
        schedulers.append(scheduler)
    return schedulers


def _state(scheduler):
    """Everything a fluid step reads or writes except busy time; floats compare exactly."""
    return {
        "time": scheduler.now,
        "num_rounds": scheduler._num_rounds,
        "recomputations": scheduler._recomputations,
        "cluster": scheduler.cluster_spec,
        # Every column of every live row (``alone`` as the rates it names), in row order.
        "active": rows(scheduler),
        # Every record as a result would show it: a live job's made from its row.
        "records": records(scheduler),
        "total_cost": scheduler._total_cost,
        "stale_event_times": list(scheduler._stale_event_times),
        "staleness": (scheduler._staleness_integral, scheduler._staleness_events),
    }


def _assert_same(real, twin):
    assert _state(real) == _state(twin)
    assert real._busy_seconds == pytest.approx(twin._busy_seconds, rel=1e-12, abs=1e-9)


def _run_both(real, twin, max_steps=5_000):
    steps = 0
    while steps < max_steps and real.has_work:
        assert real.step() == reference_step(twin)
        _assert_same(real, twin)
        steps += 1
    assert not real.has_work and not twin.has_work
    return steps


@contextlib.contextmanager
def _recorded_allocations():
    allocations = []
    solve = ClusterScheduler._solve_allocation

    def recording(self, *args, **kwargs):
        allocations.append(solve(self, *args, **kwargs))
        return allocations[-1]

    with mock.patch.object(ClusterScheduler, "_solve_allocation", recording):
        yield allocations


def _shared_rows(allocations):
    """Allocations that run some space-sharing pair row for a positive fraction."""
    return sum(
        any(
            len(combination) > 1 and row.sum() > 0
            for combination, row in zip(allocation.combinations, allocation.matrix)
        )
        for allocation in allocations
    )


class TestFluidEventMatchesScalarReference:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_every_step_leaves_the_same_state(self, name):
        real, twin = _twins(name)
        with _recorded_allocations() as allocations:
            assert _run_both(real, twin) > 10
        if name in ("space_sharing", "churn", "ideal", "aggregated_space_sharing"):
            assert _shared_rows(allocations) > 0, "no pair row ever ran: the scenario is vacuous"
        if name == "churn":
            assert any(record.cancelled for record in real.result().records.values())

    @pytest.mark.parametrize("left", [5e-7, 5e-4])
    def test_a_job_within_a_millionth_of_a_step_of_its_end_completes(self, left):
        """A tick lands ``left`` steps before the end: completion is ``remaining <= 1e-6``."""

        def ticking(total_steps):
            scheduler = ClusterScheduler(
                "max_min_fairness",
                ClusterSpec.from_counts({"v100": 1}, registry=_ORACLE.registry),
                oracle=_ORACLE,
                config=SchedulerConfig(mode="continuous", resolve_interval_seconds=600.0),
            )
            scheduler.submit(Job(job_id=0, job_type="resnet18-bs32", total_steps=total_steps))
            return scheduler

        probe = ticking(_ENDLESS)
        probe.step()
        first_tick = probe.result().records[0].steps_done
        real, twin = ticking(first_tick + left), ticking(first_tick + left)
        assert real.step() == reference_step(twin)
        _assert_same(real, twin)
        assert (real.result().records[0].completion_time == 600.0) == (left < 1e-6)
        _run_both(real, twin)

    def test_a_job_left_out_of_the_allocation_waits_unbilled(self):
        """A policy may leave a job out of every row: it runs at rate 0 and pays nothing."""

        class OneAtATime(Policy):
            name = "one_at_a_time"

            def compute_allocation(self, problem):
                first = problem.job_ids[0]
                row = (problem.throughputs.isolated_throughputs(first) > 0).astype(float)
                return Allocation(
                    problem.throughputs.registry,
                    {(first,): row / row.sum()},
                    scale_factors=problem.scale_factors(),
                )

        real, twin = (
            ClusterScheduler(
                OneAtATime(),
                ClusterSpec.from_counts(_COUNTS),
                oracle=_ORACLE,
                config=SchedulerConfig(mode="continuous"),
            )
            for _ in range(2)
        )
        for scheduler in (real, twin):
            for job in _trace(num_jobs=4):
                scheduler.submit(job)
        assert real.step() == reference_step(twin)
        _assert_same(real, twin)
        waiting = [record for record in real.result().records.values() if record.steps_done == 0]
        assert waiting and all(record.cost_dollars == 0.0 for record in waiting)
        assert _run_both(real, twin) > 3

    def test_a_restored_twin_steps_like_the_reference(self):
        real, twin = _twins("churn")
        for _ in range(8):
            real.step()
            reference_step(twin)
        resumed = ClusterScheduler(
            "max_min_fairness+ss", real.cluster_spec, oracle=_ORACLE, config=real._config
        ).restore(real.snapshot())
        _assert_same(resumed, twin)
        assert _run_both(resumed, twin) > 5


class TestNoPerJobLookups:
    @pytest.mark.parametrize("name", ["las", "space_sharing", "scale_factors"])
    def test_a_fluid_step_calls_neither_job_row_nor_registry_get(self, name):
        """Counted when the scheduler itself calls them (the colocation model, asked
        once per new job-type pair at admission, looks accelerators up by name)."""
        scheduler, _twin = _twins(name)
        calls = []
        job_row, get = Allocation.job_row, AcceleratorRegistry.get

        def counted(label, function):
            def wrapper(*args, **kwargs):
                if sys._getframe(1).f_code.co_filename == service.__file__:
                    calls.append(label)
                return function(*args, **kwargs)

            return wrapper

        with mock.patch.object(Allocation, "job_row", counted("job_row", job_row)):
            with mock.patch.object(AcceleratorRegistry, "get", counted("get", get)):
                scheduler.run_until()
        assert scheduler.result().num_rounds > 10
        assert calls == []


class TestPlainFloats:
    @pytest.mark.parametrize("mode", ["round", "physical", "continuous", "ideal"])
    def test_result_and_status_report_python_floats(self, mode):
        scheduler = ClusterScheduler(
            "max_min_fairness+ss",
            ClusterSpec.from_counts(_COUNTS),
            oracle=_ORACLE,
            config=SchedulerConfig(mode=mode),
        )
        for job in _trace(num_jobs=6):
            scheduler.submit(job)
        scheduler.run_until()
        result, status = scheduler.result(), scheduler.status()
        assert type(result.total_cost_dollars) is float
        assert type(status.total_cost_dollars) is float
        assert type(status.current_time) is float
        for mapping in (result.busy_worker_seconds, result.capacity_worker_seconds):
            assert all(type(value) is float for value in mapping.values()), mapping
        for record in result.records.values():
            assert type(record.cost_dollars) is float
            assert type(record.steps_done) is float
            assert type(record.completion_time) is float


def _busy_and_billed(scheduler):
    result = scheduler.result()
    prices = dict(zip(_ORACLE.registry.names, _ORACLE.registry.costs_per_hour()))
    billed = sum(record.cost_dollars for record in result.records.values())
    return result, prices, billed


class TestPairsAreChargedOnce:
    """A pair row occupies ``demand`` devices once and bills each member half of it."""

    def test_two_jobs_sharing_one_v100_occupy_it_once(self):
        jobs = [
            Job(job_id=0, job_type="resnet18-bs32", total_steps=_ENDLESS),
            Job(job_id=1, job_type="lstm-bs5", total_steps=_ENDLESS),
        ]
        scheduler = ClusterScheduler(
            "max_min_fairness+ss",
            ClusterSpec.from_counts({"v100": 1}, registry=_ORACLE.registry),
            oracle=_ORACLE,
            config=SchedulerConfig(mode="continuous", resolve_interval_seconds=3600.0),
        )
        for job in jobs:
            scheduler.submit(job)
        with _recorded_allocations() as allocations:
            scheduler.step()
        assert _shared_rows(allocations) == 1
        result, prices, billed = _busy_and_billed(scheduler)
        assert scheduler.now == 3600.0
        # Charged per member this read about 7 000 of 3 600 V100-seconds.
        assert result.busy_worker_seconds["v100"] <= 3600.0 * (1 + 1e-9)
        assert result.utilization() <= 1 + 1e-9
        assert billed == pytest.approx(result.total_cost_dollars, rel=1e-12)
        assert billed == pytest.approx(
            prices["v100"] * result.busy_worker_seconds["v100"] / 3600.0, rel=1e-9
        )
        # Each member pays its own singleton time and half the pair's.
        allocation = allocations[0]
        for job_id, record in result.records.items():
            fraction = allocation.value((job_id,), "v100") + allocation.value((0, 1), "v100") / 2
            assert record.cost_dollars == pytest.approx(prices["v100"] * fraction, rel=1e-12)

    def test_completion_times_do_not_depend_on_the_charging(self):
        """The fix moves cost and utilization only: progress comes from the rates."""
        real, twin = _twins("space_sharing")
        _run_both(real, twin)
        result = real.result()
        assert result.utilization() <= 1 + 1e-9
        completions = {job_id: r.completion_time for job_id, r in result.records.items()}
        twin_completions = {
            job_id: r.completion_time for job_id, r in twin.result().records.items()
        }
        assert completions == twin_completions


@st.composite
def _pair_workload(draw):
    """Single-worker jobs on one or two GPUs per type, some arriving late."""
    jobs = []
    for job_id in range(draw(st.integers(2, 6))):
        job_type = draw(st.sampled_from(_JOB_TYPES))
        seconds = draw(st.floats(600.0, 20_000.0))
        jobs.append(
            Job(
                job_id=job_id,
                job_type=job_type,
                total_steps=_ORACLE.throughput(job_type, "v100") * seconds,
                arrival_time=draw(st.sampled_from([0.0, 0.0, 500.0, 3000.0])),
            )
        )
    counts = {"v100": draw(st.integers(1, 2))}
    counts.update((name, draw(st.integers(0, 2))) for name in ("p100", "k80"))
    return jobs, counts, draw(st.sampled_from(["continuous", "ideal"]))


class TestFluidSpaceSharingProperties:
    @given(workload=_pair_workload())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_utilization_is_at_most_one_and_cost_is_the_records(self, workload):
        jobs, counts, mode = workload
        scheduler = ClusterScheduler(
            "max_min_fairness+ss",
            ClusterSpec.from_counts(counts, registry=_ORACLE.registry),
            oracle=_ORACLE,
            config=SchedulerConfig(mode=mode),
        )
        for job in jobs:
            scheduler.submit(job)
        scheduler.run_until()
        result, _prices, billed = _busy_and_billed(scheduler)
        assert result.utilization() <= 1 + 1e-9
        for name, busy in result.busy_worker_seconds.items():
            assert busy <= result.capacity_worker_seconds[name] * (1 + 1e-9) + 1e-9, name
        assert result.total_cost_dollars == pytest.approx(billed, rel=1e-12, abs=1e-12)
